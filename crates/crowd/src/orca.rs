//! Optimal Reciprocal Collision Avoidance (ORCA) velocity computation.
//!
//! This reimplements the velocity-obstacle construction and the incremental
//! 2-D linear program of the RVO2 library \[71\] that the paper uses to
//! simulate crowd trajectories for the Timik and SMM datasets. Each
//! neighboring agent induces a half-plane constraint on the new velocity;
//! the LP returns the feasible velocity closest to the preferred one, with a
//! 3-D fallback that minimally violates constraints in dense crowds.

use xr_graph::geom::Point2;

/// A directed line: the permitted half-plane is to the *left* of
/// `point + t · direction`.
#[derive(Debug, Clone, Copy)]
pub struct OrcaLine {
    /// A point on the boundary line.
    pub point: Point2,
    /// Unit direction of the boundary line.
    pub direction: Point2,
}

/// State of one agent relevant to ORCA.
#[derive(Debug, Clone, Copy)]
pub struct AgentState {
    pub position: Point2,
    pub velocity: Point2,
    pub radius: f64,
}

/// Builds the ORCA half-plane constraint induced on agent `a` by agent `b`.
///
/// `time_horizon` is the window (seconds) within which collisions are
/// avoided; `time_step` is the simulation step used for the already-colliding
/// branch. The reciprocal assumption gives each agent half of the avoidance
/// responsibility.
pub fn orca_line(a: &AgentState, b: &AgentState, time_horizon: f64, time_step: f64) -> OrcaLine {
    let relative_position = b.position - a.position;
    let relative_velocity = a.velocity - b.velocity;
    let dist_sq = relative_position.norm_sq();
    let combined_radius = a.radius + b.radius;
    let combined_radius_sq = combined_radius * combined_radius;

    let (direction, u);

    if dist_sq > combined_radius_sq {
        // No collision yet: constrain against the truncated velocity obstacle.
        let inv_horizon = 1.0 / time_horizon;
        // Vector from the cutoff-circle center to the relative velocity.
        let w = relative_velocity - relative_position * inv_horizon;
        let w_len_sq = w.norm_sq();
        let dot1 = w.dot(relative_position);

        if dot1 < 0.0 && dot1 * dot1 > combined_radius_sq * w_len_sq {
            // Project on the cutoff circle.
            let w_len = w_len_sq.sqrt();
            let unit_w = w / w_len;
            direction = Point2::new(unit_w.y, -unit_w.x);
            u = unit_w * (combined_radius * inv_horizon - w_len);
        } else {
            // Project on the nearest leg of the cone.
            let leg = (dist_sq - combined_radius_sq).sqrt();
            if relative_position.cross(w) > 0.0 {
                direction = Point2::new(
                    relative_position.x * leg - relative_position.y * combined_radius,
                    relative_position.x * combined_radius + relative_position.y * leg,
                ) / dist_sq;
            } else {
                direction = -Point2::new(
                    relative_position.x * leg + relative_position.y * combined_radius,
                    -relative_position.x * combined_radius + relative_position.y * leg,
                ) / dist_sq;
            }
            let dot2 = relative_velocity.dot(direction);
            u = direction * dot2 - relative_velocity;
        }
    } else {
        // Already colliding: push apart within one time step.
        let inv_time_step = 1.0 / time_step;
        let w = relative_velocity - relative_position * inv_time_step;
        let w_len = w.norm().max(1e-12);
        let unit_w = w / w_len;
        direction = Point2::new(unit_w.y, -unit_w.x);
        u = unit_w * (combined_radius * inv_time_step - w_len);
    }

    OrcaLine { point: a.velocity + u * 0.5, direction }
}

/// Solves the 1-D LP on constraint line `line_no`, keeping all earlier
/// constraints satisfied and speed ≤ `max_speed`. Returns the optimal point
/// on the line, or `None` when infeasible.
fn linear_program1(
    lines: &[OrcaLine],
    line_no: usize,
    max_speed: f64,
    opt_velocity: Point2,
    direction_opt: bool,
) -> Option<Point2> {
    let line = lines[line_no];
    let dot = line.point.dot(line.direction);
    let discriminant = dot * dot + max_speed * max_speed - line.point.norm_sq();
    if discriminant < 0.0 {
        return None; // max-speed circle misses the line entirely
    }
    let sqrt_disc = discriminant.sqrt();
    let mut t_left = -dot - sqrt_disc;
    let mut t_right = -dot + sqrt_disc;

    for prev in lines.iter().take(line_no) {
        let denominator = line.direction.cross(prev.direction);
        let numerator = prev.direction.cross(line.point - prev.point);
        if denominator.abs() <= 1e-12 {
            // parallel lines
            if numerator < 0.0 {
                return None;
            }
            continue;
        }
        let t = numerator / denominator;
        if denominator >= 0.0 {
            t_right = t_right.min(t);
        } else {
            t_left = t_left.max(t);
        }
        if t_left > t_right {
            return None;
        }
    }

    let t = if direction_opt {
        // optimize direction: take extreme point in the optimization direction
        if opt_velocity.dot(line.direction) > 0.0 {
            t_right
        } else {
            t_left
        }
    } else {
        // optimize closest point to opt_velocity
        (line.direction.dot(opt_velocity - line.point)).clamp(t_left, t_right)
    };
    Some(line.point + line.direction * t)
}

/// Solves the 2-D LP: the velocity with norm ≤ `max_speed` satisfying all
/// half-plane constraints, closest to `opt_velocity` (or farthest along it
/// when `direction_opt`). Returns the number of constraints satisfied before
/// failure and the best velocity found.
fn linear_program2(
    lines: &[OrcaLine],
    max_speed: f64,
    opt_velocity: Point2,
    direction_opt: bool,
) -> (usize, Point2) {
    let mut result = if direction_opt {
        // opt_velocity is a unit direction
        opt_velocity * max_speed
    } else if opt_velocity.norm_sq() > max_speed * max_speed {
        opt_velocity.normalized() * max_speed
    } else {
        opt_velocity
    };

    for (i, line) in lines.iter().enumerate() {
        if line.direction.cross(line.point - result) > 0.0 {
            // current result violates constraint i
            match linear_program1(lines, i, max_speed, opt_velocity, direction_opt) {
                Some(v) => result = v,
                None => return (i, result),
            }
        }
    }
    (lines.len(), result)
}

/// 3-D fallback: when the 2-D LP is infeasible, minimize the maximum
/// constraint violation (projective LP on penetration depth).
fn linear_program3(lines: &[OrcaLine], begin_line: usize, max_speed: f64, result: &mut Point2) {
    let mut distance = 0.0;
    for i in begin_line..lines.len() {
        if lines[i].direction.cross(lines[i].point - *result) > distance {
            // result violates constraint i beyond current max violation
            let mut proj_lines: Vec<OrcaLine> = Vec::with_capacity(i);
            for prev in lines.iter().take(i) {
                let determinant = lines[i].direction.cross(prev.direction);
                let point = if determinant.abs() <= 1e-12 {
                    if lines[i].direction.dot(prev.direction) > 0.0 {
                        continue; // same direction: redundant
                    }
                    (lines[i].point + prev.point) * 0.5
                } else {
                    lines[i].point
                        + lines[i].direction
                            * (prev.direction.cross(lines[i].point - prev.point) / determinant)
                };
                let direction = (prev.direction - lines[i].direction).normalized();
                proj_lines.push(OrcaLine { point, direction });
            }
            let temp = *result;
            let opt_dir = Point2::new(-lines[i].direction.y, lines[i].direction.x);
            let (count, v) = linear_program2(&proj_lines, max_speed, opt_dir, true);
            if count >= proj_lines.len() {
                *result = v;
            } else {
                *result = temp; // keep previous on numerical failure
            }
            distance = lines[i].direction.cross(lines[i].point - *result);
        }
    }
}

/// Computes the ORCA-optimal new velocity given half-plane constraints.
pub fn solve_velocity(lines: &[OrcaLine], max_speed: f64, preferred: Point2) -> Point2 {
    let (count, mut result) = linear_program2(lines, max_speed, preferred, false);
    if count < lines.len() {
        linear_program3(lines, count, max_speed, &mut result);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_returns_preferred() {
        let v = solve_velocity(&[], 2.0, Point2::new(1.0, 0.5));
        assert_eq!(v, Point2::new(1.0, 0.5));
    }

    #[test]
    fn max_speed_clamps_preferred() {
        let v = solve_velocity(&[], 1.0, Point2::new(3.0, 4.0));
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!((v.normalized().dot(Point2::new(0.6, 0.8)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_halfplane_projects() {
        // Constraint: velocity must have y >= 1 (line through (0,1) pointing +x,
        // left side is y > 1).
        let line = OrcaLine { point: Point2::new(0.0, 1.0), direction: Point2::new(1.0, 0.0) };
        let v = solve_velocity(&[line], 5.0, Point2::new(2.0, 0.0));
        assert!((v.y - 1.0).abs() < 1e-9, "projected onto boundary, got {v:?}");
        assert!((v.x - 2.0).abs() < 1e-9);
        // already-feasible preferred velocity is untouched
        let v2 = solve_velocity(&[line], 5.0, Point2::new(0.0, 3.0));
        assert_eq!(v2, Point2::new(0.0, 3.0));
    }

    #[test]
    fn head_on_constraint_pushes_sideways() {
        // Two agents approaching head-on along x; the induced half-plane must
        // forbid continuing straight at full speed.
        let a = AgentState { position: Point2::new(0.0, 0.0), velocity: Point2::new(1.0, 0.0), radius: 0.3 };
        let b = AgentState { position: Point2::new(2.0, 0.0), velocity: Point2::new(-1.0, 0.0), radius: 0.3 };
        let line = orca_line(&a, &b, 2.0, 0.1);
        let v = solve_velocity(&[line], 1.5, Point2::new(1.0, 0.0));
        // New velocity must deviate from pure +x (gain a lateral component or slow down).
        assert!(v.y.abs() > 1e-6 || v.x < 1.0 - 1e-6, "velocity unchanged: {v:?}");
    }

    #[test]
    fn colliding_agents_separate() {
        // Overlapping agents: the collision branch must push them apart.
        let a = AgentState { position: Point2::new(0.0, 0.0), velocity: Point2::zero(), radius: 0.4 };
        let b = AgentState { position: Point2::new(0.3, 0.0), velocity: Point2::zero(), radius: 0.4 };
        let line = orca_line(&a, &b, 2.0, 0.1);
        let v = solve_velocity(&[line], 2.0, Point2::zero());
        // a must move away from b, i.e. in -x direction
        assert!(v.x < -1e-6, "agent did not retreat: {v:?}");
    }

    #[test]
    fn infeasible_constraints_fall_back_gracefully() {
        // Two opposing half-planes with no intersection inside the speed disk:
        // y >= 3 and y <= -3 with max speed 1. LP3 should return something
        // finite with norm <= max_speed (plus small numerical slack).
        let l1 = OrcaLine { point: Point2::new(0.0, 3.0), direction: Point2::new(1.0, 0.0) };
        let l2 = OrcaLine { point: Point2::new(0.0, -3.0), direction: Point2::new(-1.0, 0.0) };
        let v = solve_velocity(&[l1, l2], 1.0, Point2::new(0.5, 0.0));
        assert!(v.x.is_finite() && v.y.is_finite());
        assert!(v.norm() <= 1.0 + 1e-6);
    }

    #[test]
    fn symmetric_encounter_is_reciprocal() {
        // Mirror-image agents produce mirror-image constraints.
        let a = AgentState { position: Point2::new(0.0, 0.0), velocity: Point2::new(1.0, 0.0), radius: 0.3 };
        let b = AgentState { position: Point2::new(2.0, 0.0), velocity: Point2::new(-1.0, 0.0), radius: 0.3 };
        let la = orca_line(&a, &b, 2.0, 0.1);
        let lb = orca_line(&b, &a, 2.0, 0.1);
        assert!((la.point.x + lb.point.x).abs() < 1e-9, "{la:?} vs {lb:?}");
        assert!((la.direction.x + lb.direction.x).abs() < 1e-9);
    }
}
