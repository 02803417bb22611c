//! f32 scene kernels for the serving path: distances, view arcs, occlusion
//! graphs, and candidate masks in single precision.
//!
//! The streaming [`crate::SceneEngine`] stays f64 — it feeds the bit-exact
//! train/replay pipeline. Serving re-derives the per-target scene quantities
//! in f32 so a recommend step never touches f64: the distance row is the
//! data-parallel hot kernel (wide-lane SIMD with a bit-identical scalar
//! reference — sub/mul/add/sqrt are all correctly rounded, so the lanes match
//! the scalar chain exactly), while arc construction and the occlusion /
//! candidate-mask logic mirror the f64 semantics
//! ([`xr_graph::OcclusionConverter::arc`] and the engine's shared-state mask)
//! with f32 trigonometry.

use xr_graph::UGraph;
use xr_tensor::serve32::{simd_enabled, LANES};

/// Euclidean distances from `(ox, oy)` to each point in `xs`/`ys`
/// (structure-of-arrays). Runtime SIMD dispatch; `AFTER_NO_SIMD=1` forces
/// the scalar path. Both variants are bit-identical.
pub fn distance_row_f32(ox: f32, oy: f32, xs: &[f32], ys: &[f32], out: &mut [f32]) {
    debug_assert_eq!(xs.len(), ys.len());
    debug_assert_eq!(xs.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && xs.len() >= LANES {
        // SAFETY: simd_enabled() verified AVX2 at runtime.
        unsafe { distance_row_f32_avx2(ox, oy, xs, ys, out) };
        return;
    }
    distance_row_f32_scalar(ox, oy, xs, ys, out);
}

/// Scalar reference for the distance row.
pub fn distance_row_f32_scalar(ox: f32, oy: f32, xs: &[f32], ys: &[f32], out: &mut [f32]) {
    for i in 0..xs.len() {
        let dx = xs[i] - ox;
        let dy = ys[i] - oy;
        out[i] = (dx * dx + dy * dy).sqrt();
    }
}

/// AVX2 distance row: 8 agents per lane (`_mm256_sqrt_ps` is IEEE-exact, so
/// this matches the scalar reference bitwise).
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn distance_row_f32_avx2(ox: f32, oy: f32, xs: &[f32], ys: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let n8 = n - n % LANES;
    let oxv = _mm256_set1_ps(ox);
    let oyv = _mm256_set1_ps(oy);
    let mut i = 0;
    while i < n8 {
        let dx = _mm256_sub_ps(_mm256_loadu_ps(xs.as_ptr().add(i)), oxv);
        let dy = _mm256_sub_ps(_mm256_loadu_ps(ys.as_ptr().add(i)), oyv);
        let d = _mm256_sqrt_ps(_mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), d);
        i += LANES;
    }
    for j in n8..n {
        let dx = xs[j] - ox;
        let dy = ys[j] - oy;
        out[j] = (dx * dx + dy * dy).sqrt();
    }
}

/// f32 view arc: angular position, half-width, and distance of one user in
/// the target's 360° view (f32 port of [`xr_graph::ViewArc`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewArcF32 {
    /// Angular position of the user's center, in `[0, 2π)`.
    pub center: f32,
    /// Angular half-width of the occupied arc, in `[0, π]`.
    pub half_width: f32,
    /// Euclidean distance from the target.
    pub distance: f32,
}

impl ViewArcF32 {
    /// `true` when two arcs overlap on the circle.
    pub fn intersects(&self, other: &ViewArcF32) -> bool {
        angle_diff_f32(self.center, other.center) < self.half_width + other.half_width
    }
}

/// Circular distance between two angles, in `[0, π]`.
pub fn angle_diff_f32(a: f32, b: f32) -> f32 {
    let tau = std::f32::consts::TAU;
    let d = (wrap_angle_f32(a) - wrap_angle_f32(b)).abs();
    d.min(tau - d)
}

/// Normalizes an angle into `[0, 2π)`; like the f64
/// [`xr_graph::geom::wrap_angle`], an angle already in range (every arc
/// center) is returned bit for bit without the `%` call.
fn wrap_angle_f32(a: f32) -> f32 {
    let tau = std::f32::consts::TAU;
    if (0.0..tau).contains(&a) {
        return a;
    }
    let mut r = a % tau;
    if r < 0.0 {
        r += tau;
    }
    r
}

/// The view arc of the user at `(wx, wy)` as seen from `(tx, ty)`, or `None`
/// when the two coincide — the same `d < 1e-9` cutoff and `d ≤ r → π`
/// saturation as the f64 converter, in f32 arithmetic.
pub fn arc_f32(tx: f32, ty: f32, wx: f32, wy: f32, body_radius: f32) -> Option<ViewArcF32> {
    let rx = wx - tx;
    let ry = wy - ty;
    let d = (rx * rx + ry * ry).sqrt();
    if d < 1e-9 {
        return None;
    }
    let half_width = if d <= body_radius { std::f32::consts::PI } else { (body_radius / d).asin() };
    let mut center = ry.atan2(rx);
    if center < 0.0 {
        center += std::f32::consts::TAU;
    }
    Some(ViewArcF32 { center, half_width, distance: d })
}

/// The static occlusion graph for `target` from f32 positions: the target is
/// isolated and two users are adjacent iff their arcs intersect. Brute-force
/// over pairs — serving builds this for a single target per tick, so the
/// O(n²) loop is cheap at serving sizes and keeps the f32 graph free of the
/// sweep's f64-tuned margin.
pub fn occlusion_graph_f32(target: usize, xs: &[f32], ys: &[f32], body_radius: f32) -> UGraph {
    let n = xs.len();
    let arcs: Vec<Option<ViewArcF32>> = (0..n)
        .map(|w| if w == target { None } else { arc_f32(xs[target], ys[target], xs[w], ys[w], body_radius) })
        .collect();
    // the i < j scan lists edges in sorted (min, max) order
    let mut edges = Vec::new();
    for i in 0..n {
        let Some(ai) = arcs[i] else { continue };
        for (j, aj) in arcs.iter().enumerate().skip(i + 1) {
            let Some(aj) = aj else { continue };
            if ai.intersects(aj) {
                edges.push((i, j));
            }
        }
    }
    UGraph::from_sorted_unique_edges(n, &edges)
}

/// f32 candidate mask `m_t` for one viewer — same semantics as the engine's
/// shared-state mask: the viewer never recommends herself; for an MR viewer a
/// candidate is pruned when coincident (`d < 1e-9`) or when a physically
/// present MR participant stands strictly nearer in an overlapping arc (read
/// off the occlusion graph).
pub fn candidate_mask_f32(
    viewer: usize,
    viewer_is_mr: bool,
    distances: &[f32],
    occlusion: &UGraph,
    mr_mask: &[bool],
) -> Vec<bool> {
    let n = distances.len();
    let mut mask = vec![true; n];
    mask[viewer] = false;
    if !viewer_is_mr {
        return mask;
    }
    #[allow(clippy::needless_range_loop)] // w is a user id, not a position
    for w in 0..n {
        if w == viewer {
            continue;
        }
        if distances[w] < 1e-9 {
            mask[w] = false;
            continue;
        }
        let blocked =
            occlusion.neighbors(w).iter().any(|&u| u != viewer && mr_mask[u] && distances[u] < distances[w]);
        if blocked {
            mask[w] = false;
        }
    }
    mask
}

/// The K-nearest shortlist of one viewer from an f32 distance row: member
/// ids in ascending order, selected by `(distance, id)` — the f32 analogue
/// of the engine's [`crate::CandidateSet`] membership rule, for the
/// degraded serving levels that re-derive scene quantities per tick.
pub fn shortlist_f32(viewer: usize, distances: &[f32], k: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..distances.len() as u32).filter(|&w| w as usize != viewer).collect();
    if ids.len() > k {
        ids.select_nth_unstable_by(k, |&a, &b| {
            distances[a as usize].total_cmp(&distances[b as usize]).then(a.cmp(&b))
        });
        ids.truncate(k);
    }
    ids.sort_unstable();
    ids
}

/// f32 candidate-mask bits for the members of a shortlist (parallel to
/// `ids`): the [`candidate_mask_f32`] pruning rule restricted to shortlist
/// pairs — O(K²) arc tests instead of the O(N²) full graph. The
/// `(distance, id)` membership rule gives the same nearer-occluder closure
/// as the f64 path, so member bits agree with the full-graph mask up to f32
/// boundary rounding.
#[allow(clippy::too_many_arguments)]
pub fn candidate_mask_f32_shortlist(
    viewer: usize,
    viewer_is_mr: bool,
    ids: &[u32],
    distances: &[f32],
    xs: &[f32],
    ys: &[f32],
    body_radius: f32,
    mr_mask: &[bool],
) -> Vec<bool> {
    let len = ids.len();
    let mut mask = vec![true; len];
    if !viewer_is_mr {
        return mask;
    }
    let arcs: Vec<Option<ViewArcF32>> = ids
        .iter()
        .map(|&w| arc_f32(xs[viewer], ys[viewer], xs[w as usize], ys[w as usize], body_radius))
        .collect();
    for idx in 0..len {
        if distances[ids[idx] as usize] < 1e-9 {
            mask[idx] = false;
        }
    }
    for a in 0..len {
        let Some(aa) = arcs[a] else { continue };
        for b in (a + 1)..len {
            let Some(ab) = arcs[b] else { continue };
            if !aa.intersects(&ab) {
                continue;
            }
            let (da, db) = (distances[ids[a] as usize], distances[ids[b] as usize]);
            if mr_mask[ids[a] as usize] && da < db {
                mask[b] = false;
            }
            if mr_mask[ids[b] as usize] && db < da {
                mask[a] = false;
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xr_graph::geom::Point2;
    use xr_graph::OcclusionConverter;

    #[test]
    fn distance_row_simd_matches_scalar_bitwise_including_tails() {
        let mut rng = StdRng::seed_from_u64(31);
        for &n in &[1usize, 7, 8, 9, 16, 29] {
            let xs: Vec<f32> = (0..n).map(|_| rng.gen_range(-6.0..6.0) as f32).collect();
            let ys: Vec<f32> = (0..n).map(|_| rng.gen_range(-6.0..6.0) as f32).collect();
            let (ox, oy) = (rng.gen_range(-6.0..6.0) as f32, rng.gen_range(-6.0..6.0) as f32);
            let mut scalar = vec![0.0f32; n];
            let mut wide = vec![0.0f32; n];
            distance_row_f32_scalar(ox, oy, &xs, &ys, &mut scalar);
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                unsafe { distance_row_f32_avx2(ox, oy, &xs, &ys, &mut wide) };
                for i in 0..n {
                    assert_eq!(scalar[i].to_bits(), wide[i].to_bits(), "n={n} lane {i}");
                }
            }
            distance_row_f32(ox, oy, &xs, &ys, &mut wide);
            for i in 0..n {
                assert_eq!(scalar[i].to_bits(), wide[i].to_bits(), "dispatch n={n} lane {i}");
            }
            assert!(scalar.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }

    #[test]
    fn arc_f32_matches_f64_converter_semantics() {
        let conv = OcclusionConverter::new(0.25);
        // regular arc
        let a64 = conv.arc(Point2::zero(), Point2::new(1.0, 0.5)).unwrap();
        let a32 = arc_f32(0.0, 0.0, 1.0, 0.5, 0.25).unwrap();
        assert!((a64.center - a32.center as f64).abs() < 1e-6);
        assert!((a64.half_width - a32.half_width as f64).abs() < 1e-6);
        assert!((a64.distance - a32.distance as f64).abs() < 1e-6);
        // coincident → None in both
        assert!(conv.arc(Point2::zero(), Point2::zero()).is_none());
        assert!(arc_f32(0.0, 0.0, 0.0, 0.0, 0.25).is_none());
        // inside body radius → π half-width in both
        let b32 = arc_f32(0.0, 0.0, 0.1, 0.0, 0.25).unwrap();
        assert_eq!(b32.half_width, std::f32::consts::PI);
    }

    #[test]
    fn wrap_fast_path_is_the_rem_path_bit_for_bit() {
        use std::f32::consts::{PI, TAU};
        fn wrap_rem(a: f32) -> f32 {
            let mut r = a % TAU;
            if r < 0.0 {
                r += TAU;
            }
            r
        }
        let below_tau = f32::from_bits(TAU.to_bits() - 1);
        for a in [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            1.0,
            PI,
            below_tau,
            TAU,
            -1e-30,
            -PI / 2.0,
            -TAU,
            -7.5,
            TAU + 0.5,
            100.0,
            1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ] {
            assert_eq!(wrap_angle_f32(a).to_bits(), wrap_rem(a).to_bits(), "wrap_angle_f32({a:e})");
        }
        assert!(wrap_angle_f32(-0.0).is_sign_negative());
        assert_eq!(wrap_angle_f32(below_tau), below_tau);
    }

    #[test]
    fn arcs_wraparound_intersection() {
        let a = ViewArcF32 { center: 0.05, half_width: 0.2, distance: 1.0 };
        let b = ViewArcF32 { center: std::f32::consts::TAU - 0.05, half_width: 0.2, distance: 1.0 };
        assert!(a.intersects(&b));
        let c = ViewArcF32 { center: std::f32::consts::PI, half_width: 0.2, distance: 1.0 };
        assert!(!a.intersects(&c));
    }

    #[test]
    fn occlusion_graph_f32_matches_f64_on_random_scenes() {
        let mut rng = StdRng::seed_from_u64(32);
        let conv = OcclusionConverter::new(0.2);
        let mut mismatched_scenes = 0usize;
        for _ in 0..50 {
            let n = rng.gen_range(4..12);
            let pos: Vec<Point2> =
                (0..n).map(|_| Point2::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0))).collect();
            let g64 = conv.static_graph(0, &pos);
            let xs: Vec<f32> = pos.iter().map(|p| p.x as f32).collect();
            let ys: Vec<f32> = pos.iter().map(|p| p.y as f32).collect();
            let g32 = occlusion_graph_f32(0, &xs, &ys, 0.2);
            // f32 rounding can flip pairs sitting exactly on the intersection
            // boundary; random scenes essentially never do, but tolerate a
            // rare single-edge flip rather than a brittle exact assert.
            let e64: std::collections::BTreeSet<_> = g64.edges().collect();
            let e32: std::collections::BTreeSet<_> = g32.edges().collect();
            let diff = e64.symmetric_difference(&e32).count();
            if diff > 0 {
                mismatched_scenes += 1;
                assert!(diff <= 1, "f32 occlusion graph diverged by {diff} edges");
            }
        }
        assert!(mismatched_scenes <= 2, "too many boundary flips: {mismatched_scenes}");
    }

    #[test]
    fn candidate_mask_f32_matches_f64_semantics() {
        // viewer 0 is MR; user 2 hides behind MR user 1; user 3 is clear
        let pos =
            [Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(2.0, 0.05), Point2::new(0.0, 3.0)];
        let xs: Vec<f32> = pos.iter().map(|p| p.x as f32).collect();
        let ys: Vec<f32> = pos.iter().map(|p| p.y as f32).collect();
        let g = occlusion_graph_f32(0, &xs, &ys, 0.25);
        let mut d = vec![0.0f32; 4];
        distance_row_f32(xs[0], ys[0], &xs, &ys, &mut d);
        let mr = [true, true, false, false];
        let mask = candidate_mask_f32(0, true, &d, &g, &mr);
        assert!(!mask[0], "viewer excluded");
        assert!(mask[1], "front MR user is a candidate");
        assert!(!mask[2], "user behind a nearer MR participant is pruned");
        assert!(mask[3], "clear user is a candidate");
        // non-MR viewer keeps everyone but herself
        let mask_vr = candidate_mask_f32(0, false, &d, &g, &mr);
        assert_eq!(mask_vr, vec![false, true, true, true]);
    }

    #[test]
    fn shortlist_f32_selects_the_k_nearest_by_distance_then_id() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..20 {
            let n = rng.gen_range(3..40);
            let d: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..9.0) as f32).collect();
            let viewer = rng.gen_range(0..n);
            for k in [1usize, 3, n - 1, n + 2] {
                let got = shortlist_f32(viewer, &d, k);
                let mut want: Vec<u32> = (0..n as u32).filter(|&w| w as usize != viewer).collect();
                want.sort_by(|&a, &b| d[a as usize].total_cmp(&d[b as usize]).then(a.cmp(&b)));
                want.truncate(k);
                want.sort_unstable();
                assert_eq!(got, want, "n={n} k={k} viewer={viewer}");
            }
        }
    }

    #[test]
    fn shortlist_mask_matches_the_full_f32_mask_on_members() {
        // complete shortlist (k = n−1): restricted O(K²) mask bits must
        // equal the full occlusion-graph mask on every member
        let mut rng = StdRng::seed_from_u64(72);
        for _ in 0..20 {
            let n = rng.gen_range(4..14);
            let xs: Vec<f32> = (0..n).map(|_| rng.gen_range(-3.0..3.0) as f32).collect();
            let ys: Vec<f32> = (0..n).map(|_| rng.gen_range(-3.0..3.0) as f32).collect();
            let mr: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let viewer = 0usize;
            let g = occlusion_graph_f32(viewer, &xs, &ys, 0.25);
            let mut d = vec![0.0f32; n];
            distance_row_f32(xs[viewer], ys[viewer], &xs, &ys, &mut d);
            let full = candidate_mask_f32(viewer, true, &d, &g, &mr);
            let ids = shortlist_f32(viewer, &d, n - 1);
            let restricted = candidate_mask_f32_shortlist(viewer, true, &ids, &d, &xs, &ys, 0.25, &mr);
            for (idx, &w) in ids.iter().enumerate() {
                assert_eq!(restricted[idx], full[w as usize], "member {w}");
            }
        }
    }
}
