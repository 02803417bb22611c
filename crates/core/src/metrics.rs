//! The AFTER utility (Defs. 2–3) and the evaluation metrics of §V-A.4.

use crate::problem::TargetContext;

/// Accumulated evaluation metrics for one target user over a full episode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilityBreakdown {
    /// Total AFTER utility `Σ_t Σ_{w ∈ F_t(v)} u_t(v, w)` (Def. 3).
    pub after_utility: f64,
    /// Preference component `Σ_t Σ_w 1[v ⇒_t w] · p(v,w)` (unweighted by β,
    /// as reported in the paper's "Preference" rows).
    pub preference: f64,
    /// Social-presence component
    /// `Σ_t Σ_w 1[v ⇒_{t-1} w]·1[v ⇒_t w] · s(v,w)`.
    pub social_presence: f64,
    /// Mean fraction of *recommended* users that end up occluded
    /// (averaged over steps that recommended at least one user).
    pub view_occlusion_rate: f64,
    /// Mean number of users recommended per step.
    pub mean_recommended: f64,
}

/// Evaluates a full recommendation sequence (`recs[t][w]`, `t ∈ 0..=T`)
/// against the AFTER utility.
///
/// `1[v ⇒_t w]` holds when `w` is recommended at `t` and not occluded by any
/// nearer displayed entity (recommended users plus physically present
/// co-located MR participants when the target is MR). `1[v ⇒_{-1} w] = 0`:
/// the conference has not started before `t = 0`.
pub fn evaluate_sequence(ctx: &TargetContext, recs: &[Vec<bool>]) -> UtilityBreakdown {
    assert_eq!(recs.len(), ctx.t_max() + 1, "need one recommendation per time step");
    let n = ctx.n;
    let mut out = UtilityBreakdown::default();
    let mut prev_visible = vec![false; n];
    let mut occl_sum = 0.0;
    let mut occl_steps = 0usize;
    let mut total_rec = 0usize;

    for (t, rec) in recs.iter().enumerate() {
        assert_eq!(rec.len(), n, "recommendation length mismatch at t={t}");
        let vis = ctx.visibility(t, rec);
        let mut rec_count = 0usize;
        let mut occluded = 0usize;
        for w in 0..n {
            if w == ctx.target || !rec[w] {
                continue;
            }
            rec_count += 1;
            let see_now = vis[w];
            if see_now {
                out.preference += ctx.preference[w];
                if prev_visible[w] {
                    out.social_presence += ctx.social[w];
                }
            } else {
                occluded += 1;
            }
            let u = (1.0 - ctx.beta) * (see_now as u8 as f64) * ctx.preference[w]
                + ctx.beta * (prev_visible[w] as u8 as f64) * (see_now as u8 as f64) * ctx.social[w];
            out.after_utility += u;
        }
        if rec_count > 0 {
            occl_sum += occluded as f64 / rec_count as f64;
            occl_steps += 1;
        }
        total_rec += rec_count;
        prev_visible = vis;
    }

    out.view_occlusion_rate = if occl_steps > 0 { occl_sum / occl_steps as f64 } else { 0.0 };
    out.mean_recommended = total_rec as f64 / recs.len() as f64;
    out
}

impl UtilityBreakdown {
    /// Component identity: `after = (1-β)·preference + β·social_presence`.
    pub fn consistent_with_beta(&self, beta: f64, tol: f64) -> bool {
        ((1.0 - beta) * self.preference + beta * self.social_presence - self.after_utility).abs() <= tol
    }

    /// Averages a slice of breakdowns (e.g. across target users).
    pub fn mean(items: &[UtilityBreakdown]) -> UtilityBreakdown {
        if items.is_empty() {
            return UtilityBreakdown::default();
        }
        let k = items.len() as f64;
        UtilityBreakdown {
            after_utility: items.iter().map(|b| b.after_utility).sum::<f64>() / k,
            preference: items.iter().map(|b| b.preference).sum::<f64>() / k,
            social_presence: items.iter().map(|b| b.social_presence).sum::<f64>() / k,
            view_occlusion_rate: items.iter().map(|b| b.view_occlusion_rate).sum::<f64>() / k,
            mean_recommended: items.iter().map(|b| b.mean_recommended).sum::<f64>() / k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_crowd::Room;
    use xr_datasets::{Interface, Scenario};
    use xr_graph::geom::Point2;

    /// Target 0 (VR) with users 1 (near east), 2 (behind 1), 3 (north).
    fn scenario() -> Scenario {
        let positions =
            vec![Point2::new(5.0, 5.0), Point2::new(6.0, 5.0), Point2::new(7.0, 5.02), Point2::new(5.0, 8.0)];
        Scenario {
            dataset: "unit".into(),
            participants: vec![0, 1, 2, 3],
            interfaces: vec![Interface::Vr; 4],
            preference: vec![vec![0.0, 0.4, 0.9, 0.6], vec![0.0; 4], vec![0.0; 4], vec![0.0; 4]],
            social: vec![vec![0.0, 0.0, 0.8, 0.5], vec![0.0; 4], vec![0.0; 4], vec![0.0; 4]],
            trajectories: vec![positions.clone(), positions.clone(), positions],
            room: Room::new(10.0, 10.0),
            body_radius: 0.25,
        }
    }

    fn ctx(beta: f64) -> TargetContext {
        TargetContext::new(&scenario(), 0, beta)
    }

    #[test]
    fn empty_recommendation_scores_zero() {
        let c = ctx(0.5);
        let recs = vec![vec![false; 4]; 3];
        let b = evaluate_sequence(&c, &recs);
        assert_eq!(b.after_utility, 0.0);
        assert_eq!(b.view_occlusion_rate, 0.0);
        assert_eq!(b.mean_recommended, 0.0);
    }

    #[test]
    fn visible_preference_accumulates_each_step() {
        let c = ctx(0.0); // β = 0: pure preference
        let rec = vec![false, false, false, true]; // user 3, always clear
        let recs = vec![rec.clone(), rec.clone(), rec];
        let b = evaluate_sequence(&c, &recs);
        assert!((b.preference - 3.0 * 0.6).abs() < 1e-12);
        assert!((b.after_utility - 1.8).abs() < 1e-12);
        assert_eq!(b.view_occlusion_rate, 0.0);
        assert!(b.consistent_with_beta(0.0, 1e-9));
    }

    #[test]
    fn social_presence_needs_consecutive_visibility() {
        let c = ctx(1.0); // β = 1: pure social presence
        let rec = vec![false, false, false, true]; // friend 3, s = 0.5
                                                   // visible at t=0,1,2 → SP counted at t=1 and t=2 only (t=0 has no past)
        let recs = vec![rec.clone(), rec.clone(), rec.clone()];
        let b = evaluate_sequence(&c, &recs);
        assert!((b.social_presence - 2.0 * 0.5).abs() < 1e-12);
        // interrupting visibility resets the streak
        let recs = vec![rec.clone(), vec![false; 4], rec];
        let b = evaluate_sequence(&c, &recs);
        assert_eq!(b.social_presence, 0.0);
    }

    #[test]
    fn occluded_recommendation_yields_nothing_but_counts_as_occlusion() {
        let c = ctx(0.0);
        // recommend both 1 (front) and 2 (behind 1): 2 is occluded
        let rec = vec![false, true, true, false];
        let recs = vec![rec.clone(), rec.clone(), rec];
        let b = evaluate_sequence(&c, &recs);
        assert!((b.preference - 3.0 * 0.4).abs() < 1e-12, "only front user scores");
        assert!((b.view_occlusion_rate - 0.5).abs() < 1e-12);
        assert_eq!(b.mean_recommended, 2.0);
    }

    #[test]
    fn beta_blends_components() {
        let c = ctx(0.5);
        let rec = vec![false, false, false, true];
        let recs = vec![rec.clone(), rec.clone(), rec];
        let b = evaluate_sequence(&c, &recs);
        assert!(b.consistent_with_beta(0.5, 1e-9));
        assert!((b.after_utility - (0.5 * 1.8 + 0.5 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn mean_aggregates() {
        let a = UtilityBreakdown { after_utility: 2.0, preference: 4.0, ..Default::default() };
        let b = UtilityBreakdown { after_utility: 4.0, preference: 0.0, ..Default::default() };
        let m = UtilityBreakdown::mean(&[a, b]);
        assert_eq!(m.after_utility, 3.0);
        assert_eq!(m.preference, 2.0);
        assert_eq!(UtilityBreakdown::mean(&[]), UtilityBreakdown::default());
    }

    #[test]
    #[should_panic(expected = "one recommendation per time step")]
    fn wrong_length_panics() {
        evaluate_sequence(&ctx(0.5), &[vec![false; 4]]);
    }
}
