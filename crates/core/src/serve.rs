//! The f32 serving path for POSHGNN inference (no tape, no f64).
//!
//! Training and the golden-replay harness stay on the f64 tape stack in
//! [`crate::model`]; this module is the lean twin that a recommend step runs
//! when [`crate::PoshGnnConfig::serve_f32`] is on. The trained weights are
//! down-converted once at activation ([`ServeNet::from_layers`]), and the
//! context's precomputed scene (occlusion graph, distance row, candidate
//! mask) is down-converted once per tick ([`ServeEpisode`]), and tick
//! `t − 1`'s degree propagation is reused for `Δ_t` as the f64 path's MIA
//! carry does. A step then
//! runs the f32 MIA feature recipe and the PDR/LWP forward pass entirely on
//! the `xr_tensor::serve32` kernels; only the returned soft scores are
//! upcast to `f64` at the API boundary.
//!
//! The f32 stream is pinned against the f64 stream by the `ServeF32VsF64`
//! differential subject in `xr_check` (tolerance + top-k-overlap oracle, per
//! DESIGN.md §9) rather than bit equality.

use xr_gnn::{Activation, GcnLayer};
use xr_graph::UGraph;
use xr_tensor::serve32::{CsrF32, MatrixF32};
use xr_tensor::ParamStore;

use crate::model::PoshVariant;
use crate::problem::TargetContext;

/// One GCN layer's weights down-converted for serving.
pub struct ServeLayer {
    w_self: MatrixF32,
    w_neigh: MatrixF32,
    bias: Vec<f32>,
    activation: Activation,
}

impl ServeLayer {
    /// Down-converts a trained [`GcnLayer`]'s parameters from the store.
    pub fn from_gcn(store: &ParamStore, layer: &GcnLayer) -> Self {
        let (w_self_id, w_neigh_id, bias_id) = layer.param_ids();
        ServeLayer {
            w_self: MatrixF32::from_f64(store.value(w_self_id)),
            w_neigh: MatrixF32::from_f64(store.value(w_neigh_id)),
            bias: store.value(bias_id).as_slice().iter().map(|&v| v as f32).collect(),
            activation: layer.activation(),
        }
    }

    /// Forward pass `act(H·W₁ + (agg·H)·W₂ + b)` on the f32 kernels,
    /// aggregating after the projection — `agg·(H·W₂)` — so the SpMM walks
    /// the occlusion edges at the layer's output width (the hidden width,
    /// or one mat-vec column) whatever its input width.
    pub fn forward(&self, h: &MatrixF32, agg: &CsrF32) -> MatrixF32 {
        let _span = xr_obs::span!("poshgnn.serve.layer");
        let mut own = h.matmul(&self.w_self);
        let neigh = agg.matmul_dense(&h.matmul(&self.w_neigh));
        let cols = own.cols();
        let act = self.activation;
        for (orow, nrow) in own.as_mut_slice().chunks_exact_mut(cols).zip(neigh.as_slice().chunks_exact(cols))
        {
            for ((o, &ne), &b) in orow.iter_mut().zip(nrow).zip(&self.bias) {
                *o = act.apply_f32(*o + ne + b);
            }
        }
        own
    }
}

/// The full POSHGNN forward stack in f32: PDR + LWP weights plus the
/// variant/hidden configuration. Built once per trained snapshot and
/// invalidated by the owning model whenever parameters change.
pub struct ServeNet {
    pdr1: ServeLayer,
    pdr2: ServeLayer,
    lwp1: ServeLayer,
    lwp2: ServeLayer,
    lwp3: ServeLayer,
    variant: PoshVariant,
}

impl ServeNet {
    /// Down-converts the five GCN layers of a POSHGNN model.
    #[allow(clippy::too_many_arguments)] // internal: one arg per layer
    pub fn from_layers(
        store: &ParamStore,
        pdr1: &GcnLayer,
        pdr2: &GcnLayer,
        lwp1: &GcnLayer,
        lwp2: &GcnLayer,
        lwp3: &GcnLayer,
        variant: PoshVariant,
    ) -> Self {
        ServeNet {
            pdr1: ServeLayer::from_gcn(store, pdr1),
            pdr2: ServeLayer::from_gcn(store, pdr2),
            lwp1: ServeLayer::from_gcn(store, lwp1),
            lwp2: ServeLayer::from_gcn(store, lwp2),
            lwp3: ServeLayer::from_gcn(store, lwp3),
            variant,
        }
    }
}

/// One tick's scene quantities down-converted to f32: the MIA inputs a step
/// needs, derived from the context's precomputed f64 scene exactly once.
struct SceneTick {
    /// Target-row distances, `ctx.distances[t]` as f32.
    distances: Vec<f32>,
    /// Candidate mask as 0/1 weights.
    mask_f: Vec<f32>,
    /// Occlusion-graph degrees `A_t·1`.
    deg: Vec<f32>,
    /// One-hop degree propagation `A_t·(A_t·1)` (for MIA's `Δ_t`).
    a_deg: Vec<f32>,
    /// Mean-aggregation operator `D⁻¹A_t` as f32 CSR.
    agg: CsrF32,
}

impl SceneTick {
    fn build(ctx: &TargetContext, t: usize) -> SceneTick {
        let n = ctx.n;
        let g = &ctx.occlusion[t];
        let deg: Vec<f32> = (0..n).map(|v| g.degree(v) as f32).collect();
        let (agg, a_deg) = aggregation_f32(g, &deg);
        SceneTick {
            distances: ctx.distances[t].iter().map(|&d| d as f32).collect(),
            mask_f: ctx.candidate_mask[t].iter().map(|&m| if m { 1.0 } else { 0.0 }).collect(),
            deg,
            a_deg,
            agg,
        }
    }
}

/// Per-episode f32 serving state: the episode-constant inputs converted
/// once, the per-tick scene conversions cached (each tick's occlusion
/// graph, distances, and mask are down-converted the first time the tick is
/// stepped), and the recurrent `(h, r)` state.
pub struct ServeEpisode {
    n: usize,
    room_diagonal: f32,
    preference: Vec<f32>,
    social: Vec<f32>,
    mr_flag: Vec<f32>,
    h_prev: MatrixF32,
    r_prev: MatrixF32,
    scene: Vec<Option<SceneTick>>,
}

impl ServeEpisode {
    /// Converts the episode-constant context inputs to f32 and zeroes the
    /// recurrent state.
    pub fn new(ctx: &TargetContext, hidden: usize) -> Self {
        let n = ctx.n;
        let zero_target = |u: &[f64]| -> Vec<f32> {
            (0..n).map(|w| if w == ctx.target { 0.0 } else { u[w] as f32 }).collect()
        };
        ServeEpisode {
            n,
            room_diagonal: ctx.room_diagonal as f32,
            preference: zero_target(&ctx.preference),
            social: zero_target(&ctx.social),
            mr_flag: ctx.mr_mask.iter().map(|&m| if m { 1.0 } else { 0.0 }).collect(),
            h_prev: MatrixF32::zeros(n, hidden),
            r_prev: MatrixF32::zeros(n, 1),
            scene: (0..ctx.occlusion.len()).map(|_| None).collect(),
        }
    }

    /// Number of users this episode state was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Takes over `prev`'s recurrent `(h, r)` state: a context switch
    /// inside an episode re-derives the inputs but carries the recurrence.
    pub(crate) fn carry_state_from(&mut self, prev: ServeEpisode) {
        assert_eq!(prev.n, self.n, "recurrent state of another size");
        self.h_prev = prev.h_prev;
        self.r_prev = prev.r_prev;
    }

    fn ensure_scene(&mut self, ctx: &TargetContext, t: usize) {
        if self.scene[t].is_none() {
            let timer = xr_obs::start_timer();
            self.scene[t] = Some(SceneTick::build(ctx, t));
            xr_obs::observe_since("poshgnn.serve.scene_downconvert.ms", &[], timer);
            xr_obs::counter_add("poshgnn.serve.scene_downconvert", &[], 1);
        }
    }

    /// One f32 recommend step at tick `t`: down-convert the tick's scene if
    /// this is its first visit, run the MIA feature recipe and the forward
    /// pass on the f32 kernels, advance the recurrent state, and return the
    /// soft scores upcast to f64.
    pub fn step(&mut self, net: &ServeNet, ctx: &TargetContext, t: usize) -> Vec<f64> {
        let n = self.n;
        self.ensure_scene(ctx, t);
        if t > 0 {
            self.ensure_scene(ctx, t - 1);
        }
        let scene = self.scene[t].as_ref().expect("scene ensured above");
        let prev = if t > 0 { self.scene[t - 1].as_ref() } else { None };
        let inv_n = 1.0 / n as f32;

        let raw = net.variant == PoshVariant::PdrOnly;
        let mut features = MatrixF32::zeros(n, 4);
        {
            let f = features.as_mut_slice();
            for r in 0..n {
                if raw {
                    // the ablation's raw features: no masking, absolute distance
                    f[r * 4] = self.preference[r];
                    f[r * 4 + 1] = self.social[r];
                    f[r * 4 + 2] = scene.distances[r];
                } else {
                    f[r * 4] = self.preference[r] * scene.mask_f[r];
                    f[r * 4 + 1] = self.social[r] * scene.mask_f[r];
                    f[r * 4 + 2] = (scene.distances[r] / self.room_diagonal).min(1.0);
                }
                f[r * 4 + 3] = self.mr_flag[r];
            }
        }

        // --- forward: PDR, then the LWP gate per variant
        let h_t = net.pdr1.forward(&features, &scene.agg);
        let r_tilde = net.pdr2.forward(&h_t, &scene.agg);
        let r_t = match net.variant {
            PoshVariant::PdrOnly => r_tilde,
            PoshVariant::PdrWithMia => {
                let mut r = r_tilde;
                let s = r.as_mut_slice();
                for (v, &m) in s.iter_mut().zip(&scene.mask_f) {
                    *v *= m;
                }
                r
            }
            PoshVariant::Full => {
                // MIA's Δ_t difference embeddings from this and the previous
                // tick's cached degree propagation
                let mut delta = MatrixF32::zeros(n, 3);
                {
                    let d = delta.as_mut_slice();
                    for r in 0..n {
                        let (pd, pa) = match prev {
                            Some(p) => (p.deg[r], p.a_deg[r]),
                            None => (0.0, 0.0),
                        };
                        d[r * 3] = 1.0;
                        d[r * 3 + 1] = (scene.deg[r] - pd) * inv_n;
                        d[r * 3 + 2] = (scene.a_deg[r] - pa) * inv_n;
                    }
                }
                let lwp_in = concat_cols(&[&features, &delta, &self.h_prev, &self.r_prev]);
                let z1 = net.lwp1.forward(&lwp_in, &scene.agg);
                let z2 = net.lwp2.forward(&z1, &scene.agg);
                let sigma = net.lwp3.forward(&z2, &scene.agg);
                // preservation gate r_t = m ⊗ [(1−σ)⊗r̃ + σ⊗r_prev]
                let mut r = MatrixF32::zeros(n, 1);
                {
                    let out = r.as_mut_slice();
                    let s = sigma.as_slice();
                    let rt = r_tilde.as_slice();
                    let rp = self.r_prev.as_slice();
                    for i in 0..n {
                        out[i] = scene.mask_f[i] * ((1.0 - s[i]) * rt[i] + s[i] * rp[i]);
                    }
                }
                r
            }
        };

        let out: Vec<f64> = r_t.as_slice().iter().map(|&v| v as f64).collect();
        self.h_prev = h_t;
        self.r_prev = r_t;
        out
    }
}

/// Row-normalized f32 CSR (`D⁻¹A`) of an occlusion graph — the GNN mean
/// aggregation operator — and the degree propagation `A·deg`, filled in one
/// pass over the neighbor lists. Neighbor lists are ascending, so the CSR is
/// valid by construction.
fn aggregation_f32(g: &UGraph, deg: &[f32]) -> (CsrF32, Vec<f32>) {
    let n = g.node_count();
    let mut a_deg = Vec::with_capacity(n);
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(2 * g.edge_count());
    let mut vals = Vec::with_capacity(2 * g.edge_count());
    for v in 0..n {
        let neigh = g.neighbors(v);
        a_deg.push(neigh.iter().map(|&u| deg[u]).sum());
        col_idx.extend_from_slice(neigh);
        vals.resize(col_idx.len(), 1.0 / neigh.len() as f32);
        row_ptr.push(col_idx.len());
    }
    (CsrF32::from_parts(n, n, row_ptr, col_idx, vals), a_deg)
}

/// Column-wise concatenation of f32 matrices with equal row counts.
fn concat_cols(parts: &[&MatrixF32]) -> MatrixF32 {
    let rows = parts[0].rows();
    let cols: usize = parts.iter().map(|p| p.cols()).sum();
    let mut out = MatrixF32::zeros(rows, cols);
    {
        let o = out.as_mut_slice();
        for r in 0..rows {
            let mut c0 = 0;
            for p in parts {
                let pc = p.cols();
                o[r * cols + c0..r * cols + c0 + pc].copy_from_slice(p.row(r));
                c0 += pc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_matches_f64_definitions() {
        for &v in &[-2.0f32, -0.5, 0.0, 0.5, 2.0] {
            assert_eq!(Activation::None.apply_f32(v), v);
            assert_eq!(Activation::Relu.apply_f32(v), v.max(0.0));
            let s64 = 1.0 / (1.0 + (-(v as f64)).exp());
            assert!((Activation::Sigmoid.apply_f32(v) as f64 - s64).abs() < 1e-6);
            assert!((Activation::Tanh.apply_f32(v) as f64 - (v as f64).tanh()).abs() < 1e-6);
        }
    }

    #[test]
    fn concat_cols_interleaves_rows() {
        let a = MatrixF32::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = MatrixF32::from_vec(2, 1, vec![9.0, 8.0]);
        let c = concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.as_slice(), &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn aggregation_rows_sum_to_one_or_zero() {
        let g = UGraph::from_edges(4, [(0, 1), (0, 2), (1, 2)]);
        let (csr, a_deg) = aggregation_f32(&g, &[2.0, 2.0, 2.0, 0.0]);
        // every non-isolated node's neighbors all have degree 2
        assert_eq!(a_deg, [4.0, 4.0, 4.0, 0.0]);
        // row 0 has two neighbors at weight 0.5 each; row 3 is empty
        let ones = MatrixF32::from_vec(4, 1, vec![1.0; 4]);
        let sums = csr.matmul_dense(&ones);
        assert!((sums[(0, 0)] - 1.0).abs() < 1e-6);
        assert!((sums[(1, 0)] - 1.0).abs() < 1e-6);
        assert_eq!(sums[(3, 0)], 0.0);
    }
}
