//! Recurrent graph cells: GRU, T-GCN, and the diffusion-convolutional GRU
//! used by the DCRNN baseline.

use rand::Rng;
use xr_tensor::{init, Matrix, ParamId, ParamStore, Tape, Var};

use crate::layers::{Activation, GcnLayer};

/// A standard GRU cell over per-node feature rows.
///
/// `z = σ(X·Wz + H·Uz + bz)`, `r = σ(X·Wr + H·Ur + br)`,
/// `h̃ = tanh(X·Wh + (r⊙H)·Uh + bh)`, `H' = (1−z)⊙H + z⊙h̃`.
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
    in_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers GRU parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let wz = store.register(format!("{name}.wz"), init::xavier_uniform(in_dim, hidden_dim, rng));
        let uz = store.register(format!("{name}.uz"), init::xavier_uniform(hidden_dim, hidden_dim, rng));
        let wr = store.register(format!("{name}.wr"), init::xavier_uniform(in_dim, hidden_dim, rng));
        let ur = store.register(format!("{name}.ur"), init::xavier_uniform(hidden_dim, hidden_dim, rng));
        let wh = store.register(format!("{name}.wh"), init::xavier_uniform(in_dim, hidden_dim, rng));
        let uh = store.register(format!("{name}.uh"), init::xavier_uniform(hidden_dim, hidden_dim, rng));
        let bz = store.register(format!("{name}.bz"), Matrix::zeros(1, hidden_dim));
        let br = store.register(format!("{name}.br"), Matrix::zeros(1, hidden_dim));
        let bh = store.register(format!("{name}.bh"), Matrix::zeros(1, hidden_dim));
        GruCell { wz, uz, bz, wr, ur, br, wh, uh, bh, in_dim, hidden_dim }
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// One recurrence step: `x (N × in)`, `h (N × hidden)` → new hidden.
    pub fn step<'t>(&self, tape: &'t Tape, store: &ParamStore, x: Var<'t>, h: Var<'t>) -> Var<'t> {
        let p = |id| tape.param(store, id);
        let z = (x.matmul(p(self.wz)) + h.matmul(p(self.uz))).add_row_broadcast(p(self.bz)).sigmoid();
        let r = (x.matmul(p(self.wr)) + h.matmul(p(self.ur))).add_row_broadcast(p(self.br)).sigmoid();
        let h_tilde =
            (x.matmul(p(self.wh)) + (r * h).matmul(p(self.uh))).add_row_broadcast(p(self.bh)).tanh();
        z.one_minus() * h + z * h_tilde
    }
}

/// T-GCN cell \[73\]: a GCN extracts spatial features at each step, a GRU
/// integrates them over time.
#[derive(Debug, Clone)]
pub struct TgcnCell {
    gcn: GcnLayer,
    gru: GruCell,
}

impl TgcnCell {
    /// Registers a T-GCN cell: a GCN mapping `in_dim → spatial_dim`, feeding
    /// a GRU with `hidden_dim` units.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        spatial_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let gcn = GcnLayer::new(store, &format!("{name}.gcn"), in_dim, spatial_dim, Activation::Relu, rng);
        let gru = GruCell::new(store, &format!("{name}.gru"), spatial_dim, hidden_dim, rng);
        TgcnCell { gcn, gru }
    }

    /// Hidden dimension of the temporal state.
    pub fn hidden_dim(&self) -> usize {
        self.gru.hidden_dim()
    }

    /// One step: spatial convolution then temporal gating.
    pub fn step<'t>(
        &self,
        tape: &'t Tape,
        store: &ParamStore,
        x: Var<'t>,
        adj: Var<'t>,
        h: Var<'t>,
    ) -> Var<'t> {
        let spatial = self.gcn.forward(tape, store, x, adj);
        self.gru.step(tape, store, spatial, h)
    }
}

/// K-step diffusion convolution (the spatial operator of DCRNN \[72\]):
/// `DC(X) = Σ_{k=0..K} P^k X W_k`, with `P` the row-normalized transition
/// matrix of the graph. Bidirectionality degenerates to one direction on our
/// undirected occlusion graphs.
#[derive(Debug, Clone)]
pub struct DiffusionConv {
    weights: Vec<ParamId>,
    bias: ParamId,
    k: usize,
    out_dim: usize,
}

impl DiffusionConv {
    /// Registers a diffusion convolution with `k + 1` hop weights.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weights = (0..=k)
            .map(|i| store.register(format!("{name}.w{i}"), init::xavier_uniform(in_dim, out_dim, rng)))
            .collect();
        let bias = store.register(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        DiffusionConv { weights, bias, k, out_dim }
    }

    /// Diffusion order `K`.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Forward: `x (N × in)`, `transition` the row-normalized `N × N` random
    /// walk matrix `P`. Applies `Σ_k P^k X W_k` by iterated multiplication.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        store: &ParamStore,
        x: Var<'t>,
        transition: Var<'t>,
    ) -> Var<'t> {
        let mut diffused = x;
        let mut acc = x.matmul(tape.param(store, self.weights[0]));
        for w in &self.weights[1..] {
            diffused = transition.matmul(diffused);
            acc = acc + diffused.matmul(tape.param(store, *w));
        }
        acc.add_row_broadcast(tape.param(store, self.bias))
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Diffusion-convolutional GRU cell — the recurrent kernel of DCRNN \[72\]:
/// every affine map inside the GRU is replaced by a diffusion convolution.
#[derive(Debug, Clone)]
pub struct DcGruCell {
    dc_z: DiffusionConv,
    dc_r: DiffusionConv,
    dc_h: DiffusionConv,
    hidden_dim: usize,
}

impl DcGruCell {
    /// Registers the three gate convolutions; each consumes `[x ‖ h]`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let cat = in_dim + hidden_dim;
        DcGruCell {
            dc_z: DiffusionConv::new(store, &format!("{name}.z"), cat, hidden_dim, k, rng),
            dc_r: DiffusionConv::new(store, &format!("{name}.r"), cat, hidden_dim, k, rng),
            dc_h: DiffusionConv::new(store, &format!("{name}.h"), cat, hidden_dim, k, rng),
            hidden_dim,
        }
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// One step with transition matrix `p` (row-normalized adjacency).
    pub fn step<'t>(
        &self,
        tape: &'t Tape,
        store: &ParamStore,
        x: Var<'t>,
        p: Var<'t>,
        h: Var<'t>,
    ) -> Var<'t> {
        let xh = tape.concat_cols(&[x, h]);
        let z = self.dc_z.forward(tape, store, xh, p).sigmoid();
        let r = self.dc_r.forward(tape, store, xh, p).sigmoid();
        let x_rh = tape.concat_cols(&[x, r * h]);
        let h_tilde = self.dc_h.forward(tape, store, x_rh, p).tanh();
        z.one_minus() * h + z * h_tilde
    }
}

/// Row-normalized transition matrix `P = D⁻¹A` from a dense adjacency;
/// isolated nodes get a zero row (they receive no diffusion).
pub fn transition_matrix(adj: &Matrix) -> Matrix {
    let (n, m) = adj.shape();
    assert_eq!(n, m, "adjacency must be square");
    let mut out = Matrix::zeros(n, n);
    for r in 0..n {
        let deg: f64 = adj.row(r).iter().sum();
        if deg > 0.0 {
            for c in 0..n {
                out[(r, c)] = adj[(r, c)] / deg;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xr_tensor::{Adam, Optimizer};

    #[test]
    fn gru_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 3, 5, &mut rng);
        assert_eq!(cell.hidden_dim(), 5);
        assert_eq!(cell.in_dim(), 3);
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(4, 3));
        let h = tape.constant(Matrix::zeros(4, 5));
        let h2 = cell.step(&tape, &store, x, h);
        assert_eq!(h2.shape(), (4, 5));
        assert!(h2.value().all_finite());
    }

    #[test]
    fn gru_state_is_bounded() {
        // tanh candidate + convex gate keeps |h| <= 1 when starting at 0
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 2, 4, &mut rng);
        let tape = Tape::new();
        let mut h = tape.constant(Matrix::zeros(3, 4));
        for step in 0..10 {
            let x = tape.constant(Matrix::full(3, 2, (step as f64).sin() * 5.0));
            h = cell.step(&tape, &store, x, h);
        }
        assert!(h.value().max_abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn gru_can_learn_to_remember() {
        // Memorize the first input and ignore a later distractor.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 1, 4, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(4);
        let readout = crate::layers::Dense::new(&mut store, "read", 4, 1, Activation::None, &mut rng2);
        let mut adam = Adam::with_lr(0.03);
        let mut last = f64::INFINITY;
        for it in 0..400 {
            let signal = if it % 2 == 0 { 1.0 } else { -1.0 };
            let tape = Tape::new();
            let mut h = tape.constant(Matrix::zeros(1, 4));
            let x0 = tape.constant(Matrix::full(1, 1, signal));
            h = cell.step(&tape, &store, x0, h);
            let distractor = tape.constant(Matrix::full(1, 1, 0.0));
            h = cell.step(&tape, &store, distractor, h);
            let y = readout.forward(&tape, &store, h);
            let target = tape.constant(Matrix::full(1, 1, signal));
            let diff = y - target;
            let loss = (diff * diff).sum();
            last = loss.scalar();
            loss.backward(&mut store);
            adam.step(&mut store);
        }
        assert!(last < 0.05, "GRU failed to remember: {last}");
    }

    #[test]
    fn tgcn_step_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let cell = TgcnCell::new(&mut store, "tgcn", 4, 6, 8, &mut rng);
        assert_eq!(cell.hidden_dim(), 8);
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(5, 4));
        let a = tape.constant(Matrix::zeros(5, 5));
        let h = tape.constant(Matrix::zeros(5, 8));
        let h2 = cell.step(&tape, &store, x, a, h);
        assert_eq!(h2.shape(), (5, 8));
    }

    #[test]
    fn transition_matrix_rows_sum_to_one_or_zero() {
        let adj = Matrix::from_vec(3, 3, vec![0., 1., 1., 1., 0., 0., 1., 0., 0.]).unwrap();
        let p = transition_matrix(&adj);
        let row0: f64 = p.row(0).iter().sum();
        let row1: f64 = p.row(1).iter().sum();
        assert!((row0 - 1.0).abs() < 1e-12);
        assert!((row1 - 1.0).abs() < 1e-12);
        // isolated node: zero row
        let adj2 = Matrix::zeros(2, 2);
        let p2 = transition_matrix(&adj2);
        assert_eq!(p2.row(0).iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn diffusion_conv_order_zero_is_dense() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let dc = DiffusionConv::new(&mut store, "dc", 2, 3, 0, &mut rng);
        assert_eq!(dc.order(), 0);
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(4, 2));
        let p = tape.constant(Matrix::zeros(4, 4));
        let y = dc.forward(&tape, &store, x, p);
        assert_eq!(y.shape(), (4, 3));
    }

    #[test]
    fn diffusion_conv_uses_neighbors_at_order_one() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let dc = DiffusionConv::new(&mut store, "dc", 1, 1, 1, &mut rng);
        let x_mat = Matrix::from_vec(2, 1, vec![1.0, 0.0]).unwrap();
        let p_full = transition_matrix(&Matrix::from_vec(2, 2, vec![0., 1., 1., 0.]).unwrap());

        let run = |p_mat: Matrix| {
            let tape = Tape::new();
            let x = tape.constant(x_mat.clone());
            let p = tape.constant(p_mat);
            dc.forward(&tape, &store, x, p).value()
        };
        let with_edge = run(p_full);
        let without = run(Matrix::zeros(2, 2));
        // node 1's output must differ when it can see node 0's feature
        assert!((with_edge[(1, 0)] - without[(1, 0)]).abs() > 1e-9);
    }

    #[test]
    fn dcgru_step_shapes_and_boundedness() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let cell = DcGruCell::new(&mut store, "dcgru", 3, 6, 2, &mut rng);
        assert_eq!(cell.hidden_dim(), 6);
        let tape = Tape::new();
        let p = tape.constant(transition_matrix(
            &Matrix::from_vec(4, 4, vec![0., 1., 0., 0., 1., 0., 1., 0., 0., 1., 0., 1., 0., 0., 1., 0.])
                .unwrap(),
        ));
        let mut h = tape.constant(Matrix::zeros(4, 6));
        for _ in 0..5 {
            let x = tape.constant(Matrix::full(4, 3, 2.0));
            h = cell.step(&tape, &store, x, p, h);
        }
        assert_eq!(h.shape(), (4, 6));
        assert!(h.value().max_abs() <= 1.0 + 1e-9);
    }
}
