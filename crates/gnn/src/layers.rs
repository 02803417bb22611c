//! Core neural layers: dense (MLP) and graph-convolution layers.

use rand::Rng;
use xr_graph::UGraph;
use xr_tensor::{init, Matrix, ParamId, ParamStore, SparseVar, Tape, Var};

/// Activation applied after a layer's affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit — the paper's `δ` in Eq. 1.
    Relu,
    /// Logistic sigmoid (used for probability outputs `r̃_t`, `σ`).
    Sigmoid,
    /// Hyperbolic tangent (used inside GRU cells).
    Tanh,
}

impl Activation {
    /// Applies the activation to a tape node.
    pub fn apply<'t>(&self, x: Var<'t>) -> Var<'t> {
        match self {
            Activation::None => x,
            Activation::Relu => x.relu(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Tanh => x.tanh(),
        }
    }

    /// The equivalent [`xr_tensor::Nonlinearity`] for fused epilogues.
    pub fn nonlinearity(&self) -> xr_tensor::Nonlinearity {
        match self {
            Activation::None => xr_tensor::Nonlinearity::None,
            Activation::Relu => xr_tensor::Nonlinearity::Relu,
            Activation::Sigmoid => xr_tensor::Nonlinearity::Sigmoid,
            Activation::Tanh => xr_tensor::Nonlinearity::Tanh,
        }
    }
}

/// A fully connected layer `act(X·W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: ParamId,
    bias: ParamId,
    activation: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Registers a dense layer's parameters (Xavier-initialized weight,
    /// zero bias).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let weight = store.register(format!("{name}.weight"), init::xavier_uniform(in_dim, out_dim, rng));
        let bias = store.register(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        Dense { weight, bias, activation, in_dim, out_dim }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass for a batch `x` of shape `(batch, in_dim)`.
    pub fn forward<'t>(&self, tape: &'t Tape, store: &ParamStore, x: Var<'t>) -> Var<'t> {
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        self.activation.apply(x.matmul(w).add_row_broadcast(b))
    }
}

/// A stack of dense layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes; `activations.len()` must be
    /// `dims.len() - 1`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        activations: &[Activation],
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least one layer");
        assert_eq!(activations.len(), dims.len() - 1, "one activation per layer");
        let layers = (0..dims.len() - 1)
            .map(|i| Dense::new(store, &format!("{name}.{i}"), dims[i], dims[i + 1], activations[i], rng))
            .collect();
        Mlp { layers }
    }

    /// Forward pass through all layers.
    pub fn forward<'t>(&self, tape: &'t Tape, store: &ParamStore, mut x: Var<'t>) -> Var<'t> {
        for layer in &self.layers {
            x = layer.forward(tape, store, x);
        }
        x
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// The paper's graph-convolution layer (Eq. 1):
///
/// `h^{l+1}_{w} = δ( M₁ · h^l_w + M₂ · Σ_{(w,u) ∈ E} h^l_u )`
///
/// In batched matrix form over node features `H (N × d)` and adjacency
/// `A (N × N)`: `act(H·W₁ + A·H·W₂ + b)`.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    w_self: ParamId,
    w_neigh: ParamId,
    bias: ParamId,
    activation: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl GcnLayer {
    /// Registers the layer parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let w_self = store.register(format!("{name}.w_self"), init::xavier_uniform(in_dim, out_dim, rng));
        let w_neigh = store.register(format!("{name}.w_neigh"), init::xavier_uniform(in_dim, out_dim, rng));
        let bias = store.register(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        GcnLayer { w_self, w_neigh, bias, activation, in_dim, out_dim }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Overwrites the bias with a constant — e.g. a negative value before a
    /// sigmoid output so nodes default to "not recommended" until evidence
    /// accumulates.
    pub fn set_bias(&self, store: &mut ParamStore, value: f64) {
        store.value_mut(self.bias).fill(value);
    }

    /// Forward pass: `h (N × in_dim)`, `adj` the `N × N` sparse adjacency
    /// operand. The `A·H` aggregation is an SpMM at O(nnz·d).
    pub fn forward<'t>(&self, tape: &'t Tape, store: &ParamStore, h: Var<'t>, adj: SparseVar<'t>) -> Var<'t> {
        let w1 = tape.param(store, self.w_self);
        let w2 = tape.param(store, self.w_neigh);
        let b = tape.param(store, self.bias);
        let own = h.matmul(w1);
        let neigh = adj.matmul(h).matmul(w2);
        // fused epilogue: bit-identical to
        // `self.activation.apply((own + neigh).add_row_broadcast(b))`
        own.sum_bias_act(neigh, b, self.activation.nonlinearity())
    }

    /// Tape-free forward for serving: the value [`GcnLayer::forward`]
    /// computes with `graph`'s mean aggregation `D⁻¹A`
    /// ([`UGraph::adjacency_norm_csr`]) as `adj`, bit for bit, written into
    /// `out` without building the operator or any `N × d` intermediate.
    ///
    /// Reads the first `in_dim` columns of each row of `h`; wider rows are
    /// allowed, so a layer can read a prefix of a wider input buffer. `out`
    /// is reshaped to `N × out_dim` if it has another shape. Input widths 4,
    /// 8 and 16 with output widths 1 and 8 (the model's layers at the
    /// paper's hidden width) keep their row accumulators in fixed-size stack
    /// arrays; other widths use `scratch`. A caller that keeps `out` and
    /// `scratch` allocates nothing after the first call.
    ///
    /// Row by row, every entry follows the tape's per-element operation
    /// order: the aggregate sums `(1/deg)·h_j` over the ascending neighbours
    /// starting from `0.0` (as `CsrAdj::matmul_dense_into` does with the
    /// values `row_normalized` stores); `h_i·W_self` and `agg_i·W_neigh`
    /// accumulate over ascending `k` from `0.0`, skipping zero left entries
    /// (as `Matrix::matmul`); the epilogue is `act((own + neigh) + b)` (as
    /// `Var::sum_bias_act`).
    pub fn forward_mean_into(
        &self,
        store: &ParamStore,
        graph: &UGraph,
        h: &Matrix,
        out: &mut Matrix,
        scratch: &mut Vec<f64>,
    ) {
        let (n, din, dout) = (graph.node_count(), self.in_dim, self.out_dim);
        assert_eq!(h.rows(), n, "forward_mean_into: {} input rows for {n} nodes", h.rows());
        assert!(h.cols() >= din, "forward_mean_into: input width {} < in_dim {din}", h.cols());
        if out.shape() != (n, dout) {
            *out = Matrix::zeros(n, dout);
        }
        let rows = MeanRows {
            graph,
            h,
            w_self: store.value(self.w_self).as_slice(),
            w_neigh: store.value(self.w_neigh).as_slice(),
            bias: store.value(self.bias).row(0),
            act: self.activation.nonlinearity(),
        };
        match (din, dout) {
            (4, 1) => rows.run(out, &mut [0.0; 4], &mut [0.0; 1], &mut [0.0; 1]),
            (4, 8) => rows.run(out, &mut [0.0; 4], &mut [0.0; 8], &mut [0.0; 8]),
            (8, 1) => rows.run(out, &mut [0.0; 8], &mut [0.0; 1], &mut [0.0; 1]),
            (8, 8) => rows.run(out, &mut [0.0; 8], &mut [0.0; 8], &mut [0.0; 8]),
            (16, 1) => rows.run(out, &mut [0.0; 16], &mut [0.0; 1], &mut [0.0; 1]),
            (16, 8) => rows.run(out, &mut [0.0; 16], &mut [0.0; 8], &mut [0.0; 8]),
            _ => {
                scratch.clear();
                scratch.resize(din + 2 * dout, 0.0);
                let (agg, rest) = scratch.split_at_mut(din);
                let (own, neigh) = rest.split_at_mut(dout);
                rows.run(out, agg, own, neigh);
            }
        }
    }
}

/// The operands of one [`GcnLayer::forward_mean_into`] call.
struct MeanRows<'a> {
    graph: &'a UGraph,
    h: &'a Matrix,
    w_self: &'a [f64],
    w_neigh: &'a [f64],
    bias: &'a [f64],
    act: xr_tensor::Nonlinearity,
}

impl MeanRows<'_> {
    /// Every output row, with one row's aggregate in `agg` (`in_dim` long)
    /// and its two projections in `own` and `neigh` (`out_dim` long). Always
    /// inlined, so stack arrays passed here fix every loop's trip count.
    #[inline(always)]
    fn run(&self, out: &mut Matrix, agg: &mut [f64], own: &mut [f64], neigh: &mut [f64]) {
        let (din, dout) = (agg.len(), own.len());
        // `x·W` for one row into `acc`: ascending k, zero entries skipped
        let project = |x: &[f64], w: &[f64], acc: &mut [f64]| {
            acc.fill(0.0);
            for (&a, w_row) in x.iter().zip(w.chunks_exact(dout)) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in acc.iter_mut().zip(w_row) {
                    *o += a * b;
                }
            }
        };
        for i in 0..self.graph.node_count() {
            agg.fill(0.0);
            let nbrs = self.graph.neighbors(i);
            if !nbrs.is_empty() {
                let w = 1.0 / nbrs.len() as f64;
                for &j in nbrs {
                    for (a, &x) in agg.iter_mut().zip(&self.h.row(j)[..din]) {
                        *a += w * x;
                    }
                }
            }
            project(&self.h.row(i)[..din], self.w_self, own);
            project(agg, self.w_neigh, neigh);
            for (((o, &s), &nb), &b) in out.row_mut(i).iter_mut().zip(&*own).zip(&*neigh).zip(self.bias) {
                *o = self.act.apply((s + nb) + b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::rc::Rc;
    use xr_tensor::{Adam, CsrAdj, Optimizer};

    /// `adj`'s non-zeros as a sparse operand on `tape`.
    fn sparse<'t>(tape: &'t Tape, adj: &Matrix) -> SparseVar<'t> {
        tape.sparse(Rc::new(CsrAdj::from_dense(adj, 0.0)))
    }

    #[test]
    fn dense_shapes_and_activation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = Dense::new(&mut store, "d", 4, 3, Activation::Relu, &mut rng);
        assert_eq!((layer.in_dim(), layer.out_dim()), (4, 3));
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(5, 4));
        let y = layer.forward(&tape, &store, x);
        assert_eq!(y.shape(), (5, 3));
        assert!(y.value().as_slice().iter().all(|&v| v >= 0.0), "ReLU output must be non-negative");
    }

    #[test]
    fn mlp_depth_and_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "mlp", &[6, 8, 1], &[Activation::Relu, Activation::Sigmoid], &mut rng);
        assert_eq!(mlp.depth(), 2);
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(3, 6));
        let y = mlp.forward(&tape, &store, x);
        assert_eq!(y.shape(), (3, 1));
        assert!(y.value().as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn gcn_isolated_node_ignores_others() {
        // With a zero adjacency row, a node's output depends only on itself.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let gcn = GcnLayer::new(&mut store, "g", 2, 2, Activation::None, &mut rng);

        let features = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let adj_a = Matrix::from_vec(3, 3, vec![0., 0., 0., 0., 0., 1., 0., 1., 0.]).unwrap();

        let tape = Tape::new();
        let h = tape.constant(features.clone());
        let out_a = gcn.forward(&tape, &store, h, sparse(&tape, &adj_a)).value();

        // change the *other* nodes' links; node 0 must be unaffected
        let adj_b = Matrix::zeros(3, 3);
        let tape2 = Tape::new();
        let h2 = tape2.constant(features);
        let out_b = gcn.forward(&tape2, &store, h2, sparse(&tape2, &adj_b)).value();

        for c in 0..2 {
            assert!((out_a[(0, c)] - out_b[(0, c)]).abs() < 1e-12);
        }
        // but connected nodes do change
        assert!((out_a[(1, 0)] - out_b[(1, 0)]).abs() > 1e-9);
    }

    #[test]
    fn gcn_aggregates_neighbor_sum() {
        // Identity weights, zero bias → output = H + A·H exactly.
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let gcn = GcnLayer::new(&mut store, "g", 2, 2, Activation::None, &mut rng);
        // overwrite with identity weights
        *store.value_mut(store.ids().next().unwrap()) = Matrix::identity(2);
        let ids: Vec<_> = store.ids().collect();
        *store.value_mut(ids[1]) = Matrix::identity(2);

        let h_mat = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let a_mat = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let tape = Tape::new();
        let h = tape.constant(h_mat.clone());
        let out = gcn.forward(&tape, &store, h, sparse(&tape, &a_mat)).value();
        let expected = h_mat.add(&a_mat.matmul(&h_mat));
        assert!(out.approx_eq(&expected, 1e-12));
    }

    /// `forward_mean_into` vs `forward` on `adjacency_norm_csr`, bit for
    /// bit; `h` may be wider than the layer's input (a prefix read).
    fn assert_tape_free_matches_tape(layer: &GcnLayer, store: &ParamStore, graph: &UGraph, h: &Matrix) {
        let tape = Tape::new();
        let adj = tape.sparse(Rc::new(graph.adjacency_norm_csr()));
        let input = tape.constant(h.slice_cols(0, layer.in_dim()));
        let want = layer.forward(&tape, store, input, adj).value();
        // a wrongly shaped `out` and a dirty scratch must not matter
        let mut out = Matrix::full(1, 1, f64::NAN);
        let mut scratch = vec![f64::NAN; 3];
        for _ in 0..2 {
            layer.forward_mean_into(store, graph, h, &mut out, &mut scratch);
            assert_eq!(out.shape(), want.shape());
            for (i, (a, b)) in out.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "entry {i}: tape-free {a:?} vs tape {b:?}");
            }
        }
    }

    #[test]
    fn tape_free_forward_is_bitwise_the_sparse_tape_forward() {
        let mut rng = StdRng::seed_from_u64(8);
        // 0 and 6 isolated; 3's input row all zeros; a few zero entries
        let graph = UGraph::from_edges(7, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (2, 5), (1, 5)]);
        let mut h = Matrix::from_fn(7, 17, |_, _| rng.gen_range(-1.5..1.5));
        h.row_mut(3).fill(0.0);
        h[(1, 0)] = 0.0;
        h[(5, 2)] = -0.0;
        for (i, act) in [Activation::None, Activation::Relu, Activation::Sigmoid, Activation::Tanh]
            .into_iter()
            .enumerate()
        {
            // every fixed-width arm, then widths that take the scratch path
            for (din, dout) in [(4, 1), (4, 8), (8, 1), (8, 8), (16, 1), (16, 8), (9, 1), (17, 20), (3, 3)] {
                let mut store = ParamStore::new();
                let layer = GcnLayer::new(&mut store, "g", din, dout, act, &mut rng);
                store
                    .value_mut(layer.bias)
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|b| *b = 0.1 * i as f64 - 0.15);
                assert_tape_free_matches_tape(&layer, &store, &graph, &h);
            }
        }
    }

    #[test]
    fn tape_free_forward_handles_one_node_and_edgeless_graphs() {
        let mut rng = StdRng::seed_from_u64(9);
        for act in [Activation::None, Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let mut store = ParamStore::new();
            let layer = GcnLayer::new(&mut store, "g", 5, 4, act, &mut rng);
            let one = Matrix::from_fn(1, 5, |_, c| c as f64 - 2.0);
            assert_tape_free_matches_tape(&layer, &store, &UGraph::from_edges(1, std::iter::empty()), &one);
            assert_tape_free_matches_tape(
                &layer,
                &store,
                &UGraph::from_edges(1, std::iter::empty()),
                &Matrix::zeros(1, 5),
            );
            let edgeless = Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as f64 * 0.1 - 1.0);
            assert_tape_free_matches_tape(
                &layer,
                &store,
                &UGraph::from_edges(4, std::iter::empty()),
                &edgeless,
            );
        }
    }

    #[test]
    fn gcn_is_trainable_end_to_end() {
        // Teach a 1-layer GCN to output 1 for a marked node and 0 otherwise.
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let gcn = GcnLayer::new(&mut store, "g", 1, 1, Activation::Sigmoid, &mut rng);
        let mut adam = Adam::with_lr(0.1);
        let features = Matrix::from_vec(3, 1, vec![1.0, 0.0, 0.0]).unwrap();
        let adj = Matrix::zeros(3, 3);
        let target = Matrix::from_vec(3, 1, vec![1.0, 0.0, 0.0]).unwrap();
        let mut last = f64::INFINITY;
        for _ in 0..200 {
            let tape = Tape::new();
            let h = tape.constant(features.clone());
            let y = gcn.forward(&tape, &store, h, sparse(&tape, &adj));
            let t = tape.constant(target.clone());
            let diff = y - t;
            let loss = (diff * diff).mean();
            last = loss.scalar();
            loss.backward(&mut store);
            adam.step(&mut store);
        }
        assert!(last < 0.02, "GCN failed to fit: loss {last}");
    }

    #[test]
    #[should_panic(expected = "one activation per layer")]
    fn mlp_rejects_mismatched_activations() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        Mlp::new(&mut store, "m", &[2, 2, 2], &[Activation::Relu], &mut rng);
    }
}
