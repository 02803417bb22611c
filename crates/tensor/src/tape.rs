//! Tape-based reverse-mode automatic differentiation.
//!
//! The engine is define-by-run: a [`Tape`] records every operation performed
//! on [`Var`] handles during a forward pass, and [`Var::backward`] replays the
//! tape in reverse, accumulating gradients into a [`ParamStore`]. Trainable
//! parameters live in the store (not on the tape) so they persist across
//! forward passes; a fresh tape is built per training step (or per BPTT
//! window — a single tape may span many time steps, which is how the POSHGNN
//! trainer backpropagates through its recurrent preservation gate).
//!
//! Node ids are assigned in creation order, so the id order is already a
//! topological order of the computation graph and the backward pass is a
//! simple reverse iteration.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::matrix::Matrix;
use crate::sparse::CsrAdj;

/// Identifier of a trainable parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct Slot {
    name: String,
    value: Matrix,
    grad: Matrix,
    /// Adam first-moment accumulator.
    m: Matrix,
    /// Adam second-moment accumulator.
    v: Matrix,
}

/// Storage for trainable parameters and their gradient/optimizer state.
#[derive(Default)]
pub struct ParamStore {
    slots: Vec<Slot>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter initialized to `value`.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.slots.push(Slot {
            name: name.into(),
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
            value,
        });
        ParamId(self.slots.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn scalar_count(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.slots[id.0].value
    }

    /// Mutable access to a parameter value (e.g. for manual initialization).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.slots[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.slots[id.0].grad
    }

    /// Registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for s in &mut self.slots {
            s.grad.fill(0.0);
        }
    }

    /// Global L2 norm over all gradients.
    pub fn grad_norm(&self) -> f64 {
        self.slots
            .iter()
            .map(|s| {
                let n = s.grad.frobenius_norm();
                n * n
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Rescales all gradients so the global norm does not exceed `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let k = max_norm / norm;
            for s in &mut self.slots {
                for x in s.grad.as_mut_slice() {
                    *x *= k;
                }
            }
        }
        norm
    }

    pub(crate) fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        self.slots[id.0].grad.add_assign(g);
    }

    pub(crate) fn adam_state(&mut self, id: ParamId) -> (&mut Matrix, &mut Matrix, &mut Matrix, &Matrix) {
        let s = &mut self.slots[id.0];
        (&mut s.value, &mut s.m, &mut s.v, &s.grad)
    }

    pub(crate) fn sgd_step_slot(&mut self, id: ParamId, lr: f64) {
        let s = &mut self.slots[id.0];
        let Slot { value, grad, .. } = s;
        value.add_scaled(grad, -lr);
    }

    /// Iterator over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.slots.len()).map(ParamId)
    }

    /// Serializes all parameter values into a flat vector (for checkpointing).
    pub fn export_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.scalar_count());
        for s in &self.slots {
            out.extend_from_slice(s.value.as_slice());
        }
        out
    }

    /// Restores parameter values from a flat vector produced by
    /// [`ParamStore::export_flat`]. Returns `false` when the length mismatches.
    pub fn import_flat(&mut self, flat: &[f64]) -> bool {
        if flat.len() != self.scalar_count() {
            return false;
        }
        let mut offset = 0;
        for s in &mut self.slots {
            let n = s.value.len();
            s.value.as_mut_slice().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
        true
    }
}

/// The activation applied by the fused [`Var::sum_bias_act`] epilogue.
///
/// Mirrors the standalone activation ops entry-for-entry: each variant's
/// forward closure and gradient expression are byte-identical to the
/// corresponding `Var::relu`/`Var::sigmoid`/`Var::tanh` node, so fusing is
/// invisible to the differential oracles and the golden replay. (The ReLU
/// gradient masks on the *output* here, which is equivalent: `y > 0 ⟺
/// x > 0` for `y = relu(x)`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nonlinearity {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Nonlinearity {
    /// The activation of one entry: the closure every tape node and the
    /// tape-free serving layers share, so both paths round alike.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            Nonlinearity::None => v,
            Nonlinearity::Relu => {
                if v > 0.0 {
                    v
                } else {
                    0.0
                }
            }
            Nonlinearity::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Nonlinearity::Tanh => v.tanh(),
        }
    }
}

enum Op {
    /// Leaf with no gradient flow.
    Const,
    /// Leaf that routes gradients into a [`ParamStore`] slot.
    Param(ParamId),
    Add(usize, usize),
    Sub(usize, usize),
    Hadamard(usize, usize),
    MatMul(usize, usize),
    Scale(usize, f64),
    AddScalar(usize),
    Relu(usize),
    Sigmoid(usize),
    Tanh(usize),
    Ln(usize),
    Exp(usize),
    Sum(usize),
    Mean(usize),
    Transpose(usize),
    /// Horizontal concatenation; stores the source ids and their widths.
    ConcatCols(Vec<(usize, usize)>),
    /// `a (R×C) + broadcast(b (1×C))`.
    RowBroadcastAdd(usize, usize),
    /// Fused `act((a + b) + broadcast(bias))` — the GCN layer epilogue.
    /// One node instead of three (`Add`, `RowBroadcastAdd`, activation),
    /// with identical per-entry arithmetic and gradient expressions.
    SumBiasAct(usize, usize, usize, Nonlinearity),
    /// Complement `1 - a`.
    OneMinus(usize),
    /// SpMM `A · x` where `A` is the sparse operand at the given registry
    /// index and `x` the dense node.
    Spmm(usize, usize),
    /// Fused preservation gate `m ⊙ ((1 − s) ⊙ a + s ⊙ b)` — one node
    /// instead of five (`OneMinus`, two `Hadamard`s, `Add`, mask
    /// `Hadamard`). Operand order: `(m, s, a, b)`.
    GateBlend(usize, usize, usize, usize),
    /// Fused `(a ⊙ b).sum() · k` — one `1×1` node instead of three
    /// (`Hadamard`, `Sum`, `Scale`).
    DotScale(usize, usize, f64),
    /// Fused `(a ⊙ b ⊙ c).sum() · k` — one `1×1` node instead of four
    /// (two `Hadamard`s, `Sum`, `Scale`).
    Dot3Scale(usize, usize, usize, f64),
    /// Fused `a.matmul(b).sum() · k` for a `1×N` row `a` and `N×1` column
    /// `b` — one `1×1` node instead of three (`MatMul`, `Sum`, `Scale`),
    /// replicating the small-matmul kernel's ascending dot with its
    /// `a == 0.0` skip.
    MatDotScale(usize, usize, f64),
}

/// A node's stored value: owned by the tape (and recycled into the buffer
/// pool on [`Tape::reset`]) or shared with the caller via `Rc` — the
/// zero-copy path for cached per-episode MIA matrices and recurrent episode
/// state, which would otherwise be cloned onto every step's tape.
enum Value {
    Owned(Matrix),
    Shared(Rc<Matrix>),
}

impl Value {
    fn mat(&self) -> &Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Shared(m) => m,
        }
    }
}

struct Node {
    value: Value,
    op: Op,
}

/// Recycled matrix buffers, keyed by element count (a buffer freed by a
/// `rows × cols` node is reusable by any node of the same size, e.g. its
/// transpose). Every consumer overwrites every entry of a pooled buffer
/// before reading it, so recycling cannot change any computed value — the
/// pooled-vs-fresh-tape differential subject in `xr_check` pins this
/// bit-for-bit.
#[derive(Default)]
struct MatrixPool {
    free: HashMap<usize, Vec<Vec<f64>>, std::hash::BuildHasherDefault<SizeHasher>>,
}

/// Multiply-shift hasher for the pool's element-count keys. The pool sits
/// on the per-op hot path (every tape allocation and release hashes one
/// `usize`), where SipHash's per-hash setup is measurable; a single
/// multiply by a odd constant mixes the handful of distinct buffer sizes
/// more than well enough.
#[derive(Default)]
struct SizeHasher(u64);

impl std::hash::Hasher for SizeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl MatrixPool {
    /// A pooled `rows × cols` buffer with stale contents, if one is free.
    fn take(&mut self, rows: usize, cols: usize) -> Option<Matrix> {
        let buf = self.free.get_mut(&(rows * cols))?.pop()?;
        Some(Matrix::from_vec(rows, cols, buf).expect("pooled buffer length matches"))
    }

    fn put(&mut self, m: Matrix) {
        let buf = m.into_vec();
        if !buf.is_empty() {
            self.free.entry(buf.len()).or_default().push(buf);
        }
    }
}

/// A sparse operand registered on the tape, with its transpose computed
/// lazily (at most once per tape) for the backward pass.
struct SparseSlot {
    mat: Rc<CsrAdj>,
    transpose: RefCell<Option<Rc<CsrAdj>>>,
}

impl SparseSlot {
    fn transposed(&self) -> Rc<CsrAdj> {
        self.transpose.borrow_mut().get_or_insert_with(|| Rc::new(self.mat.transpose())).clone()
    }
}

/// Records a computation graph for reverse-mode differentiation.
///
/// Tapes are reusable arenas: [`Tape::reset`] clears the recorded graph
/// while keeping the node/sparse `Vec` capacity and recycling every owned
/// node value into an internal buffer pool, so a training loop that resets
/// one tape per episode stops round-tripping matrices through the global
/// allocator after its first episode.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    sparse: RefCell<Vec<SparseSlot>>,
    pool: RefCell<MatrixPool>,
    /// Memo of parameter leaves already on this tape (see [`Tape::param`]):
    /// a linear list, since models hold tens of parameters, not thousands.
    params: RefCell<Vec<(ParamId, usize)>>,
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// `true` when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Clears the recorded graph for reuse, retaining `Vec` capacity and
    /// recycling owned node values into the buffer pool. Any [`Var`] handle
    /// from before the reset is invalidated (using one will panic or refer
    /// to a new node, never to stale data from the previous graph's values
    /// — those buffers are only handed out fully overwritten).
    pub fn reset(&self) {
        let mut pool = self.pool.borrow_mut();
        for node in self.nodes.borrow_mut().drain(..) {
            if let Value::Owned(m) = node.value {
                pool.put(m);
            }
        }
        self.sparse.borrow_mut().clear();
        self.params.borrow_mut().clear();
    }

    /// A pooled (or, on pool miss, freshly allocated) `rows × cols` buffer.
    /// Contents are stale; the caller must overwrite every entry.
    fn alloc(&self, rows: usize, cols: usize) -> Matrix {
        self.pool.borrow_mut().take(rows, cols).unwrap_or_else(|| Matrix::zeros(rows, cols))
    }

    /// Returns a scratch matrix to the pool.
    fn release(&self, m: Matrix) {
        self.pool.borrow_mut().put(m);
    }

    fn push(&self, value: Matrix, op: Op) -> Var<'_> {
        self.push_value(Value::Owned(value), op)
    }

    fn push_value(&self, value: Value, op: Op) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var { tape: self, id: nodes.len() - 1 }
    }

    /// Records a constant leaf (no gradient flows into it).
    pub fn constant(&self, value: Matrix) -> Var<'_> {
        self.push(value, Op::Const)
    }

    /// Records a constant leaf that shares `value` instead of copying it —
    /// the zero-copy path for matrices that outlive the tape, such as cached
    /// MIA outputs and the recurrent episode state.
    pub fn constant_rc(&self, value: Rc<Matrix>) -> Var<'_> {
        self.push_value(Value::Shared(value), Op::Const)
    }

    /// Records a constant leaf by copying `value` into a pooled buffer: the
    /// borrow path for constants the caller keeps. Unlike
    /// `constant(value.clone())` this performs no allocation once the pool
    /// is warm.
    pub fn constant_from(&self, value: &Matrix) -> Var<'_> {
        let mut buf = self.alloc(value.rows(), value.cols());
        buf.copy_from(value);
        self.push(buf, Op::Const)
    }

    /// Records an all-zero constant leaf in a pooled buffer — the
    /// allocation-free path for recurrent-state seeds.
    pub fn constant_zeros(&self, rows: usize, cols: usize) -> Var<'_> {
        let mut buf = self.alloc(rows, cols);
        buf.fill(0.0);
        self.push(buf, Op::Const)
    }

    /// Records a parameter leaf; gradients accumulate into `store` on
    /// [`Var::backward`].
    ///
    /// Repeat calls for the same `id` on one tape (e.g. a recurrent model
    /// re-reading its weights every BPTT step) return the node recorded by
    /// the first call instead of copying the value again — parameters only
    /// change between episodes, never within a tape. The merged node's
    /// gradient slot sums the same per-step contributions in the same
    /// order the store previously received them, and folding per-step
    /// store adds into one cannot flip any result bit (an IEEE addition
    /// can propagate a zero's sign only into another zero), so training is
    /// bit-identical to the unmemoized tape. Callers that mutate the store
    /// between steps must `reset` the tape (which clears the memo) first.
    pub fn param<'t>(&'t self, store: &ParamStore, id: ParamId) -> Var<'t> {
        if let Some(&(_, node)) = self.params.borrow().iter().find(|&&(pid, _)| pid == id) {
            return Var { tape: self, id: node };
        }
        let v = store.value(id);
        let mut buf = self.alloc(v.rows(), v.cols());
        buf.copy_from(v);
        let var = self.push(buf, Op::Param(id));
        self.params.borrow_mut().push((id, var.id));
        var
    }

    /// Registers a sparse operand for use in [`SparseVar::matmul`].
    ///
    /// The matrix itself is differentiation-constant (like
    /// [`Tape::constant`]): gradients flow through the dense operand of an
    /// SpMM, never into the sparse values. Registering is cheap (an `Rc`
    /// clone); the same handle can left-multiply many nodes, and the
    /// transpose needed by the backward pass is computed at most once.
    pub fn sparse(&self, mat: Rc<CsrAdj>) -> SparseVar<'_> {
        let mut sparse = self.sparse.borrow_mut();
        sparse.push(SparseSlot { mat, transpose: RefCell::new(None) });
        SparseVar { tape: self, idx: sparse.len() - 1 }
    }

    /// [`Tape::sparse`] with the operand's transpose supplied up front, for
    /// callers that cache `Aᵀ` across tapes (e.g. per-episode MIA slabs);
    /// the backward pass then allocates nothing for this operand. The
    /// supplied transpose must equal `mat.transpose()` exactly (same entry
    /// order), or gradients will be wrong.
    pub fn sparse_with_transpose(&self, mat: Rc<CsrAdj>, transpose: Rc<CsrAdj>) -> SparseVar<'_> {
        debug_assert_eq!(mat.shape(), (transpose.cols(), transpose.rows()), "transpose shape mismatch");
        let mut sparse = self.sparse.borrow_mut();
        sparse.push(SparseSlot { mat, transpose: RefCell::new(Some(transpose)) });
        SparseVar { tape: self, idx: sparse.len() - 1 }
    }

    /// Horizontal concatenation of several vars with equal row counts.
    pub fn concat_cols<'t>(&'t self, parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let (value, meta) = {
            let nodes = self.nodes.borrow();
            let rows = nodes[parts[0].id].value.mat().rows();
            let meta: Vec<(usize, usize)> =
                parts.iter().map(|v| (v.id, nodes[v.id].value.mat().cols())).collect();
            let cols = meta.iter().map(|&(_, w)| w).sum();
            let mut out = self.alloc(rows, cols);
            let mut offset = 0;
            for &(id, w) in &meta {
                let part = nodes[id].value.mat();
                assert_eq!(part.rows(), rows, "concat_cols row mismatch");
                for r in 0..rows {
                    out.row_mut(r)[offset..offset + w].copy_from_slice(part.row(r));
                }
                offset += w;
            }
            (out, meta)
        };
        self.push(value, Op::ConcatCols(meta))
    }

    /// Entry-wise unary op evaluated into a pooled buffer.
    fn unary_map(&self, a: Var<'_>, f: impl FnMut(f64) -> f64, op: Op) -> Var<'_> {
        let value = {
            let nodes = self.nodes.borrow();
            let am = nodes[a.id].value.mat();
            let mut out = self.alloc(am.rows(), am.cols());
            am.map_into(&mut out, f);
            out
        };
        self.push(value, op)
    }

    /// Entry-wise binary op evaluated into a pooled buffer.
    fn binary_zip(&self, a: Var<'_>, b: Var<'_>, f: impl FnMut(f64, f64) -> f64, op: Op) -> Var<'_> {
        let value = {
            let nodes = self.nodes.borrow();
            let (am, bm) = (nodes[a.id].value.mat(), nodes[b.id].value.mat());
            let mut out = self.alloc(am.rows(), am.cols());
            am.zip_with_into(bm, &mut out, f);
            out
        };
        self.push(value, op)
    }

    /// A pooled `1×1` node holding `x`.
    fn push_scalar(&self, x: f64, op: Op) -> Var<'_> {
        let mut out = self.alloc(1, 1);
        out.fill(x);
        self.push(out, op)
    }
}

/// Handle to a sparse operand registered on a [`Tape`] via [`Tape::sparse`].
///
/// Unlike [`Var`], this is not a node: it holds no dense value and receives
/// no gradient. Its only operation is left-multiplying a dense node
/// ([`SparseVar::matmul`]), which records an SpMM node whose backward pass
/// routes `Aᵀ·G` into the dense operand.
#[derive(Clone, Copy)]
pub struct SparseVar<'t> {
    tape: &'t Tape,
    idx: usize,
}

impl<'t> SparseVar<'t> {
    /// Shape of the sparse operand.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.sparse.borrow()[self.idx].mat.shape()
    }

    /// Number of stored entries of the sparse operand.
    pub fn nnz(&self) -> usize {
        self.tape.sparse.borrow()[self.idx].mat.nnz()
    }

    /// SpMM node `A · x`: sparse-times-dense at O(nnz · cols) instead of
    /// the dense product's O(rows² · cols).
    pub fn matmul(self, x: Var<'t>) -> Var<'t> {
        let value = {
            let sparse = self.tape.sparse.borrow();
            let nodes = self.tape.nodes.borrow();
            let xm = nodes[x.id].value.mat();
            let mut out = self.tape.alloc(sparse[self.idx].mat.rows(), xm.cols());
            sparse[self.idx].mat.matmul_dense_into(xm, &mut out);
            out
        };
        self.tape.push(value, Op::Spmm(self.idx, x.id))
    }
}

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
}

impl<'t> Var<'t> {
    /// A snapshot of this node's value.
    pub fn value(&self) -> Matrix {
        self.tape.nodes.borrow()[self.id].value.mat().clone()
    }

    /// Shape of this node's value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.nodes.borrow()[self.id].value.mat().shape()
    }

    /// Scalar value of a `1×1` node.
    pub fn scalar(&self) -> f64 {
        let nodes = self.tape.nodes.borrow();
        let v = nodes[self.id].value.mat();
        assert_eq!(v.shape(), (1, 1), "scalar() on non-scalar node");
        v[(0, 0)]
    }

    /// Matrix product.
    pub fn matmul(self, rhs: Var<'t>) -> Var<'t> {
        let value = {
            let nodes = self.tape.nodes.borrow();
            let (am, bm) = (nodes[self.id].value.mat(), nodes[rhs.id].value.mat());
            let mut out = self.tape.alloc(am.rows(), bm.cols());
            am.matmul_into(bm, &mut out);
            out
        };
        self.tape.push(value, Op::MatMul(self.id, rhs.id))
    }

    /// ReLU activation.
    pub fn relu(self) -> Var<'t> {
        self.tape.unary_map(self, |x| if x > 0.0 { x } else { 0.0 }, Op::Relu(self.id))
    }

    /// Logistic sigmoid activation.
    pub fn sigmoid(self) -> Var<'t> {
        self.tape.unary_map(self, |x| 1.0 / (1.0 + (-x).exp()), Op::Sigmoid(self.id))
    }

    /// Hyperbolic tangent activation.
    pub fn tanh(self) -> Var<'t> {
        self.tape.unary_map(self, f64::tanh, Op::Tanh(self.id))
    }

    /// Natural logarithm, entry-wise. Inputs must be positive.
    pub fn ln(self) -> Var<'t> {
        self.tape.unary_map(self, f64::ln, Op::Ln(self.id))
    }

    /// Exponential, entry-wise.
    pub fn exp(self) -> Var<'t> {
        self.tape.unary_map(self, f64::exp, Op::Exp(self.id))
    }

    /// Sum of all entries as a `1×1` node.
    pub fn sum(self) -> Var<'t> {
        let total = self.tape.nodes.borrow()[self.id].value.mat().sum();
        self.tape.push_scalar(total, Op::Sum(self.id))
    }

    /// Mean of all entries as a `1×1` node.
    pub fn mean(self) -> Var<'t> {
        let avg = self.tape.nodes.borrow()[self.id].value.mat().mean();
        self.tape.push_scalar(avg, Op::Mean(self.id))
    }

    /// Scalar multiple.
    pub fn scale(self, k: f64) -> Var<'t> {
        self.tape.unary_map(self, |x| x * k, Op::Scale(self.id, k))
    }

    /// Adds a scalar constant to every entry (no gradient w.r.t. the scalar).
    pub fn add_scalar(self, k: f64) -> Var<'t> {
        self.tape.unary_map(self, |x| x + k, Op::AddScalar(self.id))
    }

    /// `1 - self`, entry-wise.
    pub fn one_minus(self) -> Var<'t> {
        self.tape.unary_map(self, |x| 1.0 - x, Op::OneMinus(self.id))
    }

    /// Transpose.
    pub fn t(self) -> Var<'t> {
        let value = {
            let nodes = self.tape.nodes.borrow();
            let am = nodes[self.id].value.mat();
            let mut out = self.tape.alloc(am.cols(), am.rows());
            am.transpose_into(&mut out);
            out
        };
        self.tape.push(value, Op::Transpose(self.id))
    }

    /// Adds a `1×C` bias row to every row of an `R×C` matrix.
    pub fn add_row_broadcast(self, bias: Var<'t>) -> Var<'t> {
        let value = {
            let nodes = self.tape.nodes.borrow();
            let (a, b) = (nodes[self.id].value.mat(), nodes[bias.id].value.mat());
            assert_eq!(b.rows(), 1, "bias must be a row vector");
            assert_eq!(a.cols(), b.cols(), "bias width mismatch");
            let mut out = self.tape.alloc(a.rows(), a.cols());
            for r in 0..a.rows() {
                let (or, ar, br) = (out.row_mut(r), a.row(r), b.row(0));
                for c in 0..ar.len() {
                    or[c] = ar[c] + br[c];
                }
            }
            out
        };
        self.tape.push(value, Op::RowBroadcastAdd(self.id, bias.id))
    }

    /// Fused GCN-layer epilogue: `act((self + rhs) + broadcast(bias))` as a
    /// single node instead of three.
    ///
    /// Entry-for-entry the arithmetic matches the unfused chain — the adds
    /// keep the `(a + b) + bias` grouping and the activation closures are
    /// the standalone ops' closures — and the backward pass computes the
    /// same gradient expressions, so fused and unfused tapes produce
    /// bit-identical values and parameter gradients. Fusing removes two
    /// intermediate `R×C` nodes per layer per direction, which is a
    /// measurable slice of the training hot path (BENCH_pr4.json).
    pub fn sum_bias_act(self, rhs: Var<'t>, bias: Var<'t>, f: Nonlinearity) -> Var<'t> {
        let value = {
            let nodes = self.tape.nodes.borrow();
            let a = nodes[self.id].value.mat();
            let b = nodes[rhs.id].value.mat();
            let bias_m = nodes[bias.id].value.mat();
            assert_eq!(a.shape(), b.shape(), "sum_bias_act operand shape mismatch");
            assert_eq!(bias_m.rows(), 1, "bias must be a row vector");
            assert_eq!(a.cols(), bias_m.cols(), "bias width mismatch");
            let mut out = self.tape.alloc(a.rows(), a.cols());
            for r in 0..a.rows() {
                let (or, ar, br, biasr) = (out.row_mut(r), a.row(r), b.row(r), bias_m.row(0));
                for c in 0..ar.len() {
                    or[c] = f.apply((ar[c] + br[c]) + biasr[c]);
                }
            }
            out
        };
        self.tape.push(value, Op::SumBiasAct(self.id, rhs.id, bias.id, f))
    }

    /// Fused preservation gate `self ⊙ ((1 − s) ⊙ a + s ⊙ b)`, with `self`
    /// as the mask — one node instead of five (`OneMinus`, two `Hadamard`s,
    /// `Add`, and the mask `Hadamard`).
    ///
    /// The blend keeps the unfused chain's `((1 − s)·a) + (s·b)` grouping
    /// entry-for-entry, and the backward arm accumulates the unfused
    /// chain's exact gradient expressions in its accumulation order, so
    /// fused and unfused tapes produce bit-identical values and parameter
    /// gradients (pinned by the `xr_check` golden replay). Fusing drops
    /// four intermediate `N×1` nodes per step from the BPTT graph.
    pub fn gate_blend(self, s: Var<'t>, a: Var<'t>, b: Var<'t>) -> Var<'t> {
        let value = {
            let nodes = self.tape.nodes.borrow();
            let mv = nodes[self.id].value.mat();
            let sv = nodes[s.id].value.mat();
            let av = nodes[a.id].value.mat();
            let bv = nodes[b.id].value.mat();
            assert_eq!(mv.shape(), sv.shape(), "gate_blend shape mismatch");
            assert_eq!(mv.shape(), av.shape(), "gate_blend shape mismatch");
            assert_eq!(mv.shape(), bv.shape(), "gate_blend shape mismatch");
            let mut out = self.tape.alloc(mv.rows(), mv.cols());
            let o = out.as_mut_slice();
            let (ms, ss, as_, bs) = (mv.as_slice(), sv.as_slice(), av.as_slice(), bv.as_slice());
            for j in 0..o.len() {
                o[j] = ms[j] * ((1.0 - ss[j]) * as_[j] + ss[j] * bs[j]);
            }
            out
        };
        self.tape.push(value, Op::GateBlend(self.id, s.id, a.id, b.id))
    }

    /// Fused `(self ⊙ rhs).sum() · k` — the Def. 7 preference-gain shape —
    /// as one `1×1` node instead of three (`Hadamard`, `Sum`, `Scale`). The
    /// accumulation runs `0 + x₀·y₀ + x₁·y₁ + …` in entry order, exactly
    /// the unfused `Hadamard` value fed through `iter().sum()`, so values
    /// and gradients are bit-identical to the unfused chain.
    pub fn dot_scale(self, rhs: Var<'t>, k: f64) -> Var<'t> {
        let total = {
            let nodes = self.tape.nodes.borrow();
            let av = nodes[self.id].value.mat();
            let bv = nodes[rhs.id].value.mat();
            assert_eq!(av.shape(), bv.shape(), "dot_scale shape mismatch");
            let mut acc = 0.0;
            for (&x, &y) in av.as_slice().iter().zip(bv.as_slice()) {
                acc += x * y;
            }
            acc * k
        };
        self.tape.push_scalar(total, Op::DotScale(self.id, rhs.id, k))
    }

    /// Fused `(self ⊙ b ⊙ c).sum() · k` — the Def. 7 social-presence shape
    /// — as one `1×1` node instead of four (two `Hadamard`s, `Sum`,
    /// `Scale`). Products group as `(x·y)·z`, matching the left-to-right
    /// unfused `Hadamard` chain, so results are bit-identical to it.
    pub fn dot3_scale(self, b: Var<'t>, c: Var<'t>, k: f64) -> Var<'t> {
        let total = {
            let nodes = self.tape.nodes.borrow();
            let av = nodes[self.id].value.mat();
            let bv = nodes[b.id].value.mat();
            let cv = nodes[c.id].value.mat();
            assert_eq!(av.shape(), bv.shape(), "dot3_scale shape mismatch");
            assert_eq!(av.shape(), cv.shape(), "dot3_scale shape mismatch");
            let (as_, bs, cs) = (av.as_slice(), bv.as_slice(), cv.as_slice());
            let mut acc = 0.0;
            for j in 0..as_.len() {
                acc += (as_[j] * bs[j]) * cs[j];
            }
            acc * k
        };
        self.tape.push_scalar(total, Op::Dot3Scale(self.id, b.id, c.id, k))
    }

    /// Fused `self.matmul(rhs).sum().scale(k)` for a `1×N` row times an
    /// `N×1` column — the Def. 7 occlusion quadratic form's tail — as one
    /// `1×1` node instead of three. The dot replicates the small-matmul
    /// kernel's ascending loop with its `a == 0.0` skip, and the `0.0 +`
    /// replicates the one-element `Sum` (which matters only for the sign
    /// of a `-0.0` total), so results are bit-identical to the unfused
    /// chain.
    pub fn mat_dot_scale(self, rhs: Var<'t>, k: f64) -> Var<'t> {
        let total = {
            let nodes = self.tape.nodes.borrow();
            let av = nodes[self.id].value.mat();
            let bv = nodes[rhs.id].value.mat();
            assert_eq!(av.rows(), 1, "mat_dot_scale lhs must be a row vector");
            assert_eq!(bv.cols(), 1, "mat_dot_scale rhs must be a column vector");
            assert_eq!(av.cols(), bv.rows(), "mat_dot_scale length mismatch");
            let mut acc = 0.0;
            for (&x, &y) in av.as_slice().iter().zip(bv.as_slice()) {
                if x == 0.0 {
                    continue;
                }
                acc += x * y;
            }
            (0.0 + acc) * k
        };
        self.tape.push_scalar(total, Op::MatDotScale(self.id, rhs.id, k))
    }

    /// Runs the backward pass from this scalar node, accumulating parameter
    /// gradients into `store`.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-`1×1` node.
    pub fn backward(self, store: &mut ParamStore) {
        let tape = self.tape;
        let nodes = tape.nodes.borrow();
        assert_eq!(
            nodes[self.id].value.mat().shape(),
            (1, 1),
            "backward() must start from a scalar loss node"
        );
        let mut grads: Vec<Option<Matrix>> = (0..nodes.len()).map(|_| None).collect();
        let mut seed = tape.alloc(1, 1);
        seed.fill(1.0);
        grads[self.id] = Some(seed);

        for id in (0..=self.id).rev() {
            let g = match grads[id].take() {
                Some(g) => g,
                None => continue,
            };
            let node = &nodes[id];
            match &node.op {
                Op::Const => {}
                Op::Param(pid) => store.accumulate_grad(*pid, &g),
                Op::Add(a, b) => {
                    accumulate(tape, &mut grads, *a, &g, &nodes);
                    accumulate(tape, &mut grads, *b, &g, &nodes);
                }
                Op::Sub(a, b) => {
                    accumulate(tape, &mut grads, *a, &g, &nodes);
                    let mut neg = tape.alloc(g.rows(), g.cols());
                    g.map_into(&mut neg, |x| -x);
                    accumulate_owned(tape, &mut grads, *b, neg, &nodes);
                }
                Op::Hadamard(a, b) => {
                    let mut ga = tape.alloc(g.rows(), g.cols());
                    g.zip_with_into(nodes[*b].value.mat(), &mut ga, |x, y| x * y);
                    let mut gb = tape.alloc(g.rows(), g.cols());
                    g.zip_with_into(nodes[*a].value.mat(), &mut gb, |x, y| x * y);
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                    accumulate_owned(tape, &mut grads, *b, gb, &nodes);
                }
                Op::MatMul(a, b) => {
                    // Skip the (potentially N×N) gradient products entirely
                    // when the parent is a constant.
                    if !matches!(nodes[*a].op, Op::Const) {
                        let bm = nodes[*b].value.mat();
                        let mut bt = tape.alloc(bm.cols(), bm.rows());
                        bm.transpose_into(&mut bt);
                        let mut ga = tape.alloc(g.rows(), bt.cols());
                        g.matmul_into(&bt, &mut ga);
                        tape.release(bt);
                        accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                    }
                    if !matches!(nodes[*b].op, Op::Const) {
                        let am = nodes[*a].value.mat();
                        let mut gb = tape.alloc(am.cols(), g.cols());
                        am.matmul_at_b_into(&g, &mut gb);
                        accumulate_owned(tape, &mut grads, *b, gb, &nodes);
                    }
                }
                Op::Scale(a, k) => {
                    let k = *k;
                    let mut ga = tape.alloc(g.rows(), g.cols());
                    g.map_into(&mut ga, |x| x * k);
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::AddScalar(a) => accumulate(tape, &mut grads, *a, &g, &nodes),
                Op::OneMinus(a) => {
                    let mut ga = tape.alloc(g.rows(), g.cols());
                    g.map_into(&mut ga, |x| -x);
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::Relu(a) => {
                    let mut ga = tape.alloc(g.rows(), g.cols());
                    g.zip_with_into(nodes[*a].value.mat(), &mut ga, |gi, x| if x > 0.0 { gi } else { 0.0 });
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::Sigmoid(a) => {
                    let mut ga = tape.alloc(g.rows(), g.cols());
                    g.zip_with_into(node.value.mat(), &mut ga, |gi, yi| gi * yi * (1.0 - yi));
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::Tanh(a) => {
                    let mut ga = tape.alloc(g.rows(), g.cols());
                    g.zip_with_into(node.value.mat(), &mut ga, |gi, yi| gi * (1.0 - yi * yi));
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::Ln(a) => {
                    let mut ga = tape.alloc(g.rows(), g.cols());
                    g.zip_with_into(nodes[*a].value.mat(), &mut ga, |gi, x| gi / x);
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::Exp(a) => {
                    let mut ga = tape.alloc(g.rows(), g.cols());
                    g.zip_with_into(node.value.mat(), &mut ga, |gi, yi| gi * yi);
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::Sum(a) => {
                    let (r, c) = nodes[*a].value.mat().shape();
                    let mut ga = tape.alloc(r, c);
                    ga.fill(g[(0, 0)]);
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::Mean(a) => {
                    let (r, c) = nodes[*a].value.mat().shape();
                    let n = (r * c).max(1) as f64;
                    let mut ga = tape.alloc(r, c);
                    ga.fill(g[(0, 0)] / n);
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::Transpose(a) => {
                    let mut ga = tape.alloc(g.cols(), g.rows());
                    g.transpose_into(&mut ga);
                    accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for (src, width) in parts {
                        let mut slice = tape.alloc(g.rows(), *width);
                        for r in 0..g.rows() {
                            slice.row_mut(r).copy_from_slice(&g.row(r)[offset..offset + *width]);
                        }
                        accumulate_owned(tape, &mut grads, *src, slice, &nodes);
                        offset += width;
                    }
                }
                Op::Spmm(s, x) => {
                    // d(A·X)/dX contracted with G is AᵀG; the sparse operand
                    // itself is a constant, so nothing else flows.
                    if !matches!(nodes[*x].op, Op::Const) {
                        let at = tape.sparse.borrow()[*s].transposed();
                        let mut gx = tape.alloc(at.rows(), g.cols());
                        at.matmul_dense_into(&g, &mut gx);
                        accumulate_owned(tape, &mut grads, *x, gx, &nodes);
                    }
                }
                Op::RowBroadcastAdd(a, b) => {
                    accumulate(tape, &mut grads, *a, &g, &nodes);
                    // bias gradient: column-wise sum collapsed to one row.
                    let mut gb = tape.alloc(1, g.cols());
                    gb.fill(0.0);
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            gb[(0, c)] += g[(r, c)];
                        }
                    }
                    accumulate_owned(tape, &mut grads, *b, gb, &nodes);
                }
                Op::SumBiasAct(a, b, bias, f) => {
                    // dL/d(pre-activation): the standalone ops' expressions,
                    // with ReLU masking on the (equivalent) output sign.
                    let mut gy = tape.alloc(g.rows(), g.cols());
                    match f {
                        Nonlinearity::None => gy.copy_from(&g),
                        Nonlinearity::Relu => {
                            g.zip_with_into(
                                node.value.mat(),
                                &mut gy,
                                |gi, yi| {
                                    if yi > 0.0 {
                                        gi
                                    } else {
                                        0.0
                                    }
                                },
                            )
                        }
                        Nonlinearity::Sigmoid => {
                            g.zip_with_into(node.value.mat(), &mut gy, |gi, yi| gi * yi * (1.0 - yi))
                        }
                        Nonlinearity::Tanh => {
                            g.zip_with_into(node.value.mat(), &mut gy, |gi, yi| gi * (1.0 - yi * yi))
                        }
                    }
                    if !matches!(nodes[*bias].op, Op::Const) {
                        // bias gradient: column-wise sum collapsed to one row.
                        let mut gb = tape.alloc(1, gy.cols());
                        gb.fill(0.0);
                        for r in 0..gy.rows() {
                            for c in 0..gy.cols() {
                                gb[(0, c)] += gy[(r, c)];
                            }
                        }
                        accumulate_owned(tape, &mut grads, *bias, gb, &nodes);
                    }
                    accumulate(tape, &mut grads, *a, &gy, &nodes);
                    accumulate_owned(tape, &mut grads, *b, gy, &nodes);
                }
                Op::GateBlend(m, s, a, b) => {
                    let mv = nodes[*m].value.mat();
                    let sv = nodes[*s].value.mat();
                    let av = nodes[*a].value.mat();
                    let bv = nodes[*b].value.mat();
                    // dL/d(blend): the mask Hadamard's inner-operand grad.
                    let mut gx = tape.alloc(g.rows(), g.cols());
                    g.zip_with_into(mv, &mut gx, |gi, mi| gi * mi);
                    if !matches!(nodes[*m].op, Op::Const) {
                        // g ⊙ blend, with the blend recomputed exactly as
                        // the forward pass grouped it.
                        let mut gm = tape.alloc(g.rows(), g.cols());
                        let o = gm.as_mut_slice();
                        let (gs, ss, as_, bs) = (g.as_slice(), sv.as_slice(), av.as_slice(), bv.as_slice());
                        for j in 0..o.len() {
                            o[j] = gs[j] * ((1.0 - ss[j]) * as_[j] + ss[j] * bs[j]);
                        }
                        accumulate_owned(tape, &mut grads, *m, gm, &nodes);
                    }
                    if !matches!(nodes[*s].op, Op::Const) {
                        // σ hears the s⊙b branch first, then the negated
                        // (1−s)⊙a branch — the unfused chain's
                        // accumulation order, preserved per entry.
                        let mut gsig = tape.alloc(g.rows(), g.cols());
                        let o = gsig.as_mut_slice();
                        let (gxs, as_, bs) = (gx.as_slice(), av.as_slice(), bv.as_slice());
                        for j in 0..o.len() {
                            o[j] = (gxs[j] * bs[j]) + (-(gxs[j] * as_[j]));
                        }
                        accumulate_owned(tape, &mut grads, *s, gsig, &nodes);
                    }
                    if !matches!(nodes[*a].op, Op::Const) {
                        let mut ga = tape.alloc(g.rows(), g.cols());
                        gx.zip_with_into(sv, &mut ga, |gi, si| gi * (1.0 - si));
                        accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                    }
                    if !matches!(nodes[*b].op, Op::Const) {
                        let mut gb = tape.alloc(g.rows(), g.cols());
                        gx.zip_with_into(sv, &mut gb, |gi, si| gi * si);
                        accumulate_owned(tape, &mut grads, *b, gb, &nodes);
                    }
                    tape.release(gx);
                }
                Op::DotScale(a, b, k) => {
                    // The unfused chain routes g through Scale then the
                    // Sum broadcast, so every entry sees g·k.
                    let gk = g[(0, 0)] * k;
                    let av = nodes[*a].value.mat();
                    let bv = nodes[*b].value.mat();
                    if !matches!(nodes[*a].op, Op::Const) {
                        let mut ga = tape.alloc(av.rows(), av.cols());
                        bv.map_into(&mut ga, |y| gk * y);
                        accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                    }
                    if !matches!(nodes[*b].op, Op::Const) {
                        let mut gb = tape.alloc(bv.rows(), bv.cols());
                        av.map_into(&mut gb, |x| gk * x);
                        accumulate_owned(tape, &mut grads, *b, gb, &nodes);
                    }
                }
                Op::Dot3Scale(a, b, c, k) => {
                    let gk = g[(0, 0)] * k;
                    let av = nodes[*a].value.mat();
                    let bv = nodes[*b].value.mat();
                    let cv = nodes[*c].value.mat();
                    if !matches!(nodes[*a].op, Op::Const) {
                        // (g·k ⊙ c) ⊙ b — the inner Hadamard's grad fed
                        // through the outer one, grouped as the unfused
                        // chain computes it.
                        let mut ga = tape.alloc(av.rows(), av.cols());
                        cv.zip_with_into(bv, &mut ga, |ci, bi| (gk * ci) * bi);
                        accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                    }
                    if !matches!(nodes[*b].op, Op::Const) {
                        let mut gb = tape.alloc(bv.rows(), bv.cols());
                        cv.zip_with_into(av, &mut gb, |ci, ai| (gk * ci) * ai);
                        accumulate_owned(tape, &mut grads, *b, gb, &nodes);
                    }
                    if !matches!(nodes[*c].op, Op::Const) {
                        let mut gc = tape.alloc(cv.rows(), cv.cols());
                        av.zip_with_into(bv, &mut gc, |ai, bi| gk * (ai * bi));
                        accumulate_owned(tape, &mut grads, *c, gc, &nodes);
                    }
                }
                Op::MatDotScale(a, b, k) => {
                    let gk = g[(0, 0)] * k;
                    let av = nodes[*a].value.mat();
                    let bv = nodes[*b].value.mat();
                    if !matches!(nodes[*a].op, Op::Const) {
                        // The unfused `g · rhsᵀ` (1×1 · 1×N): the kernel's
                        // zero-skip leaves 0 when the upstream grad is 0,
                        // else each entry is `0 + g·k·b_j`.
                        let mut ga = tape.alloc(av.rows(), av.cols());
                        if gk == 0.0 {
                            ga.fill(0.0);
                        } else {
                            let o = ga.as_mut_slice();
                            for (oj, &y) in o.iter_mut().zip(bv.as_slice()) {
                                *oj = 0.0 + gk * y;
                            }
                        }
                        accumulate_owned(tape, &mut grads, *a, ga, &nodes);
                    }
                    if !matches!(nodes[*b].op, Op::Const) {
                        // The unfused `selfᵀ · g` via the AᵀB kernel:
                        // zero-filled, then `+= a·g·k` under the same
                        // `a == 0.0` skip over the stored row.
                        let mut gb = tape.alloc(bv.rows(), bv.cols());
                        gb.fill(0.0);
                        let o = gb.as_mut_slice();
                        for (oj, &x) in o.iter_mut().zip(av.as_slice()) {
                            if x == 0.0 {
                                continue;
                            }
                            *oj += x * gk;
                        }
                        accumulate_owned(tape, &mut grads, *b, gb, &nodes);
                    }
                }
            }
            tape.release(g);
        }
    }
}

/// Accumulates `g` into node `id`'s gradient slot, copying into a pooled
/// buffer on first touch (the caller keeps `g`).
fn accumulate(tape: &Tape, grads: &mut [Option<Matrix>], id: usize, g: &Matrix, nodes: &[Node]) {
    // Constants never need gradients; skipping them avoids materializing
    // N×N gradient matrices for adjacency constants during BPTT.
    if matches!(nodes[id].op, Op::Const) {
        return;
    }
    debug_assert_eq!(nodes[id].value.mat().shape(), g.shape(), "gradient shape mismatch at node {id}");
    match &mut grads[id] {
        Some(existing) => existing.add_assign(g),
        slot @ None => {
            let mut buf = tape.alloc(g.rows(), g.cols());
            buf.copy_from(g);
            *slot = Some(buf);
        }
    }
}

/// Accumulates an owned (pooled) `g` into node `id`'s gradient slot, moving
/// it in on first touch and recycling it otherwise.
fn accumulate_owned(tape: &Tape, grads: &mut [Option<Matrix>], id: usize, g: Matrix, nodes: &[Node]) {
    if matches!(nodes[id].op, Op::Const) {
        tape.release(g);
        return;
    }
    debug_assert_eq!(nodes[id].value.mat().shape(), g.shape(), "gradient shape mismatch at node {id}");
    match &mut grads[id] {
        Some(existing) => {
            existing.add_assign(&g);
            tape.release(g);
        }
        slot @ None => *slot = Some(g),
    }
}

impl<'t> std::ops::Add for Var<'t> {
    type Output = Var<'t>;

    fn add(self, rhs: Var<'t>) -> Var<'t> {
        self.tape.binary_zip(self, rhs, |a, b| a + b, Op::Add(self.id, rhs.id))
    }
}

impl<'t> std::ops::Sub for Var<'t> {
    type Output = Var<'t>;

    fn sub(self, rhs: Var<'t>) -> Var<'t> {
        self.tape.binary_zip(self, rhs, |a, b| a - b, Op::Sub(self.id, rhs.id))
    }
}

impl<'t> std::ops::Mul for Var<'t> {
    type Output = Var<'t>;

    /// Hadamard (entry-wise) product.
    fn mul(self, rhs: Var<'t>) -> Var<'t> {
        self.tape.binary_zip(self, rhs, |a, b| a * b, Op::Hadamard(self.id, rhs.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(tape: &Tape, x: f64) -> Var<'_> {
        tape.constant(Matrix::from_vec(1, 1, vec![x]).unwrap())
    }

    #[test]
    fn add_mul_gradients() {
        // f(w) = sum(w * c + w), df/dw = c + 1
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 2, vec![2.0, -3.0]).unwrap());
        let tape = Tape::new();
        let wv = tape.param(&store, w);
        let c = tape.constant(Matrix::from_vec(1, 2, vec![5.0, 7.0]).unwrap());
        let loss = (wv * c + wv).sum();
        assert_eq!(loss.scalar(), 2.0 * 5.0 + 2.0 + (-3.0 * 7.0) + (-3.0));
        loss.backward(&mut store);
        assert!(store.grad(w).approx_eq(&Matrix::from_vec(1, 2, vec![6.0, 8.0]).unwrap(), 1e-12));
    }

    #[test]
    fn matmul_gradients_match_manual() {
        // f = sum(A·W), dW = Aᵀ·1
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap());
        let tape = Tape::new();
        let a = tape.constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        let wv = tape.param(&store, w);
        let loss = a.matmul(wv).sum();
        loss.backward(&mut store);
        // Aᵀ·ones(2,2) = [[4,4],[6,6]]
        assert!(store.grad(w).approx_eq(&Matrix::from_vec(2, 2, vec![4.0, 4.0, 6.0, 6.0]).unwrap(), 1e-12));
    }

    #[test]
    fn sigmoid_gradient_at_zero_is_quarter() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let tape = Tape::new();
        let loss = tape.param(&store, w).sigmoid().sum();
        assert!((loss.scalar() - 0.5).abs() < 1e-12);
        loss.backward(&mut store);
        assert!((store.grad(w)[(0, 0)] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn relu_blocks_negative_gradient() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 2, vec![3.0, -3.0]).unwrap());
        let tape = Tape::new();
        let loss = tape.param(&store, w).relu().sum();
        loss.backward(&mut store);
        assert!(store.grad(w).approx_eq(&Matrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap(), 0.0));
    }

    #[test]
    fn tanh_gradient() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 1, vec![0.5]).unwrap());
        let tape = Tape::new();
        let loss = tape.param(&store, w).tanh().sum();
        loss.backward(&mut store);
        let expected = 1.0 - 0.5_f64.tanh().powi(2);
        assert!((store.grad(w)[(0, 0)] - expected).abs() < 1e-12);
    }

    #[test]
    fn reused_node_accumulates_gradient() {
        // f = sum(w + w), df/dw = 2
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(2, 2));
        let tape = Tape::new();
        let wv = tape.param(&store, w);
        let loss = (wv + wv).sum();
        loss.backward(&mut store);
        assert!(store.grad(w).approx_eq(&Matrix::full(2, 2, 2.0), 0.0));
    }

    #[test]
    fn concat_routes_gradients_to_sources() {
        let mut store = ParamStore::new();
        let a = store.register("a", Matrix::ones(2, 2));
        let b = store.register("b", Matrix::ones(2, 3));
        let tape = Tape::new();
        let av = tape.param(&store, a);
        let bv = tape.param(&store, b);
        let cat = tape.concat_cols(&[av, bv]);
        assert_eq!(cat.shape(), (2, 5));
        // weight the two halves differently so routing errors are visible
        let mask = tape.constant(Matrix::from_fn(2, 5, |_, c| if c < 2 { 2.0 } else { 3.0 }));
        let loss = (cat * mask).sum();
        loss.backward(&mut store);
        assert!(store.grad(a).approx_eq(&Matrix::full(2, 2, 2.0), 0.0));
        assert!(store.grad(b).approx_eq(&Matrix::full(2, 3, 3.0), 0.0));
    }

    #[test]
    fn quadratic_form_gradient() {
        // f = rᵀ A r, df/dr = (A + Aᵀ) r
        let mut store = ParamStore::new();
        let r = store.register("r", Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap());
        let a_mat = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let tape = Tape::new();
        let rv = tape.param(&store, r);
        let a = tape.constant(a_mat.clone());
        let loss = rv.t().matmul(a).matmul(rv).sum();
        assert_eq!(loss.scalar(), 4.0); // 2 * r0 * r1
        loss.backward(&mut store);
        let expected = a_mat.add(&a_mat.transpose()).matmul(store.value(r));
        assert!(store.grad(r).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn row_broadcast_bias_gradient_sums_rows() {
        let mut store = ParamStore::new();
        let b = store.register("b", Matrix::zeros(1, 3));
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(4, 3));
        let bias = tape.param(&store, b);
        let loss = x.add_row_broadcast(bias).sum();
        loss.backward(&mut store);
        assert!(store.grad(b).approx_eq(&Matrix::full(1, 3, 4.0), 0.0));
    }

    #[test]
    fn one_minus_and_scale() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 0.3));
        let tape = Tape::new();
        let loss = tape.param(&store, w).one_minus().scale(5.0).sum();
        assert!((loss.scalar() - 3.5).abs() < 1e-12);
        loss.backward(&mut store);
        assert!((store.grad(w)[(0, 0)] + 5.0).abs() < 1e-12);
    }

    #[test]
    fn backward_ignores_constants() {
        let mut store = ParamStore::new();
        let tape = Tape::new();
        let loss = (scalar(&tape, 2.0) * scalar(&tape, 3.0)).sum();
        loss.backward(&mut store); // must not panic with empty store
        assert_eq!(loss.scalar(), 6.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_from_non_scalar_panics() {
        let mut store = ParamStore::new();
        let tape = Tape::new();
        let v = tape.constant(Matrix::ones(2, 2));
        v.backward(&mut store);
    }

    #[test]
    fn ln_and_exp_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 2.0));
        let tape = Tape::new();
        let loss = tape.param(&store, w).ln().sum();
        assert!((loss.scalar() - 2.0_f64.ln()).abs() < 1e-12);
        loss.backward(&mut store);
        assert!((store.grad(w)[(0, 0)] - 0.5).abs() < 1e-12);

        let mut store2 = ParamStore::new();
        let v = store2.register("v", Matrix::full(1, 1, 1.5));
        let tape2 = Tape::new();
        let loss2 = tape2.param(&store2, v).exp().sum();
        loss2.backward(&mut store2);
        assert!((store2.grad(v)[(0, 0)] - 1.5_f64.exp()).abs() < 1e-10);
    }

    #[test]
    fn spmm_forward_matches_dense_and_backward_routes_transpose() {
        // f = sum(A·X) with sparse A: dX = Aᵀ·1, same as the dense MatMul op.
        let a_dense = Matrix::from_vec(3, 3, vec![0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 3.0]).unwrap();
        let a_csr = Rc::new(CsrAdj::from_dense(&a_dense, 0.0));

        let mut store_sparse = ParamStore::new();
        let x_init = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64 - 2.0);
        let xs = store_sparse.register("x", x_init.clone());
        let tape = Tape::new();
        let a = tape.sparse(a_csr.clone());
        assert_eq!(a.shape(), (3, 3));
        assert_eq!(a.nnz(), 3);
        let xv = tape.param(&store_sparse, xs);
        let y = a.matmul(xv);
        assert!(y.value().approx_eq(&a_dense.matmul(&x_init), 1e-12));
        let loss = y.sum();
        loss.backward(&mut store_sparse);

        let mut store_dense = ParamStore::new();
        let xd = store_dense.register("x", x_init.clone());
        let tape2 = Tape::new();
        let ad = tape2.constant(a_dense.clone());
        let loss2 = ad.matmul(tape2.param(&store_dense, xd)).sum();
        loss2.backward(&mut store_dense);

        assert_eq!(loss.scalar(), loss2.scalar());
        assert!(store_sparse.grad(xs).approx_eq(store_dense.grad(xd), 1e-12));
    }

    #[test]
    fn spmm_through_constant_skips_gradient_work() {
        // A·c with c constant must not panic and must not produce gradients.
        let mut store = ParamStore::new();
        let tape = Tape::new();
        let a = tape.sparse(Rc::new(CsrAdj::from_dense(&Matrix::identity(2), 0.0)));
        let c = tape.constant(Matrix::ones(2, 1));
        let loss = a.matmul(c).sum();
        loss.backward(&mut store);
        assert_eq!(loss.scalar(), 2.0);
    }

    #[test]
    fn spmm_occlusion_quadratic_form_gradient() {
        // f = rᵀ(A·r) with sparse A: df/dr = (A + Aᵀ)r, the Eq. 4 penalty.
        let mut store = ParamStore::new();
        let r = store.register("r", Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap());
        let a_mat = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let tape = Tape::new();
        let rv = tape.param(&store, r);
        let a = tape.sparse(Rc::new(CsrAdj::from_dense(&a_mat, 0.0)));
        let loss = rv.t().matmul(a.matmul(rv)).sum();
        assert_eq!(loss.scalar(), 4.0);
        loss.backward(&mut store);
        let expected = a_mat.add(&a_mat.transpose()).matmul(store.value(r));
        assert!(store.grad(r).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn export_import_flat_round_trips() {
        let mut store = ParamStore::new();
        let a = store.register("a", Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap());
        let b = store.register("b", Matrix::from_vec(2, 1, vec![3.0, 4.0]).unwrap());
        let flat = store.export_flat();
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0]);
        store.value_mut(a).fill(0.0);
        store.value_mut(b).fill(0.0);
        assert!(store.import_flat(&flat));
        assert_eq!(store.value(a).as_slice(), &[1.0, 2.0]);
        assert_eq!(store.value(b).as_slice(), &[3.0, 4.0]);
        assert!(!store.import_flat(&[1.0]));
    }

    #[test]
    fn reset_reuses_buffers_and_preserves_results() {
        // Two identical forward/backward passes over the same arena tape must
        // produce bit-identical losses and gradients even though the second
        // pass runs entirely on recycled (stale-content) pooled buffers.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_fn(3, 3, |r, c| (r + 2 * c) as f64 * 0.1 - 0.3));
        let run = |tape: &Tape, store: &mut ParamStore| {
            store.zero_grads();
            let wv = tape.param(store, w);
            let c = tape.constant(Matrix::from_fn(3, 3, |r, c| (r * c) as f64 * 0.05 + 0.01));
            let loss = (wv.matmul(c).sigmoid() * wv).t().sum();
            let l = loss.scalar();
            loss.backward(store);
            l
        };
        let tape = Tape::new();
        let l1 = run(&tape, &mut store);
        let g1 = store.grad(w).clone();
        tape.reset();
        assert!(tape.is_empty());
        let l2 = run(&tape, &mut store);
        assert_eq!(l1.to_bits(), l2.to_bits());
        for (a, b) in g1.as_slice().iter().zip(store.grad(w).as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn constant_rc_and_constant_from_match_constant() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64 * 0.25 - 0.5);
        let tape = Tape::new();
        let owned = tape.constant(m.clone());
        let shared = tape.constant_rc(Rc::new(m.clone()));
        let borrowed = tape.constant_from(&m);
        assert_eq!(owned.value().as_slice(), shared.value().as_slice());
        assert_eq!(owned.value().as_slice(), borrowed.value().as_slice());
        // Gradients still flow through ops on shared constants' consumers.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(2, 3));
        let loss = (tape.param(&store, w) * shared).sum();
        loss.backward(&mut store);
        assert!(store.grad(w).approx_eq(&m, 0.0));
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} != {y}");
        }
    }

    #[test]
    fn fused_gate_blend_matches_unfused_bitwise() {
        // m ⊙ ((1−σ)⊙a + σ⊙b) as one GateBlend node must be bit-identical —
        // value and all three gradients — to the five-node Hadamard chain it
        // replaces, including the contribution *order* into σ's grad slot
        // (σ⊙b's term lands before one_minus's negated term in both paths).
        let n = 6;
        let run = |fused: bool| {
            let mut store = ParamStore::new();
            let ps = store.register("s", Matrix::from_fn(n, 1, |r, _| 0.4 * r as f64 - 1.1));
            let pa = store.register("a", Matrix::from_fn(n, 1, |r, _| 0.09 * r as f64 + 0.13));
            let pb = store.register("b", Matrix::from_fn(n, 1, |r, _| 0.77 - 0.06 * r as f64));
            let tape = Tape::new();
            let mask = tape.constant(Matrix::from_fn(n, 1, |r, _| if r % 3 == 0 { 0.0 } else { 1.0 }));
            let s = tape.param(&store, ps).sigmoid();
            let a = tape.param(&store, pa);
            let b = tape.param(&store, pb);
            let gated = if fused { mask.gate_blend(s, a, b) } else { mask * (s.one_minus() * a + s * b) };
            let w = tape.constant(Matrix::from_fn(n, 1, |r, _| 1.0 + 0.5 * r as f64));
            let loss = (gated * w).sum();
            let l = loss.scalar();
            loss.backward(&mut store);
            (l, store.grad(ps).clone(), store.grad(pa).clone(), store.grad(pb).clone())
        };
        let (lf, gs_f, ga_f, gb_f) = run(true);
        let (lu, gs_u, ga_u, gb_u) = run(false);
        assert_eq!(lf.to_bits(), lu.to_bits());
        assert_bits_eq(&gs_f, &gs_u);
        assert_bits_eq(&ga_f, &ga_u);
        assert_bits_eq(&gb_f, &gb_u);
    }

    #[test]
    fn fused_reductions_match_unfused_bitwise() {
        // DotScale / Dot3Scale / MatDotScale vs the Hadamard/MatMul+Sum+Scale
        // chains they replace. `r` carries exact zeros to exercise the
        // matmul zero-skip convention shared by both quadratic-form paths.
        let rv = Matrix::from_vec(4, 1, vec![0.6, 0.0, -0.3, 0.8]).unwrap();
        let rpv = Matrix::from_vec(4, 1, vec![0.1, 0.9, 0.0, 0.4]).unwrap();
        let pm = Matrix::from_vec(4, 1, vec![0.25, 0.5, 0.125, 0.75]).unwrap();
        let sm = Matrix::from_vec(4, 1, vec![0.3, 0.2, 0.7, 0.15]).unwrap();
        let am = Matrix::from_fn(4, 4, |r, c| if r == c { 0.0 } else { (r as f64 - c as f64) * 0.3 });

        let dot = |fused: bool| {
            let mut store = ParamStore::new();
            let pr = store.register("r", rv.clone());
            let tape = Tape::new();
            let r = tape.param(&store, pr);
            let p = tape.constant(pm.clone());
            let loss = if fused { r.dot_scale(p, -0.5) } else { (r * p).sum().scale(-0.5) };
            let l = loss.scalar();
            loss.backward(&mut store);
            (l, store.grad(pr).clone())
        };
        let (lf, gf) = dot(true);
        let (lu, gu) = dot(false);
        assert_eq!(lf.to_bits(), lu.to_bits());
        assert_bits_eq(&gf, &gu);

        let dot3 = |fused: bool| {
            let mut store = ParamStore::new();
            let pr = store.register("r", rv.clone());
            let prp = store.register("rp", rpv.clone());
            let tape = Tape::new();
            let r = tape.param(&store, pr);
            let rp = tape.param(&store, prp);
            let s = tape.constant(sm.clone());
            let loss = if fused { r.dot3_scale(rp, s, -0.5) } else { (r * rp * s).sum().scale(-0.5) };
            let l = loss.scalar();
            loss.backward(&mut store);
            (l, store.grad(pr).clone(), store.grad(prp).clone())
        };
        let (lf, gr_f, grp_f) = dot3(true);
        let (lu, gr_u, grp_u) = dot3(false);
        assert_eq!(lf.to_bits(), lu.to_bits());
        assert_bits_eq(&gr_f, &gr_u);
        assert_bits_eq(&grp_f, &grp_u);

        let quad = |fused: bool| {
            let mut store = ParamStore::new();
            let pr = store.register("r", rv.clone());
            let tape = Tape::new();
            let r = tape.param(&store, pr);
            let a = tape.constant(am.clone());
            let loss = if fused {
                r.t().mat_dot_scale(a.matmul(r), 0.4)
            } else {
                r.t().matmul(a.matmul(r)).sum().scale(0.4)
            };
            let l = loss.scalar();
            loss.backward(&mut store);
            (l, store.grad(pr).clone())
        };
        let (lf, gf) = quad(true);
        let (lu, gu) = quad(false);
        assert_eq!(lf.to_bits(), lu.to_bits());
        assert_bits_eq(&gf, &gu);
    }

    #[test]
    fn param_nodes_are_memoized_within_a_pass() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64 + 1.0));
        let tape = Tape::new();
        let a = tape.param(&store, w);
        let b = tape.param(&store, w);
        assert_eq!(a.id, b.id, "one pass must share one node per param");
        // f = Σ w⊙w through the shared node: df/dw = 2w.
        let loss = (a * b).sum();
        loss.backward(&mut store);
        let expected = Matrix::from_fn(2, 2, |r, c| 2.0 * ((r * 2 + c) as f64 + 1.0));
        assert!(store.grad(w).approx_eq(&expected, 1e-12));
        // reset() must drop the memo so the next pass re-reads the store.
        tape.reset();
        store.value_mut(w).fill(5.0);
        let c = tape.param(&store, w);
        assert!(c.value().approx_eq(&Matrix::full(2, 2, 5.0), 0.0));
    }

    #[test]
    fn grad_clipping_bounds_global_norm() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 2));
        let tape = Tape::new();
        let loss = tape.param(&store, w).scale(100.0).sum();
        loss.backward(&mut store);
        let pre = store.clip_grad_norm(1.0);
        assert!(pre > 100.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-9);
    }
}
