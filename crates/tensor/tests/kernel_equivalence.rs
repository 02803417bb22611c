//! Property-based equivalence tests for the performance kernels.
//!
//! The hot-path overhaul (blocked matmul, CSR SpMM, sparse autodiff) must be
//! a pure performance change: every optimized kernel is checked here against
//! its straightforward reference implementation on randomized inputs.

use proptest::prelude::*;
use std::rc::Rc;
use xr_tensor::{CsrAdj, Matrix, ParamStore, Tape};

/// Builds a random sparse matrix from normalized `(row, col, value)` triples
/// (unit-interval coordinates scaled to the target shape; duplicates sum).
fn csr_from_raw(rows: usize, cols: usize, raw: &[(f64, f64, f64)]) -> CsrAdj {
    let entries: Vec<(usize, usize, f64)> = raw
        .iter()
        .map(|&(x, y, v)| {
            let r = ((x * rows as f64) as usize).min(rows - 1);
            let c = ((y * cols as f64) as usize).min(cols - 1);
            (r, c, v)
        })
        .collect();
    CsrAdj::from_entries(rows, cols, &entries)
}

fn dense_from_raw(rows: usize, cols: usize, raw: &[f64]) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| raw[(r * cols + c) % raw.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The register-tiled matmul must match the naive i-k-j loop exactly on
    /// shapes with full and partial 2×8 tiles: it accumulates over k in
    /// ascending order with identical arithmetic (including the a == 0.0
    /// skip), so the results are bit-for-bit equal, well inside the 1e-9
    /// contract.
    #[test]
    fn dispatched_matmul_equals_naive(
        dims in (33usize..90, 33usize..90, 33usize..90),
        raw in proptest::collection::vec(-2.0f64..2.0, 64),
    ) {
        let (m, k, n) = dims;
        let a = dense_from_raw(m, k, &raw);
        let b = dense_from_raw(k, n, &raw[32..]);
        let blocked = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        let scale = naive.as_slice().iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
        for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-9 * scale, "blocked {x} vs naive {y}");
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// CSR SpMM must match densifying the operand and multiplying naively.
    #[test]
    fn csr_matmul_dense_equals_dense_reference(
        shape in (2usize..30, 2usize..30, 1usize..6),
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, -2.0f64..2.0), 40),
        xraw in proptest::collection::vec(-2.0f64..2.0, 32),
    ) {
        let (rows, mid, cols) = shape;
        let csr = csr_from_raw(rows, mid, &raw);
        let x = dense_from_raw(mid, cols, &xraw);
        let sparse = csr.matmul_dense(&x);
        let dense = csr.to_dense().matmul_naive(&x);
        let scale = dense.as_slice().iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
        for (s, d) in sparse.as_slice().iter().zip(dense.as_slice()) {
            prop_assert!((s - d).abs() <= 1e-9 * scale, "sparse {s} vs dense {d}");
        }
    }

    /// matvec and the quadratic form must agree with the dense path.
    #[test]
    fn csr_matvec_and_quadratic_form_match_dense(
        n in 2usize..25,
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, -1.5f64..1.5), 30),
        vraw in proptest::collection::vec(-1.0f64..1.0, 25),
    ) {
        let csr = csr_from_raw(n, n, &raw);
        let x: Vec<f64> = (0..n).map(|i| vraw[i % vraw.len()]).collect();
        let y: Vec<f64> = (0..n).map(|i| vraw[(i + 7) % vraw.len()]).collect();

        let mv = csr.matvec(&y);
        let dense_mv = csr.to_dense().matmul_naive(&Matrix::col_vec(&y));
        for (a, b) in mv.iter().zip(dense_mv.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-9, "matvec {a} vs {b}");
        }

        let q = csr.quadratic_form(&x, &y);
        let dense_q: f64 = x.iter().zip(mv.iter()).map(|(&a, &b)| a * b).sum();
        prop_assert!((q - dense_q).abs() <= 1e-9);
    }

    /// Backprop through the sparse SpMM op must produce the same parameter
    /// gradient as routing the same adjacency through a dense constant.
    #[test]
    fn spmm_gradient_equals_dense_gradient(
        shape in (2usize..15, 1usize..5),
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, -1.5f64..1.5), 25),
        xraw in proptest::collection::vec(-1.0f64..1.0, 24),
    ) {
        let (n, cols) = shape;
        let adj = csr_from_raw(n, n, &raw);
        let x0 = dense_from_raw(n, cols, &xraw);
        let weight = dense_from_raw(n, cols, &xraw[5..]);

        let grad_via = |sparse: bool| {
            let mut store = ParamStore::new();
            let xp = store.register("x", x0.clone());
            let tape = Tape::new();
            let x = tape.param(&store, xp);
            let w = tape.constant(weight.clone());
            let agg = if sparse {
                tape.sparse(Rc::new(adj.clone())).matmul(x)
            } else {
                tape.constant(adj.to_dense()).matmul(x)
            };
            (agg * w).sum().backward(&mut store);
            store.grad(xp).clone()
        };

        let gs = grad_via(true);
        let gd = grad_via(false);
        for (a, b) in gs.as_slice().iter().zip(gd.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-9, "sparse grad {a} vs dense grad {b}");
        }
    }
}
