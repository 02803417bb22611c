//! Op-level gradient checks — the property suite promoted from
//! `crates/tensor/tests/gradcheck.rs`, now driven through the
//! `xr_check::gradcheck` library API, plus the tape SpMM op.

use std::rc::Rc;

use proptest::prelude::*;
use xr_check::gradcheck::{check_single, GradCheckConfig};
use xr_tensor::{CsrAdj, Matrix};

fn cfg() -> GradCheckConfig {
    GradCheckConfig::default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grad_of_sigmoid_weighted_sum(vals in proptest::collection::vec(-3.0_f64..3.0, 6)) {
        check_single(&vals, 2, 3, &cfg(), |tape, w| {
            let c = tape.constant(Matrix::from_fn(2, 3, |r, c| (r + c) as f64 * 0.5 + 0.1));
            (w.sigmoid() * c).sum()
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_of_tanh_chain(vals in proptest::collection::vec(-2.0_f64..2.0, 4)) {
        check_single(&vals, 2, 2, &cfg(), |tape, w| {
            let a = tape.constant(Matrix::from_fn(2, 2, |r, c| 1.0 + (r * 2 + c) as f64));
            a.matmul(w).tanh().sum()
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_of_quadratic_form(vals in proptest::collection::vec(-2.0_f64..2.0, 3)) {
        check_single(&vals, 3, 1, &cfg(), |tape, r| {
            // symmetric adjacency-like constant
            let a = tape.constant(Matrix::from_fn(3, 3, |i, j| if i == j { 0.0 } else { 1.0 }));
            r.t().matmul(a).matmul(r).sum()
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_of_gate_expression(vals in proptest::collection::vec(0.05_f64..0.95, 4)) {
        // Mimics the POSHGNN preservation gate: (1-σ)⊗r̃ + σ⊗r_prev.
        check_single(&vals, 4, 1, &cfg(), |tape, sigma| {
            let r_tilde = tape.constant(Matrix::from_fn(4, 1, |r, _| 0.2 + 0.1 * r as f64));
            let r_prev = tape.constant(Matrix::from_fn(4, 1, |r, _| 0.9 - 0.15 * r as f64));
            let gated = sigma.sigmoid().one_minus() * r_tilde + sigma.sigmoid() * r_prev;
            let weight = tape.constant(Matrix::from_fn(4, 1, |r, _| 1.0 + r as f64));
            (gated * weight).sum()
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_of_mean_relu(vals in proptest::collection::vec(-3.0_f64..3.0, 6)) {
        // Values away from the ReLU kink (finite differences are invalid at 0).
        let shifted: Vec<f64> = vals.iter().map(|v| if v.abs() < 0.1 { v + 0.2 } else { *v }).collect();
        check_single(&shifted, 3, 2, &cfg(), |tape, w| {
            let m = tape.constant(Matrix::from_fn(3, 2, |r, c| 0.3 * (r as f64) - 0.7 * c as f64 + 0.5));
            (w.relu() * m).mean()
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_through_concat(vals in proptest::collection::vec(-1.0_f64..1.0, 4)) {
        check_single(&vals, 2, 2, &cfg(), |tape, w| {
            let other = tape.constant(Matrix::ones(2, 3));
            let cat = tape.concat_cols(&[w, other]);
            let mix = tape.constant(Matrix::from_fn(2, 5, |r, c| (r + 1) as f64 * 0.2 + c as f64 * 0.1));
            (cat * mix).sum()
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_through_broadcast_bias(vals in proptest::collection::vec(-1.0_f64..1.0, 3)) {
        check_single(&vals, 1, 3, &cfg(), |tape, b| {
            let x = tape.constant(Matrix::from_fn(4, 3, |r, c| (r as f64) * 0.5 - c as f64 * 0.25));
            x.add_row_broadcast(b).sigmoid().sum()
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_through_tape_spmm(vals in proptest::collection::vec(-1.5_f64..1.5, 10)) {
        // Sparse aggregation · dense parameter — the native tape SpMM op
        // whose backward is the lazily cached CSR transpose · gradient.
        let adj = Rc::new(CsrAdj::from_entries(
            5,
            5,
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 3, 0.5), (2, 2, 2.0), (3, 1, 0.5), (4, 0, 1.5), (4, 4, 0.25)],
        ));
        check_single(&vals, 5, 2, &cfg(), move |tape, w| {
            let agg = tape.sparse(adj.clone());
            let weight = tape.constant(Matrix::from_fn(5, 2, |r, c| 0.2 * (r + 1) as f64 - 0.3 * c as f64));
            (agg.matmul(w).sigmoid() * weight).sum()
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_of_fused_gate_blend(vals in proptest::collection::vec(-2.0_f64..2.0, 4)) {
        // The single-node preservation gate m⊙((1−σ)⊙r̃ + σ⊙r_prev), with the
        // checked variable feeding all three differentiable inputs at once so
        // every backward arm (σ, a, b) and the in-slot accumulation are hit.
        check_single(&vals, 4, 1, &cfg(), |tape, w| {
            let mask = tape.constant(Matrix::from_fn(4, 1, |r, _| if r == 2 { 0.0 } else { 1.0 }));
            let gated = mask.gate_blend(w.sigmoid(), w.tanh(), w);
            let weight = tape.constant(Matrix::from_fn(4, 1, |r, _| 1.0 + r as f64));
            (gated * weight).sum()
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_of_fused_dot_scale(vals in proptest::collection::vec(-1.5_f64..1.5, 5)) {
        // (a ⊙ b)·k as one DotScale node, both operands live.
        check_single(&vals, 5, 1, &cfg(), |_tape, r| r.dot_scale(r.sigmoid(), -0.5)).assert_within(1e-5);
    }

    #[test]
    fn grad_of_fused_dot3_scale(vals in proptest::collection::vec(-1.5_f64..1.5, 4)) {
        // (a ⊙ b ⊙ c)·k as one Dot3Scale node, all three operands live.
        check_single(&vals, 4, 1, &cfg(), |_tape, r| r.dot3_scale(r.sigmoid(), r.tanh(), -0.7))
            .assert_within(1e-5);
    }

    #[test]
    fn grad_of_fused_quadratic_penalty(vals in proptest::collection::vec(-1.0_f64..1.0, 4)) {
        // α·rᵀ(A·r) collapsed into a single MatDotScale node over the
        // transpose and SpMM — the fused form of the Def. 7 occlusion term.
        let adj = Rc::new(CsrAdj::from_entries(
            4,
            4,
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 0, 0.5), (0, 3, 0.5)],
        ));
        check_single(&vals, 4, 1, &cfg(), move |tape, r| {
            let a = tape.sparse(adj.clone());
            r.t().mat_dot_scale(a.matmul(r), 0.4)
        })
        .assert_within(1e-5);
    }

    #[test]
    fn grad_through_sparse_quadratic_penalty(vals in proptest::collection::vec(-1.0_f64..1.0, 4)) {
        // rᵀ·(A·r): the sparse occlusion-penalty path of the Def. 7 loss.
        let adj = Rc::new(CsrAdj::from_entries(
            4,
            4,
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 0, 0.5), (0, 3, 0.5)],
        ));
        check_single(&vals, 4, 1, &cfg(), move |tape, r| {
            let a = tape.sparse(adj.clone());
            r.t().matmul(a.matmul(r)).sum()
        })
        .assert_within(1e-5);
    }
}
