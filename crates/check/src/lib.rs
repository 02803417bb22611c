//! # xr_check — the correctness harness
//!
//! Reusable verification tooling for the AFTER/POSHGNN workspace, built on
//! three pillars:
//!
//! * [`diff`] — a **differential oracle runner**: any pair of supposedly
//!   equivalent implementations (dense vs. CSR SpMM, naive vs. blocked
//!   matmul, grid vs. brute-force ORCA neighbors, serial vs. parallel
//!   tables, sparse vs. dense POSHGNN) is executed on proptest-generated
//!   scenarios; the first diverging step is reported with a greedily
//!   minimized counterexample and the `xr_obs` span context at the
//!   divergence point, and the report is written to an artifact file CI can
//!   upload.
//! * [`gradcheck`] — a **finite-difference gradient checker** generalized
//!   from the old `crates/tensor/tests/gradcheck.rs` helper into a library
//!   API: arbitrary multi-parameter losses ([`gradcheck::check_params`]) and
//!   the full POSHGNN episode loss walked per parameter block
//!   ([`gradcheck::check_poshgnn`]).
//! * [`golden`] — a **golden replay suite**: a seeded end-to-end run
//!   (dataset → ORCA trajectories → training → recommendation → evaluation →
//!   parallel table) serialized to a deterministic snapshot, compared
//!   byte-for-byte against checked-in golden files, regenerated with
//!   `UPDATE_GOLDEN=1`, and asserted identical at 1 and 8 workers in one
//!   process.
//!
//! Every future kernel or scheduling change is validated against this crate
//! (`cargo test -p xr_check`); every worker count it compares is an
//! explicit input, so CI runs it once. Conventions live in DESIGN.md §9.

pub mod diff;
pub mod golden;
pub mod gradcheck;
pub mod metrics;

use std::path::PathBuf;

/// Directory for machine-readable failure artifacts (minimized
/// counterexamples, mismatching snapshots). `XR_CHECK_ARTIFACTS` overrides;
/// the default is `target/xr_check/` at the workspace root, which the CI
/// `verify` job uploads when a run fails.
pub fn artifact_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("XR_CHECK_ARTIFACTS") {
        return PathBuf::from(dir);
    }
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("target");
    dir.push("xr_check");
    dir
}

/// Writes a failure artifact, returning its path (best-effort: IO errors are
/// reported on stderr but never mask the assertion that triggered the write).
pub(crate) fn write_artifact(file_name: &str, contents: &str) -> Option<PathBuf> {
    let dir = artifact_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("xr_check: cannot create artifact dir {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(file_name);
    match std::fs::write(&path, contents) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("xr_check: cannot write artifact {}: {e}", path.display());
            None
        }
    }
}

/// Formats an `f64` with shortest round-trip precision (Rust's `Display`
/// algorithm is deterministic and bit-faithful), so snapshot and report text
/// is byte-stable whenever the underlying computation is.
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 && v.is_sign_negative() {
        // canonicalize -0.0: sign of zero is not observable in any table
        "0".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_dir_lands_in_target() {
        let dir = artifact_dir();
        assert!(dir.ends_with("target/xr_check") || std::env::var("XR_CHECK_ARTIFACTS").is_ok());
    }

    #[test]
    fn f64_formatting_round_trips_and_canonicalizes_zero() {
        for v in [0.1 + 0.2, 1.0 / 3.0, 6.02214076e23, -1.5e-300] {
            assert_eq!(fmt_f64(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(fmt_f64(-0.0), "0");
        assert_eq!(fmt_f64(0.0), "0");
    }
}
