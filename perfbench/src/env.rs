//! Environment guard and run metadata.
//!
//! The program reads `AFTER_*` variables in places the benchmark cannot
//! configure (engines built inside `RoomServer` rooms read
//! `AFTER_INCREMENTAL`, `AFTER_SNAP_EPS` and `AFTER_PRUNE_K`; config
//! defaults read `AFTER_SERVE_F32`, `AFTER_THREADS`, `AFTER_SLO_BUDGET_MS`,
//! ...). [`scrub_after_env`] removes every one of them before anything is
//! constructed, so a stray shell export cannot change what is measured.

use std::path::Path;

use xr_obs::Json;

/// Removes every `AFTER_*` variable from this process's environment and
/// returns the removed names, sorted. Must run before any other thread
/// exists and before any crate of the program is called.
pub fn scrub_after_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("AFTER_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ').filter(|(_, name)| *name == reference).map(|(hash, _)| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run metadata recorded with every result: commit, CPU, `nproc`, the
/// scrubbed variables, and the workload's resolved knobs.
pub fn metadata(root: &Path, scrubbed: &[String], knobs: Json) -> Json {
    Json::obj()
        .set("commit", git_commit(root))
        .set("cpu_model", cpu_model())
        .set("nproc", nproc())
        .set("scrubbed_env", Json::Arr(scrubbed.iter().map(|s| Json::from(s.as_str())).collect()))
        .set("knobs", knobs)
}
