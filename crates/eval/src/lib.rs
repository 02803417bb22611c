//! # xr-eval
//!
//! Evaluation harness for the AFTER/POSHGNN reproduction:
//!
//! * [`stats`] — descriptive statistics, Pearson/Spearman correlations, and
//!   Welch's t-test with incomplete-beta p-values.
//! * [`runner`] — method training/timing/evaluation, the eight-method
//!   comparison (Tables II–IV), and the ablation runner (Table V).
//! * [`par`] — scoped-thread work-queue parallelism for the independent
//!   (method × scenario × seed) experiment cells, on the worker count in
//!   [`ComparisonConfig::workers`]; results are identical at any worker
//!   count. (The implementation lives in `xr_serve::par`, shared with the
//!   multi-room scheduler; this re-export is the stable path.)
//! * [`userstudy`] — the 48-participant user-study simulator (Fig. 4 and
//!   Table VIII).
//!
//! The table/figure regeneration binaries live in `src/bin/` — one per paper
//! artifact (`table2` … `table8`, `fig2_walkthrough`, `fig4`).
//!
//! ## Observability
//!
//! The runner and binaries are instrumented with `xr_obs`: spans around the
//! comparison/ablation drivers and every method cell, per-method wall-time
//! histograms, and objective-value gauges. All binaries accept
//! `--trace[=PATH]` / `--metrics[=PATH]` flags (or the `AFTER_TRACE` /
//! `AFTER_METRICS` environment variables) to write a Chrome/Perfetto trace
//! and a metrics snapshot; with neither set, the instrumentation is inert.
//! [`par`] propagates the caller's sink context into its workers, so cell
//! telemetry merges into one registry at any worker count.
//!
//! No library code here reads the environment. The binaries parse
//! `AFTER_THREADS` once ([`xr_obs::threads_from_env`]) into
//! [`ComparisonConfig::workers`], and `AFTER_SLO_BUDGET_MS` /
//! `--slo-budget-ms` reach [`run_method`] as the installed context's
//! [`xr_obs::ObsCtx::slo_budget_ms`].

pub mod report;
pub mod runner;
pub mod stats;
pub mod userstudy;

pub use runner::{
    build_contexts, pick_targets, run_ablation, run_comparison, run_method, Comparison, ComparisonConfig,
    DelayedRecommender, MethodResult, RenderAllRecommender,
};
pub use stats::{mean, pearson, spearman, std_dev, variance, welch_t_test, WelchResult};
pub use userstudy::{run_user_study, CorrelationTable, StudyOutcome, UserStudyConfig, UserStudyResult};
// The worker pool moved to `xr_serve::par` when the multi-room scheduler
// became its second consumer; re-exported here so `xr_eval::par` paths keep
// working unchanged.
pub use xr_serve::par;
pub use xr_serve::par::par_map_indexed;
