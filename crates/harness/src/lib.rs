#![warn(missing_docs)]
//! Parallel experiment orchestration with content-addressed result caching.
//!
//! The simulator is deterministic and single-threaded, and one paper figure
//! needs dozens to hundreds of independent runs — a shape that wants a job
//! system, not ad-hoc loops. This crate provides it:
//!
//! - [`JobSpec`] pins down one experiment (workload id × machine model ×
//!   configuration overrides) and hashes every knob into a stable
//!   [`JobSpec::content_hash`].
//! - [`Cache`] stores each finished [`RunRecord`] under
//!   `results/cache/<hash>.json` (hand-rolled JSON — the workspace builds
//!   offline with zero external dependencies), so re-running a figure whose
//!   jobs are cached performs zero simulations.
//! - [`run_jobs`] fans a batch out over `std::thread::scope` workers;
//!   results come back in input order, so parallelism can never change what
//!   a figure reports.
//! - [`sets`] defines the per-figure job sets shared by the `cargo bench`
//!   targets and the `r2d2 sweep` CLI, which therefore share cache entries.
//! - [`export_csv`] materializes the cache as `results/run_records.csv` for
//!   `scripts/summarize_results.py`.

pub mod cache;
pub mod export;
pub mod record;
pub mod runner;
pub mod sets;
pub mod spec;

/// The workspace's hand-rolled JSON layer now lives in `r2d2-trace` (the
/// bottom of the crate stack) so the simulator's exporters can use it too;
/// re-exported here so `r2d2_harness::json::...` paths keep working.
pub use r2d2_trace::json;

pub use cache::{results_dir, Cache};
pub use export::{
    cache_entries, default_csv_path, default_profiles_dir, export_csv, write_profile_artifacts,
    write_profile_artifacts_in,
};
pub use record::RunRecord;
pub use runner::{
    execute, execute_with_profiler, resolve_threads, run_jobs, run_jobs_with, run_model, Executor,
    RunOptions, RunSummary,
};
pub use spec::{ConfigOverrides, JobSpec, ModelSpec, SCHEMA_VERSION};

/// Cooperative cancellation token, re-exported from `r2d2-sim` so service
/// layers can thread it through [`Executor::cancel`] without a direct sim
/// dependency.
pub use r2d2_sim::CancelToken;
/// Live time-series mirror, re-exported from `r2d2-trace` for
/// [`Executor::progress`].
pub use r2d2_trace::{Progress, ProgressSnapshot};

/// Workload size selected by `R2D2_SIZE` (default: full) — shared by the
/// bench targets and the CLI.
pub fn size_from_env() -> r2d2_workloads::Size {
    match std::env::var("R2D2_SIZE").as_deref() {
        Ok("small") | Ok("Small") | Ok("SMALL") => r2d2_workloads::Size::Small,
        _ => r2d2_workloads::Size::Full,
    }
}
