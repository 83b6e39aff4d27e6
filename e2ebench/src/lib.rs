//! End-to-end benchmark of the R2D2 reproduction.
//!
//! Three closed-loop workloads measure the system from outside, through the
//! library's public functions only:
//!
//! - `sweep-cold`: every named figure set at `Size::Small` (453 distinct
//!   jobs) through `r2d2_harness::run_jobs_with` with one worker per CPU and
//!   an empty cache, plus `export_csv`; then repeated all-hit passes over
//!   the full cache. Touches no service code.
//! - `serve-hit`: one in-process `r2d2_serve::Server` over a cache prefilled
//!   with the `fig12` Small records, driven by two client threads with a
//!   70/20/10 mix of `GET /v1/jobs/<id>`, `POST /v1/jobs?wait=1` of cached
//!   specs and `GET /v1/healthz`. The simulator does no work.
//! - `fleet-cold`: two `r2d2 serve` backends (one worker each, empty
//!   caches) behind an `r2d2_dispatch::Dispatcher`; two clients submit the
//!   `fig12` Small set in seed-shuffled order, three in four with `?wait=1`
//!   and one in four followed to its terminal progress line, with about one
//!   submission in five repeating a spec already sent.
//!
//! The untraced run reports the end-to-end metrics ([`E2E`]). A separate
//! `--trace 1` run times each layer's public calls in spans and reports the
//! per-layer metrics ([`PER_LAYER`]). Every run checks every record it sees
//! against the committed digests in `golden/records.digest`.

pub mod digest;
pub mod fleet;
pub mod nodes;
pub mod prom;
pub mod serve_hit;
pub mod span;
pub mod stats;
pub mod sweep;

use std::path::PathBuf;

use r2d2_sym::Rng;

/// End-to-end metrics `(name, unit)`; every workload reports all of them.
/// What "operation" means per workload is documented in `README.md`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// metric of a layer or path the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("core.transform_ms", "ms"),
    ("sim.timing_ms", "ms"),
    ("sim.timing_ms.baseline", "ms"),
    ("sim.timing_ms.dac", "ms"),
    ("sim.timing_ms.darsie", "ms"),
    ("sim.timing_ms.darsie_scalar", "ms"),
    ("sim.timing_ms.r2d2", "ms"),
    ("sim.functional_ms", "ms"),
    ("sim.warp_instrs", "count"),
    ("sim.cycles", "count"),
    ("sim.warp_instrs_per_s", "1/s"),
    ("energy.breakdown_ms", "ms"),
    ("harness.cache_store_ms", "ms"),
    ("harness.cache_load_ms", "ms"),
    ("harness.cache_load_hit_ms", "ms"),
    ("harness.first_hit_pass_ms", "ms"),
    ("harness.hit_pass_ms", "ms"),
    ("harness.csv_export_ms", "ms"),
    ("serve.healthz_p50_ms", "ms"),
    ("serve.get_live_p50_ms", "ms"),
    ("serve.get_disk_p50_ms", "ms"),
    ("serve.post_hit_p50_ms", "ms"),
    ("serve.jobs_simulated_total", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.overhead_p50_ms.wait", "ms"),
    ("serve.overhead_p50_ms.watch", "ms"),
    ("serve.deduped_total", "count"),
    ("trace.mirror_ratio", "ratio"),
    ("dispatch.hop_p50_ms", "ms"),
    ("dispatch.busiest_backend_share", "ratio"),
    ("dispatch.retries_total", "count"),
    ("dispatch.failover_total", "count"),
    ("workloads.share", "ratio"),
    ("core.share", "ratio"),
    ("sim.share", "ratio"),
    ("energy.share", "ratio"),
    ("harness.share", "ratio"),
    ("trace.share", "ratio"),
    ("serve.share", "ratio"),
    ("dispatch.share", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_ms", "ms"),
    ("ops.attempted", "count"),
    ("ops.succeeded", "count"),
    ("ops.failed", "count"),
];

/// Workload names, in report order.
pub const WORKLOADS: &[&str] = &["sweep-cold", "serve-hit", "fleet-cold"];

/// Independent set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seeds job order, request mix, and which jobs are watched or repeated.
    pub seed: u64,
    /// Measurement duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Working directory for this run's caches; removed afterwards.
    pub work: PathBuf,
}

impl RunCfg {
    /// A generator for one purpose, derived from the run seed.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream),
        )
    }
}

/// One metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`E2E`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or returned a wrong
    /// body.
    pub failed: u64,
    /// Failed checks (records, invariants), reported and fatal to
    /// `correct`.
    pub errors: Vec<String>,
    /// Metric values.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<span::Span>,
}

impl Outcome {
    /// Set a metric (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value });
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Add a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Count one attempted operation, failed when `result` is an error.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.error(e);
        }
    }

    /// Fold a client thread's operations and failed checks into this run.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            self.error(e);
        }
    }

    /// Set every `<layer>.share` metric and `bench.unattributed_share` from
    /// `split`, and report them, flagging layers under 5% of the time
    /// (record those, do not optimise them).
    pub fn set_shares(&mut self, split: &span::Split) {
        let mut parts = Vec::new();
        for (name, _) in PER_LAYER {
            let Some(layer) = name.strip_suffix(".share") else {
                continue;
            };
            let share = split.share(layer);
            self.set(name, share);
            if split.self_ms.contains_key(layer) {
                let flag = if share < 0.05 {
                    " (<5%: record, don't optimise)"
                } else {
                    ""
                };
                parts.push(format!("{layer} {:.1}%{flag}", share * 100.0));
            }
        }
        let rest = split.share("bench");
        self.set("bench.unattributed_share", rest);
        self.line(format!(
            "layer shares of {:.0} ms: {}; not covered by a layer span: {:.1}%",
            split.root_ms,
            parts.join(", "),
            rest * 100.0
        ));
    }

    /// Record a failed check that is not itself an operation.
    pub fn error(&mut self, err: String) {
        // Keep the report readable when one defect fails many operations.
        if self.errors.len() < 20 {
            self.errors.push(err);
        }
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Online CPUs of the host (`processor` entries of `/proc/cpuinfo`).
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|t| t.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// CPUs this process may use (`std::thread::available_parallelism`).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
