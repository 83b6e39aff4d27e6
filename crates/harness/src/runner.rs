//! Job execution and the parallel worker pool.
//!
//! Each job is one deterministic simulation; the pool runs independent jobs
//! on `std::thread::scope` workers pulling from a shared atomic index.
//! Results land in per-job slots, so the output order always matches the
//! input order regardless of which worker finished when — `--jobs N` can
//! never change what a figure reports, only how fast it appears.
//!
//! Orthogonally, each simulation can itself shard its SMs across threads
//! ([`JobSpec::threads`], or the `R2D2_THREADS` environment variable);
//! that is bit-identical too, so neither knob affects results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use r2d2_baselines::{measure_ideals_cancellable, IdealCounts};
use r2d2_energy::EnergyModel;
use r2d2_sim::{CancelToken, GlobalMem, GpuConfig, Profiler, SimSession, Stats};
use r2d2_trace::Progress;
use r2d2_workloads::Workload;

use crate::cache::Cache;
use crate::record::RunRecord;
use crate::spec::{JobSpec, ModelSpec};

/// How to run a batch of jobs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads; `0` picks `min(available_parallelism, #jobs)`.
    pub jobs: usize,
    /// Read cached results. (Completed jobs are written back to the cache
    /// either way, so `--no-cache` acts as a refresh.)
    pub use_cache: bool,
    /// Print a per-job progress line (stderr).
    pub verbose: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: 0,
            use_cache: true,
            verbose: true,
        }
    }
}

/// What a batch did, plus the records in input order.
#[derive(Debug)]
pub struct RunSummary {
    /// One record per input spec, same order.
    pub records: Vec<RunRecord>,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Jobs actually simulated.
    pub simulated: usize,
    /// Workers that completed at least one job.
    pub workers_used: usize,
    /// End-to-end wall-clock seconds for the batch.
    pub wall_s: f64,
}

impl RunSummary {
    /// The one-line batch summary (also printed by [`run_jobs`]).
    pub fn line(&self) -> String {
        format!(
            "[harness] {} jobs: {} cached, {} simulated, {} workers, {:.1}s",
            self.records.len(),
            self.cache_hits,
            self.simulated,
            self.workers_used,
            self.wall_s
        )
    }
}

/// Resolve the effective simulator thread count for one job: the spec's
/// explicit value, else the `R2D2_THREADS` environment variable (the CI
/// matrix knob), else 1. Results are bit-identical at every thread count.
pub fn resolve_threads(spec: &JobSpec) -> u32 {
    if spec.threads > 0 {
        return spec.threads;
    }
    std::env::var("R2D2_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Execute one job now, ignoring the cache. Errors name the job rather than
/// panicking so the CLI can report bad ids gracefully.
///
/// For `spec.profile` jobs the stall-attribution profiler rides along
/// (`Stats::issued_sm_cycles`/`stall_sm_cycles` get populated) and trace
/// artifacts land under `results/profiles/` — see
/// [`crate::export::write_profile_artifacts`].
pub fn execute(spec: &JobSpec) -> Result<RunRecord, String> {
    execute_hooked(spec, None, None)
}

/// [`execute`] with a cancel token and/or a live progress mirror attached —
/// the entry point the `r2d2-serve` worker pool uses via [`Executor`].
///
/// A triggered `cancel` aborts the simulation at the next check point
/// (within one epoch) with a "cancelled" error. When `progress` is supplied
/// and the spec is not itself a profiled job, a throwaway profiler rides
/// along purely to feed the mirror: its totals are **not** absorbed into the
/// record's `Stats`, so the result stays bit-identical to an unobserved run
/// (and cache-compatible with it).
fn execute_hooked(
    spec: &JobSpec,
    cancel: Option<&CancelToken>,
    progress: Option<&Progress>,
) -> Result<RunRecord, String> {
    if !spec.profile && progress.is_none() {
        return execute_inner(spec, None, cancel, false);
    }
    let mut prof = Profiler::default();
    if let Some(p) = progress {
        prof.share_progress(p.clone());
    }
    let rec = execute_inner(spec, Some(&mut prof), cancel, spec.profile)?;
    if spec.profile {
        if let Err(e) = crate::export::write_profile_artifacts(spec, &prof) {
            eprintln!("[harness] warning: profile artifact write failed: {e}");
        }
    }
    Ok(rec)
}

/// [`execute`] with a caller-owned [`Profiler`] attached (regardless of
/// `spec.profile`), for callers that want the full per-SM/per-warp tables
/// and time series rather than just the `Stats` totals. No artifacts are
/// written — the caller owns the profiler.
pub fn execute_with_profiler(spec: &JobSpec, prof: &mut Profiler) -> Result<RunRecord, String> {
    execute_inner(spec, Some(prof), None, true)
}

fn execute_inner(
    spec: &JobSpec,
    mut prof: Option<&mut Profiler>,
    cancel: Option<&CancelToken>,
    absorb: bool,
) -> Result<RunRecord, String> {
    let w = r2d2_workloads::resolve(&spec.workload, spec.size)
        .ok_or_else(|| format!("unknown workload id {:?}", spec.workload))?;
    let cfg = spec.overrides.apply().with_threads(resolve_threads(spec));
    let mut gmem = w.gmem.clone();
    let mut rec = run_model(spec.model, &w, &cfg, &mut gmem, prof.as_deref_mut(), cancel)?;
    if absorb {
        if let Some(p) = prof {
            rec.stats.absorb_profile(p);
        }
    }
    Ok(rec)
}

/// Run every launch of `w`, in order, under `model` against `gmem`: the one
/// path from a machine model to simulated results, shared by [`execute`],
/// the CLI, the examples and the differential tests.
///
/// The model picks its issue filter and, for R2D2, whether the transformed
/// kernel passes the Sec. 4.4 occupancy gate; `Ideals` counts instructions
/// functionally instead of timing them. The timing loop shards across
/// `cfg.threads` threads, bit-identically. A `prof` (pass a fresh one)
/// observes every launch without altering the returned `Stats`, and its
/// attribution invariant and cycle total are checked against them. A
/// triggered `cancel` aborts within one epoch, thread block or launch.
///
/// # Errors
///
/// A simulation error, cancellation or profiler mismatch, as
/// `"<workload>/<model>: <cause>"`.
pub fn run_model(
    model: ModelSpec,
    w: &Workload,
    cfg: &GpuConfig,
    gmem: &mut GlobalMem,
    mut prof: Option<&mut Profiler>,
    cancel: Option<&CancelToken>,
) -> Result<RunRecord, String> {
    let t0 = Instant::now();
    let fail = |e: &dyn std::fmt::Display| format!("{}/{}: {e}", w.name, model.name());
    let mut stats = Stats::default();
    let mut used_r2d2 = false;
    let mut ideal = (model == ModelSpec::Ideals).then(IdealCounts::default);
    let mut filter = model.filter();
    for l in &w.launches {
        // The timing loops poll the token every epoch and the functional
        // Ideals run every thread block; this check covers the gaps between
        // launches.
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(fail(&"cancelled between launches"));
        }
        if let Some(acc) = ideal.as_mut() {
            let c = measure_ideals_cancellable(l, gmem, cancel).map_err(|e| fail(&e))?;
            acc.baseline += c.baseline;
            acc.wp += c.wp;
            acc.tb += c.tb;
            acc.ln += c.ln;
            acc.baseline_warp += c.baseline_warp;
            continue;
        }
        let transformed = model.transformed_launch(cfg, l);
        used_r2d2 |= transformed.is_some();
        let launch = transformed.as_ref().unwrap_or(l);
        let mut session = SimSession::new(cfg).filter(filter.as_mut());
        if let Some(token) = cancel {
            session = session.cancel(token);
        }
        let s = match prof.as_deref_mut() {
            Some(p) => session.sink(p).run(launch, gmem),
            None => session.run(launch, gmem),
        };
        stats.merge_sequential(&s.map_err(|e| fail(&e))?);
    }

    if let Some(p) = prof {
        // Machine-check the attribution invariant on every profiled run:
        // every SM-cycle is either an issue or exactly one stall bucket.
        p.check_invariant().map_err(|e| fail(&e))?;
        if p.total_cycles() != stats.cycles {
            return Err(fail(&format_args!(
                "profiler saw {} cycles but stats report {}",
                p.total_cycles(),
                stats.cycles
            )));
        }
    }

    let energy = EnergyModel::volta().breakdown(&stats.events);
    Ok(RunRecord {
        stats,
        energy,
        used_r2d2,
        ideal,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        cached: false,
    })
}

/// The cache-aware "run one job" primitive: probe the cache, else simulate
/// and store. This is the single execution path shared by the batch pool
/// ([`run_jobs_with`]) and the `r2d2-serve` worker pool, so both report
/// identical records and keep the cache in the same shape.
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    cache: &'a Cache,
    use_cache: bool,
    cancel: Option<CancelToken>,
    progress: Option<Progress>,
}

impl<'a> Executor<'a> {
    /// An executor over `cache` that reads and writes cached results.
    pub fn new(cache: &'a Cache) -> Executor<'a> {
        Executor {
            cache,
            use_cache: true,
            cancel: None,
            progress: None,
        }
    }

    /// Skip cache reads when `false` (completed jobs are still written back,
    /// so a no-cache run acts as a refresh).
    pub fn use_cache(mut self, yes: bool) -> Self {
        self.use_cache = yes;
        self
    }

    /// Watch `token` while simulating: a triggered token aborts the run
    /// within one epoch with a "cancelled" error (which is never cached).
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Mirror the run's cycle-bucketed time series into `progress` so other
    /// threads can watch it live. The mirror is marked finished when
    /// [`Executor::run`] returns (success, failure, or cache hit — a hit
    /// finishes immediately with an empty series). Attaching a mirror does
    /// not change the produced [`RunRecord`]: profiled `Stats` totals are
    /// absorbed only for `spec.profile` jobs, exactly as without a mirror.
    pub fn progress(mut self, progress: Progress) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Probe the cache without simulating. A hit returns the record with
    /// `cached = true` and zero `wall_ms` (nothing ran), and rewrites the
    /// on-disk entry with `cached = true` (keeping the original wall-time
    /// measurement) so the flag survives into `results/run_records.csv`.
    /// Respects [`Executor::use_cache`]: always `None` when reads are off.
    pub fn probe(&self, spec: &JobSpec) -> Option<RunRecord> {
        if !self.use_cache {
            return None;
        }
        let stored = self.cache.load(spec)?;
        if !stored.cached {
            // First hit: flip the persisted flag, keep the measured wall
            // time, so the CSV materialization reports it.
            let mut flagged = stored.clone();
            flagged.cached = true;
            if let Err(e) = self.cache.store(spec, &flagged) {
                eprintln!("[harness] warning: cache rewrite failed: {e}");
            }
        }
        let mut rec = stored;
        rec.cached = true;
        rec.wall_ms = 0.0;
        Some(rec)
    }

    /// Run one job: probe the cache, else simulate and store. See
    /// [`Executor::probe`] for hit semantics and [`Executor::cancel`] /
    /// [`Executor::progress`] for the serve-side hooks.
    pub fn run(&self, spec: &JobSpec) -> Result<RunRecord, String> {
        let out = self.run_inner(spec);
        if let Some(p) = &self.progress {
            p.finish();
        }
        out
    }

    fn run_inner(&self, spec: &JobSpec) -> Result<RunRecord, String> {
        if let Some(rec) = self.probe(spec) {
            return Ok(rec);
        }
        let rec = execute_hooked(spec, self.cancel.as_ref(), self.progress.as_ref())?;
        if let Err(e) = self.cache.store(spec, &rec) {
            eprintln!("[harness] warning: cache write failed: {e}");
        }
        Ok(rec)
    }
}

fn worker_count(requested: usize, njobs: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if requested == 0 { auto } else { requested };
    n.clamp(1, njobs.max(1))
}

/// Run a batch through the default cache, printing the summary line.
///
/// # Panics
///
/// Panics if a job fails (the workload zoo is validated by tests; bad
/// workload ids should be rejected before submission).
pub fn run_jobs(specs: &[JobSpec], opts: &RunOptions) -> RunSummary {
    let cache = Cache::open_default();
    let summary = run_jobs_with(specs, opts, &cache);
    println!("{}", summary.line());
    summary
}

/// [`run_jobs`] against an explicit cache, without printing the summary.
pub fn run_jobs_with(specs: &[JobSpec], opts: &RunOptions, cache: &Cache) -> RunSummary {
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let sims = AtomicUsize::new(0);
    let workers_used = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunRecord>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let n = specs.len();
    let nworkers = worker_count(opts.jobs, n);
    let exec = Executor::new(cache).use_cache(opts.use_cache);

    std::thread::scope(|s| {
        for _ in 0..nworkers {
            s.spawn(|| {
                let mut did_any = false;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    did_any = true;
                    let spec = &specs[i];
                    let rec = exec
                        .run(spec)
                        .unwrap_or_else(|e| panic!("job {} failed: {e}", spec.label()));
                    let cached = rec.cached;
                    if cached {
                        hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        sims.fetch_add(1, Ordering::Relaxed);
                    }
                    let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if opts.verbose {
                        if cached {
                            eprintln!("  [{k}/{n}] {} (cached)", spec.label());
                        } else {
                            eprintln!("  [{k}/{n}] {} {:.0}ms", spec.label(), rec.wall_ms);
                        }
                    }
                    *slots[i].lock().unwrap() = Some(rec);
                }
                if did_any {
                    workers_used.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let records = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every slot filled"))
        .collect();
    RunSummary {
        records,
        cache_hits: hits.into_inner(),
        simulated: sims.into_inner(),
        workers_used: workers_used.into_inner(),
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_isa::{KernelBuilder, Ty};
    use r2d2_sim::{Dim3, Launch};
    use r2d2_workloads::Size;

    #[test]
    fn execute_smoke_baseline_vs_r2d2() {
        let base = execute(&JobSpec::new("NN", Size::Small, ModelSpec::Baseline)).unwrap();
        let r2 = execute(&JobSpec::new("NN", Size::Small, ModelSpec::R2d2)).unwrap();
        assert!(base.stats.cycles > 0);
        assert!(r2.used_r2d2);
        assert!(r2.stats.warp_instrs < base.stats.warp_instrs);
    }

    /// The kernel of `r2d2_core::transform`'s fallback test: 1024-thread
    /// blocks with 32 loaded values live at once fill the register file
    /// with two blocks, and the thread-index registers the transform adds
    /// would leave room for one.
    fn all_values_live_workload() -> Workload {
        let mut b = KernelBuilder::new("all_live", 1);
        let i = b.global_tid_x();
        let off = b.shl_imm_wide(i, 2);
        let p = b.ld_param(0);
        let a = b.add_wide(p, off);
        let vals: Vec<_> = (0..32).map(|k| b.ld_global(Ty::F32, a, k * 8192)).collect();
        let sum = vals[1..]
            .iter()
            .fold(vals[0], |acc, &v| b.add_ty(Ty::F32, acc, v));
        let i = b.global_tid_x();
        let off = b.shl_imm_wide(i, 2);
        let p = b.ld_param(0);
        let a = b.add_wide(p, off);
        b.st_global(Ty::F32, a, 0, sum);
        let mut gmem = GlobalMem::new();
        let buf = gmem.alloc(32 * 8192);
        let launch = Launch::new(b.build(), Dim3::d1(2), Dim3::d1(1024), vec![buf]);
        Workload {
            name: "all_live",
            suite: "test",
            gmem,
            launches: vec![launch],
        }
    }

    #[test]
    fn both_r2d2_variants_fall_back_when_the_transform_lowers_occupancy() {
        let w = all_values_live_workload();
        let cfg = GpuConfig::default().with_num_sms(2);
        let run = |model| run_model(model, &w, &cfg, &mut w.gmem.clone(), None, None).unwrap();
        let base = run(ModelSpec::Baseline);
        let r2 = run(ModelSpec::R2d2);
        let with = run(ModelSpec::R2d2With(r2d2_core::GenOptions::default()));
        assert!(!r2.used_r2d2, "R2d2 must launch the original kernel");
        assert!(!with.used_r2d2, "R2d2With must launch the original kernel");
        assert_eq!(r2.stats, with.stats);
        assert_eq!(r2.stats, base.stats, "the fallback runs the original");
    }

    #[test]
    fn execute_unknown_workload_is_err() {
        assert!(execute(&JobSpec::new("NOPE", Size::Small, ModelSpec::Baseline)).is_err());
    }

    #[test]
    fn ideals_job_fills_ideal_counts() {
        let rec = execute(&JobSpec::new("BP", Size::Small, ModelSpec::Ideals)).unwrap();
        let c = rec.ideal.expect("ideals job records counts");
        assert!(c.baseline > 0);
        assert!(c.ln <= c.baseline);
        assert_eq!(rec.stats, Stats::default(), "ideals jobs do no timing run");
    }

    #[test]
    fn pre_cancelled_executor_never_simulates_or_caches() {
        let dir = std::env::temp_dir().join(format!("r2d2-exec-cancel-{}", std::process::id()));
        let cache = Cache::at(&dir);
        let token = CancelToken::new();
        token.cancel();
        let progress = Progress::new();
        let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
        let err = Executor::new(&cache)
            .cancel(token)
            .progress(progress.clone())
            .run(&spec)
            .unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
        assert!(cache.load(&spec).is_none(), "cancelled runs are not cached");
        assert!(progress.snapshot().finished, "mirror finishes on error too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_mirror_does_not_change_the_record() {
        let dir = std::env::temp_dir().join(format!("r2d2-exec-prog-{}", std::process::id()));
        let cache = Cache::at(&dir);
        let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
        let progress = Progress::new();
        let watched = Executor::new(&cache)
            .use_cache(false)
            .progress(progress.clone())
            .run(&spec)
            .unwrap();
        let plain = execute(&spec).unwrap();
        assert_eq!(
            watched.stats, plain.stats,
            "mirrored run must stay bit-identical"
        );
        let snap = progress.snapshot();
        assert!(snap.finished);
        assert_eq!(snap.total_cycles, plain.stats.cycles);
        assert!(!snap.buckets.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(4, 2), 2);
        assert_eq!(worker_count(1, 100), 1);
        assert!(worker_count(0, 100) >= 1);
        assert_eq!(worker_count(8, 0), 1);
    }
}
