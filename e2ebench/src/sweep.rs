//! `sweep-cold`: regenerate every figure's results from an empty cache, then
//! answer them again from the full cache.
//!
//! Jobs run through `run_jobs_with` with one worker per CPU, the default of
//! `r2d2 sweep run` (two on a two-CPU host; each simulation stays on one
//! thread). Operations: the cold pass's jobs and every job of every all-hit
//! pass. `throughput_per_s` is cold-pass jobs per second (`run_jobs_with`
//! plus `export_csv`); `latency_p50_ms`/`latency_p90_ms` are over the all-hit
//! passes (`run_jobs_with` plus `export_csv`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use r2d2_baselines::{measure_ideals, DacFilter, DarsieFilter, DarsieScalarFilter, IdealCounts};
use r2d2_core::transform::make_launch;
use r2d2_energy::EnergyModel;
use r2d2_harness::{export_csv, run_jobs_with, Cache, JobSpec, ModelSpec, RunOptions, RunRecord};
use r2d2_sim::{BaselineFilter, IssueFilter, Launch, SimSession, Stats};
use r2d2_workloads::Size;

use crate::digest::{by_hash, sweep_specs, Golden};
use crate::span::{Ctx, Split, Tracer};
use crate::stats::{describe, median, min_samples_for, tail_percentile};
use crate::{ms, shuffle, Outcome, RunCfg, SETUP_REPS};

/// Later all-hit passes the traced run times after the first one.
const TRACED_HIT_PASSES: usize = 5;

/// Worker threads, as `r2d2 sweep run` picks them by default.
fn workers() -> usize {
    crate::host_parallelism()
}

fn sweep_options() -> RunOptions {
    RunOptions {
        jobs: workers(),
        use_cache: true,
        verbose: false,
    }
}

/// Check a pass's records against the committed digests; one operation per
/// record.
fn check_pass(
    out: &mut Outcome,
    golden: &Golden,
    specs: &[JobSpec],
    records: &[RunRecord],
    cached: bool,
) {
    for (spec, rec) in specs.iter().zip(records) {
        let flag = if rec.cached == cached {
            Ok(())
        } else {
            Err(format!(
                "{}: cached={} in a {} pass",
                spec.label(),
                rec.cached,
                if cached { "hit" } else { "cold" }
            ))
        };
        out.op(flag.and_then(|()| golden.check(spec, rec)));
    }
}

/// The seed-shuffled job list, except that the Table 3 jobs (scaled
/// backprop, always full size, by far the largest inputs) run first in set
/// order. Two workers then always run the largest pair side by side, so
/// peak memory does not depend on where the shuffle put them.
fn job_order(cfg: &RunCfg) -> Vec<JobSpec> {
    let (mut order, mut rest): (Vec<JobSpec>, Vec<JobSpec>) = sweep_specs()
        .into_iter()
        .partition(|s| s.size == Size::Full);
    shuffle(&mut rest, &mut cfg.rng(1));
    order.extend(rest);
    order
}

/// Run the workload.
pub fn run(cfg: &RunCfg, golden: &Golden, out: &mut Outcome) -> Result<(), String> {
    let mut setup = Vec::new();
    let mut specs = Vec::new();
    let mut dir = cfg.work.clone();
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        specs = job_order(cfg);
        dir = cfg.work.join(format!("sweep-{i}"));
        std::fs::create_dir_all(dir.join("cache")).map_err(|e| format!("mkdir: {e}"))?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let n = specs.len();

    // Cold passes, each on a fresh empty cache, fill the first half of the
    // run; all-hit passes over the last one fill the rest. Host speed drifts
    // over seconds, so both phases repeat past the minimum a p90 needs.
    let t_meas = Instant::now();
    let mut cold_s = Vec::new();
    let mut cold_jobs_ms = Vec::new();
    let cold_records = loop {
        if !cold_s.is_empty() {
            dir = cfg.work.join(format!("sweep-cold-{}", cold_s.len()));
        }
        let cache = Cache::at(&dir.join("cache"));
        let t = Instant::now();
        let cold = run_jobs_with(&specs, &sweep_options(), &cache);
        cold_jobs_ms.push(ms(t.elapsed()));
        let rows = export_csv(&cache, &dir.join("run_records.csv"))
            .map_err(|e| format!("export_csv: {e}"))?;
        cold_s.push(t.elapsed().as_secs_f64());
        check_pass(out, golden, &specs, &cold.records, false);
        if cold.simulated != n || rows != n {
            out.error(format!(
                "cold pass simulated {} of {n} jobs and exported {rows} rows",
                cold.simulated
            ));
        }
        if t_meas.elapsed().as_secs_f64() >= cfg.seconds / 2.0 {
            break cold.records;
        }
    };
    golden.check_aggregates(&by_hash(&specs, &cold_records), out);

    let cache = Cache::at(&dir.join("cache"));
    let csv = dir.join("run_records.csv");
    let mut warm = Vec::new();
    while warm.len() < 2 * min_samples_for(0.9) || t_meas.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let pass = run_jobs_with(&specs, &sweep_options(), &cache);
        let rows = export_csv(&cache, &csv).map_err(|e| format!("export_csv: {e}"))?;
        warm.push(ms(t.elapsed()));
        check_pass(out, golden, &specs, &pass.records, true);
        if pass.cache_hits != n || rows != n {
            out.error(format!(
                "all-hit pass answered {} of {n} from the cache, exported {rows} rows",
                pass.cache_hits
            ));
        }
    }

    let rates: Vec<f64> = cold_s.iter().map(|s| n as f64 / s).collect();
    out.set("setup_s", median(&setup).unwrap_or(0.0));
    out.set("throughput_per_s", median(&rates).unwrap_or(0.0));
    out.set("latency_p50_ms", median(&warm).unwrap_or(0.0));
    out.set("latency_p90_ms", tail_percentile(&warm, 0.9).unwrap_or(0.0));
    let jobs_ms = median(&cold_jobs_ms).unwrap_or(0.0);
    out.line(format!(
        "cold passes: {} of {n} jobs, median {:.3} s ({:.1} jobs/s; run_jobs_with {jobs_ms:.0} ms)",
        cold_s.len(),
        median(&cold_s).unwrap_or(0.0),
        median(&rates).unwrap_or(0.0),
    ));
    out.line(format!(
        "all-hit passes: {} (first {:.1} ms), {}, {}",
        warm.len(),
        warm[0],
        describe("p50", median(&warm), warm.len(), "ms"),
        describe("p90", tail_percentile(&warm, 0.9), warm.len(), "ms"),
    ));

    if cfg.trace {
        traced(cfg, golden, out, &specs, &cold_records, jobs_ms)?;
    }
    Ok(())
}

fn model_key(m: ModelSpec) -> &'static str {
    match m {
        ModelSpec::Baseline => "baseline",
        ModelSpec::Dac => "dac",
        ModelSpec::Darsie => "darsie",
        ModelSpec::DarsieScalar => "darsie_scalar",
        ModelSpec::R2d2 | ModelSpec::R2d2With(_) => "r2d2",
        ModelSpec::Ideals => "ideals",
    }
}

/// One job, re-executed call by call the way `Executor::run` executes it on
/// a cache miss, with a span around each layer call.
fn execute_traced(
    tr: &Tracer,
    ctx: Ctx,
    spec: &JobSpec,
    cache: &Cache,
) -> Result<RunRecord, String> {
    if tr
        .child(ctx, "harness", "Cache::load", |_| cache.load(spec))
        .is_some()
    {
        return Err(format!("{}: unexpected cache hit", spec.label()));
    }
    let w = tr
        .child(ctx, "workloads", "resolve", |_| {
            r2d2_workloads::resolve(&spec.workload, spec.size)
        })
        .ok_or_else(|| format!("unknown workload {}", spec.workload))?;
    let gpu = spec.overrides.apply();
    let t0 = Instant::now();
    let mut gmem = w.gmem.clone();
    let mut stats = Stats::default();
    let mut used_r2d2 = false;
    let mut ideal = None;
    let sim_name = format!("SimSession::run.{}", model_key(spec.model));
    let err = |e: String| format!("{}: {e}", spec.label());
    let sim = |launch: &Launch, filter: &mut dyn IssueFilter, gmem: &mut r2d2_sim::GlobalMem| {
        tr.child(ctx, "sim", &sim_name, |_| {
            SimSession::new(&gpu)
                .filter(filter)
                .threads(1)
                .run(launch, gmem)
        })
        .map_err(|e| err(e.to_string()))
    };
    match spec.model {
        ModelSpec::Ideals => {
            let mut acc = IdealCounts::default();
            for l in &w.launches {
                let c = tr
                    .child(ctx, "sim", "measure_ideals", |_| {
                        measure_ideals(l, &mut gmem)
                    })
                    .map_err(|e| err(e.to_string()))?;
                acc.baseline += c.baseline;
                acc.wp += c.wp;
                acc.tb += c.tb;
                acc.ln += c.ln;
                acc.baseline_warp += c.baseline_warp;
            }
            ideal = Some(acc);
        }
        ModelSpec::R2d2 => {
            for l in &w.launches {
                let (launch, used) = tr.child(ctx, "core", "make_launch", |_| {
                    make_launch(&gpu, &l.kernel, l.grid, l.block, l.params.clone())
                });
                used_r2d2 |= used;
                stats.merge_sequential(&sim(&launch, &mut BaselineFilter, &mut gmem)?);
            }
        }
        ModelSpec::R2d2With(opts) => {
            for l in &w.launches {
                let r2 = tr.child(ctx, "core", "transform_with", |_| {
                    r2d2_core::transform_with(&l.kernel, &opts)
                });
                let s = if r2.meta.has_linear() {
                    used_r2d2 = true;
                    let mut launch = Launch::new(r2.kernel, l.grid, l.block, l.params.clone());
                    launch.meta = Some(r2.meta);
                    sim(&launch, &mut BaselineFilter, &mut gmem)?
                } else {
                    sim(l, &mut BaselineFilter, &mut gmem)?
                };
                stats.merge_sequential(&s);
            }
        }
        model => {
            let mut filter: Box<dyn IssueFilter> = match model {
                ModelSpec::Dac => Box::new(DacFilter::new()),
                ModelSpec::Darsie => Box::new(DarsieFilter::new()),
                ModelSpec::DarsieScalar => Box::new(DarsieScalarFilter::new()),
                _ => Box::new(BaselineFilter),
            };
            for l in &w.launches {
                stats.merge_sequential(&sim(l, filter.as_mut(), &mut gmem)?);
            }
        }
    }
    let energy = tr.child(ctx, "energy", "EnergyModel::breakdown", |_| {
        EnergyModel::volta().breakdown(&stats.events)
    });
    let rec = RunRecord {
        stats,
        energy,
        used_r2d2,
        ideal,
        wall_ms: ms(t0.elapsed()),
        cached: false,
    };
    tr.child(ctx, "harness", "Cache::store", |_| cache.store(spec, &rec))
        .map_err(|e| err(format!("cache store: {e}")))?;
    Ok(rec)
}

/// Whether two records carry the same results (everything but `wall_ms`
/// and `cached`).
fn same_results(a: &RunRecord, b: &RunRecord) -> bool {
    a.stats == b.stats && a.energy == b.energy && a.used_r2d2 == b.used_r2d2 && a.ideal == b.ideal
}

fn traced(
    cfg: &RunCfg,
    golden: &Golden,
    out: &mut Outcome,
    specs: &[JobSpec],
    untraced: &[RunRecord],
    untraced_ms: f64,
) -> Result<(), String> {
    let dir = cfg.work.join("sweep-traced");
    let cache = Cache::at(&dir.join("cache"));
    let tr = Tracer::default();

    // As many client threads as the untraced pass had workers, pulling jobs
    // from one shared index the way `run_jobs_with` does.
    let t = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunRecord, String>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for tid in 0..workers() as u64 {
            let (tr, cache, next, slots) = (&tr, &cache, &next, &slots);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let rec = tr.root(tid, "job", |ctx| execute_traced(tr, ctx, spec, cache));
                *slots[i].lock().expect("slot poisoned") = Some(rec);
            });
        }
    });
    let traced_ms = ms(t.elapsed());
    let records = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every job ran")
        })
        .collect::<Result<Vec<_>, String>>()?;
    for ((spec, rec), plain) in specs.iter().zip(&records).zip(untraced) {
        out.op(golden.check(spec, rec).and_then(|()| {
            if same_results(rec, plain) {
                Ok(())
            } else {
                Err(format!(
                    "{}: traced record differs from the untraced one",
                    spec.label()
                ))
            }
        }));
    }

    let mut hit_pass = Vec::new();
    tr.root(0, "all-hit", |ctx| -> Result<(), String> {
        for i in 0..=TRACED_HIT_PASSES {
            let name = if i == 0 { "first_hit_pass" } else { "hit_pass" };
            let t = Instant::now();
            let pass = tr.child(ctx, "harness", name, |_| {
                run_jobs_with(specs, &sweep_options(), &cache)
            });
            if i > 0 {
                hit_pass.push(ms(t.elapsed()));
            }
            check_pass(out, golden, specs, &pass.records, true);
        }
        for spec in specs {
            let rec = tr.child(ctx, "harness", "Cache::load.hit", |_| cache.load(spec));
            out.op(rec
                .ok_or_else(|| format!("{}: cache miss after the sweep", spec.label()))
                .and_then(|r| golden.check(spec, &r)));
        }
        tr.child(ctx, "harness", "export_csv", |_| {
            export_csv(&cache, &dir.join("run_records.csv"))
        })
        .map(|_| ())
        .map_err(|e| format!("export_csv: {e}"))
    })?;

    out.spans = tr.spans();
    let split = Split::of(&out.spans, |root| root == "job");
    let all = Split::of(&out.spans, |_| true);
    let timing: f64 = ["baseline", "dac", "darsie", "darsie_scalar", "r2d2"]
        .iter()
        .map(|m| split.ms(&format!("SimSession::run.{m}")))
        .sum();
    out.set("workloads.build_ms", split.ms("resolve"));
    out.set(
        "core.transform_ms",
        split.ms("make_launch") + split.ms("transform_with"),
    );
    out.set("sim.timing_ms", timing);
    out.set(
        "sim.timing_ms.baseline",
        split.ms("SimSession::run.baseline"),
    );
    out.set("sim.timing_ms.dac", split.ms("SimSession::run.dac"));
    out.set("sim.timing_ms.darsie", split.ms("SimSession::run.darsie"));
    out.set(
        "sim.timing_ms.darsie_scalar",
        split.ms("SimSession::run.darsie_scalar"),
    );
    out.set("sim.timing_ms.r2d2", split.ms("SimSession::run.r2d2"));
    out.set("sim.functional_ms", split.ms("measure_ideals"));
    let warp: u64 = records.iter().map(|r| r.stats.warp_instrs).sum();
    out.set("sim.warp_instrs", warp as f64);
    out.set(
        "sim.cycles",
        records.iter().map(|r| r.stats.cycles).sum::<u64>() as f64,
    );
    out.set("sim.warp_instrs_per_s", warp as f64 / (timing / 1e3));
    out.set("energy.breakdown_ms", split.ms("EnergyModel::breakdown"));
    out.set("harness.cache_store_ms", split.ms("Cache::store"));
    out.set("harness.cache_load_ms", split.ms("Cache::load"));
    out.set("harness.cache_load_hit_ms", all.ms("Cache::load.hit"));
    out.set("harness.first_hit_pass_ms", all.ms("first_hit_pass"));
    out.set("harness.hit_pass_ms", median(&hit_pass).unwrap_or(0.0));
    out.set("harness.csv_export_ms", all.ms("export_csv"));
    out.set_shares(&split);
    out.set("bench.trace_overhead_ms", traced_ms - untraced_ms);
    out.line(format!(
        "traced cold pass {traced_ms:.0} ms vs untraced run_jobs_with {untraced_ms:.0} ms: tracing overhead {:+.0} ms",
        traced_ms - untraced_ms
    ));
    Ok(())
}
