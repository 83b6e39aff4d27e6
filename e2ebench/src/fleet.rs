//! `fleet-cold`: the `fig12` Small set submitted through a dispatcher to two
//! cold backends.
//!
//! Each pass binds two service nodes (one worker each, empty caches) and a
//! dispatcher in front of them — that is the timed set-up — then two
//! closed-loop clients work through the seeded submission plan: three
//! submissions in four use `POST /v1/jobs?wait=1`, one in four submits and
//! follows `GET /v1/jobs/<id>/progress` to its terminal line (the
//! `r2d2 watch` path), and about one in five repeats a spec already sent.
//! Operations are submissions; latency is submit to terminal answer.
//! Passes repeat on fresh nodes, at least twice and while another fits in
//! `--seconds`; `throughput_per_s` is the median over passes of distinct
//! specs completed per second of the pass.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use r2d2_dispatch::Ring;
use r2d2_harness::{Cache, Executor, JobSpec, Progress, RunRecord};
use r2d2_serve::client;

use crate::digest::{fleet_specs, record_from_body, Golden};
use crate::nodes::{Node, LONG, SHORT};
use crate::prom::require;
use crate::span::{Split, Tracer};
use crate::stats::{describe, median, tail_percentile};
use crate::{ms, shuffle, Outcome, RunCfg, SETUP_REPS};

/// GET pairs (through the dispatcher, straight to the primary) the traced
/// run times for the hop estimate.
const HOP_PROBES: usize = 60;

/// One planned submission.
#[derive(Debug, Clone, Copy)]
pub struct Submission {
    /// Index into the spec list.
    pub spec: usize,
    /// A spec sent earlier in the plan.
    pub repeat: bool,
    /// Followed on the progress stream instead of `?wait=1`.
    pub watch: bool,
}

/// The seeded submission plan over `n` distinct specs.
pub fn plan(cfg: &RunCfg, n: usize) -> Vec<Submission> {
    let mut rng = cfg.rng(3);
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, &mut rng);
    let mut sent: Vec<usize> = Vec::with_capacity(n);
    let mut subs = Vec::new();
    while sent.len() < n {
        let repeat = !sent.is_empty() && rng.below(5) == 0;
        let spec = if repeat {
            sent[rng.below(sent.len() as u64) as usize]
        } else {
            let s = order[sent.len()];
            sent.push(s);
            s
        };
        subs.push(Submission {
            spec,
            repeat,
            watch: rng.below(4) == 0,
        });
    }
    subs
}

/// What one submission saw.
struct Sample {
    sub: Submission,
    ms: f64,
    /// The job's record, once known.
    rec: Option<RunRecord>,
}

struct Fleet {
    backends: [Node; 2],
    dispatcher: Node,
}

impl Fleet {
    fn start(dir: &std::path::Path) -> Result<Fleet, String> {
        let b0 = Node::serve(&dir.join("b0"), Some(1))?;
        let b1 = Node::serve(&dir.join("b1"), Some(1))?;
        let dispatcher = Node::dispatch(&[&b0, &b1])?;
        // Concurrently, so set-up waits for the slowest node rather than
        // summing each node's accept-loop poll.
        std::thread::scope(|s| {
            let checks: Vec<_> = [&b0, &b1, &dispatcher]
                .map(|n| s.spawn(move || n.wait_healthy()))
                .into_iter()
                .collect();
            checks
                .into_iter()
                .try_for_each(|c| c.join().expect("health check panicked"))
        })?;
        Ok(Fleet {
            backends: [b0, b1],
            dispatcher,
        })
    }

    fn stop(self) -> Result<(), String> {
        let [b0, b1] = self.backends;
        let results = [self.dispatcher.stop(), b0.stop(), b1.stop()];
        results.into_iter().collect()
    }
}

/// Per-pass service counters.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    simulated: [f64; 2],
    deduped: f64,
    retries: f64,
    failover: f64,
}

fn check_record(
    golden: &Golden,
    spec: &JobSpec,
    body: &r2d2_harness::json::Value,
) -> Result<RunRecord, String> {
    let rec = record_from_body(body).ok_or_else(|| format!("{}: no record", spec.label()))?;
    golden.check(spec, &rec)?;
    Ok(rec)
}

/// One submission, timed from submit to its terminal answer.
fn submit(
    addr: &str,
    spec: &JobSpec,
    watch: bool,
    golden: &Golden,
) -> Result<Option<RunRecord>, String> {
    let label = spec.label();
    if !watch {
        let resp = client::submit(addr, spec, true, LONG).map_err(|e| format!("{label}: {e}"))?;
        if resp.status != 200 || resp.job_status() != Some("done") {
            return Err(format!(
                "{label}: HTTP {} status {:?}",
                resp.status,
                resp.job_status()
            ));
        }
        return check_record(golden, spec, &resp.body).map(Some);
    }
    let resp = client::submit(addr, spec, false, SHORT).map_err(|e| format!("{label}: {e}"))?;
    if !matches!(resp.status, 200 | 202) || resp.job_id() != Some(spec.hash_hex().as_str()) {
        return Err(format!(
            "{label}: submit answered HTTP {} id {:?}",
            resp.status,
            resp.job_id()
        ));
    }
    let mut last = None;
    let status = client::watch(addr, &spec.hash_hex(), LONG, &mut |v| {
        last = v.get("status").and_then(|s| s.as_str()).map(str::to_string);
    })
    .map_err(|e| format!("{label}: watch: {e}"))?;
    if status != 200 || last.as_deref() != Some("done") {
        return Err(format!(
            "{label}: watch ended HTTP {status} status {last:?}"
        ));
    }
    Ok(None)
}

/// One cold pass: fresh fleet, the whole plan, invariant checks.
fn pass(
    cfg: &RunCfg,
    golden: &Golden,
    k: usize,
    specs: &[JobSpec],
    subs: &[Submission],
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Result<(f64, f64, Vec<Sample>, Counters), String> {
    let t = Instant::now();
    let fleet = Fleet::start(&cfg.work.join(format!("fleet-{k}")))?;
    let setup_s = t.elapsed().as_secs_f64();

    let next = AtomicUsize::new(0);
    let addr = fleet.dispatcher.addr.as_str();
    let t0 = Instant::now();
    let logs: Vec<(Vec<Sample>, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                let next = &next;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut log = Outcome::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&sub) = subs.get(i) else { break };
                        let spec = &specs[sub.spec];
                        let t = Instant::now();
                        let result = match tracer {
                            Some(tr) => tr.root(c, "submission", |ctx| {
                                let name = if sub.watch {
                                    "submit+watch"
                                } else {
                                    "submit?wait=1"
                                };
                                tr.child(ctx, "dispatch", name, |_| {
                                    submit(addr, spec, sub.watch, golden)
                                })
                            }),
                            None => submit(addr, spec, sub.watch, golden),
                        };
                        let lat = ms(t.elapsed());
                        let (result, rec) = match result {
                            Ok(rec) => (Ok(()), rec),
                            Err(e) => (Err(e), None),
                        };
                        samples.push(Sample { sub, ms: lat, rec });
                        log.op(result);
                    }
                    (samples, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut samples = Vec::new();
    for (s, log) in logs {
        samples.extend(s);
        out.absorb(log);
    }
    // Watched jobs' records, fetched after the timed phase.
    for sample in samples.iter_mut().filter(|s| s.sub.watch) {
        let spec = &specs[sample.sub.spec];
        let rec = client::job_status(addr, &spec.hash_hex(), SHORT)
            .map_err(|e| format!("{}: {e}", spec.label()))
            .and_then(|r| check_record(golden, spec, &r.body));
        match rec {
            Ok(r) => sample.rec = Some(r),
            Err(e) => out.error(e),
        }
    }

    let check = || -> Result<Counters, String> {
        let m0 = fleet.backends[0].scrape()?;
        let m1 = fleet.backends[1].scrape()?;
        let d = fleet.dispatcher.scrape()?;
        let sim = "r2d2_serve_jobs_simulated_total";
        let c = Counters {
            simulated: [require(&m0, sim)?, require(&m1, sim)?],
            deduped: require(&d, "r2d2_serve_jobs_deduped_total")?,
            retries: require(&d, "dispatch_retries_total")?,
            failover: require(&d, "dispatch_failover_total")?,
        };
        let failed = require(&m0, "r2d2_serve_jobs_failed_total")?
            + require(&m1, "r2d2_serve_jobs_failed_total")?;
        let total = c.simulated[0] + c.simulated[1];
        if total != specs.len() as f64 || failed != 0.0 || c.retries != 0.0 || c.failover != 0.0 {
            return Err(format!(
                "fleet invariants broken: simulated {total} of {} distinct specs, failed {failed}, \
                 dispatch_retries_total {}, dispatch_failover_total {}",
                specs.len(),
                c.retries,
                c.failover
            ));
        }
        Ok(c)
    };
    let counters = match check() {
        Ok(c) => {
            if let Some(tr) = tracer {
                hop_probes(cfg, golden, specs, &fleet, tr, out);
            }
            c
        }
        Err(e) => {
            out.error(e);
            Counters::default()
        }
    };
    fleet.stop()?;
    Ok((setup_s, wall_s, samples, counters))
}

/// `GET /v1/jobs/<id>` through the dispatcher and straight to the ring's
/// primary for the same id, alternating which goes first.
fn hop_probes(
    cfg: &RunCfg,
    golden: &Golden,
    specs: &[JobSpec],
    fleet: &Fleet,
    tr: &Tracer,
    out: &mut Outcome,
) {
    let ring = Ring::new(fleet.backends.len());
    let mut rng = cfg.rng(4);
    let (mut via, mut direct) = (Vec::new(), Vec::new());
    for i in 0..HOP_PROBES {
        let spec = &specs[rng.below(specs.len() as u64) as usize];
        let id = spec.hash_hex();
        let primary = ring
            .primary(spec.content_hash())
            .expect("ring has backends");
        let targets = [
            (fleet.dispatcher.addr.as_str(), "dispatch", &mut via),
            (fleet.backends[primary].addr.as_str(), "serve", &mut direct),
        ];
        let mut order: Vec<_> = targets.into_iter().collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for (addr, layer, samples) in order {
            let t = Instant::now();
            let resp = tr.root(0, "hop-probe", |ctx| {
                tr.child(ctx, layer, "GET /v1/jobs/<id>", |_| {
                    client::job_status(addr, &id, SHORT)
                })
            });
            samples.push(ms(t.elapsed()));
            out.op(resp
                .map_err(|e| format!("{}: {e}", spec.label()))
                .and_then(|r| check_record(golden, spec, &r.body).map(|_| ())));
        }
    }
    let hop = median(&via).unwrap_or(0.0) - median(&direct).unwrap_or(0.0);
    out.set("dispatch.hop_p50_ms", hop);
    out.line(format!(
        "hop: GET via dispatcher {} vs direct to primary {} => {hop:+.3} ms",
        describe("p50", median(&via), via.len(), "ms"),
        describe("p50", median(&direct), direct.len(), "ms")
    ));
}

/// `Executor::run` with and without a progress mirror on fresh caches,
/// alternating which goes first per spec.
fn mirror_ratio(
    cfg: &RunCfg,
    golden: &Golden,
    specs: &[JobSpec],
    tr: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let plain = Cache::at(&cfg.work.join("mirror-plain").join("cache"));
    let mirrored = Cache::at(&cfg.work.join("mirror-progress").join("cache"));
    let (mut plain_ms, mut mirrored_ms) = (0.0, 0.0);
    for (i, spec) in specs.iter().enumerate() {
        let (a, b) = tr.root(0, "mirror-probe", |ctx| {
            let run_plain = |ms_acc: &mut f64| {
                let t = Instant::now();
                let r = tr.child(ctx, "harness", "Executor::run", |_| {
                    Executor::new(&plain).run(spec)
                });
                *ms_acc += ms(t.elapsed());
                r
            };
            let run_mirrored = |ms_acc: &mut f64| {
                let t = Instant::now();
                let r = tr.child(ctx, "trace", "Executor::run+progress", |_| {
                    Executor::new(&mirrored).progress(Progress::new()).run(spec)
                });
                *ms_acc += ms(t.elapsed());
                r
            };
            if i % 2 == 0 {
                let a = run_plain(&mut plain_ms);
                (a, run_mirrored(&mut mirrored_ms))
            } else {
                let b = run_mirrored(&mut mirrored_ms);
                (run_plain(&mut plain_ms), b)
            }
        });
        let (a, b) = (a?, b?);
        out.op(golden
            .check(spec, &a)
            .and_then(|()| golden.check(spec, &b))
            .and_then(|()| {
                if a.stats == b.stats {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: progress mirror changed the Stats",
                        spec.label()
                    ))
                }
            }));
    }
    let ratio = mirrored_ms / plain_ms;
    out.set("trace.mirror_ratio", ratio);
    out.line(format!(
        "progress mirror: Executor::run {plain_ms:.0} ms plain vs {mirrored_ms:.0} ms mirrored over {} specs => {ratio:.3}x",
        specs.len()
    ));
    Ok(())
}

/// Run the workload.
pub fn run(cfg: &RunCfg, golden: &Golden, out: &mut Outcome) -> Result<(), String> {
    let specs = fleet_specs();
    let subs = plan(cfg, specs.len());
    let tracer = cfg.trace.then(Tracer::default);

    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut counters = Vec::new();
    let t_meas = Instant::now();
    loop {
        let (s, wall, smp, c) = pass(
            cfg,
            golden,
            walls.len(),
            &specs,
            &subs,
            tracer.as_ref(),
            out,
        )?;
        setup.push(s);
        walls.push(wall);
        samples.extend(smp);
        counters.push(c);
        // At least two passes: one pass's rate and peak memory hinge on
        // which jobs happen to run side by side.
        let elapsed = t_meas.elapsed().as_secs_f64();
        if walls.len() >= 2 && elapsed + elapsed / walls.len() as f64 > cfg.seconds {
            break;
        }
    }
    while setup.len() < SETUP_REPS {
        let t = Instant::now();
        let fleet = Fleet::start(&cfg.work.join(format!("fleet-setup-{}", setup.len())))?;
        setup.push(t.elapsed().as_secs_f64());
        fleet.stop()?;
    }

    let answered = samples
        .iter()
        .filter_map(|s| {
            s.rec
                .as_ref()
                .map(|r| (specs[s.sub.spec].content_hash(), r))
        })
        .collect();
    golden.check_aggregates(&answered, out);
    let lat: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let rates: Vec<f64> = walls.iter().map(|w| specs.len() as f64 / w).collect();
    out.set("setup_s", median(&setup).unwrap_or(0.0));
    out.set("throughput_per_s", median(&rates).unwrap_or(0.0));
    out.set("latency_p50_ms", median(&lat).unwrap_or(0.0));
    out.set("latency_p90_ms", tail_percentile(&lat, 0.9).unwrap_or(0.0));
    let repeats = subs.iter().filter(|s| s.repeat).count();
    let watched = subs.iter().filter(|s| s.watch).count();
    out.line(format!(
        "{} pass(es) of {} submissions ({} distinct specs, {repeats} repeats, {watched} watched): \
         {:.2} s per pass, {:.1} jobs/s; {}, {}",
        walls.len(),
        subs.len(),
        specs.len(),
        median(&walls).unwrap_or(0.0),
        median(&rates).unwrap_or(0.0),
        describe("p50", median(&lat), lat.len(), "ms"),
        describe("p90", tail_percentile(&lat, 0.9), lat.len(), "ms"),
    ));

    let Some(tr) = tracer else {
        return Ok(());
    };
    let first: Vec<&Sample> = samples.iter().filter(|s| !s.sub.repeat).collect();
    let exec: Vec<f64> = first
        .iter()
        .filter_map(|s| s.rec.as_ref().map(|r| r.wall_ms))
        .collect();
    let overhead = |watch: bool| {
        let v: Vec<f64> = first
            .iter()
            .filter(|s| s.sub.watch == watch)
            .filter_map(|s| s.rec.as_ref().map(|r| s.ms - r.wall_ms))
            .collect();
        (median(&v), v.len())
    };
    out.set("serve.exec_p50_ms", median(&exec).unwrap_or(0.0));
    out.set(
        "serve.overhead_p50_ms.wait",
        overhead(false).0.unwrap_or(0.0),
    );
    out.set(
        "serve.overhead_p50_ms.watch",
        overhead(true).0.unwrap_or(0.0),
    );
    out.line(format!(
        "first submissions: exec (record wall_ms) {}; submit-to-done minus exec: wait {}, watch {}",
        describe("p50", median(&exec), exec.len(), "ms"),
        describe("p50", overhead(false).0, overhead(false).1, "ms"),
        describe("p50", overhead(true).0, overhead(true).1, "ms"),
    ));
    let sum = |f: fn(&Counters) -> f64| counters.iter().map(f).sum::<f64>();
    let sim = [sum(|c| c.simulated[0]), sum(|c| c.simulated[1])];
    let total = sim[0] + sim[1];
    out.set("serve.jobs_simulated_total", total);
    out.set(
        "dispatch.busiest_backend_share",
        if total > 0.0 {
            sim[0].max(sim[1]) / total
        } else {
            0.0
        },
    );
    out.set("serve.deduped_total", sum(|c| c.deduped));
    out.set("dispatch.retries_total", sum(|c| c.retries));
    out.set("dispatch.failover_total", sum(|c| c.failover));
    out.line(format!(
        "backends simulated {} + {}; fleet deduped {}, dispatch retries {}, failover {}",
        sim[0],
        sim[1],
        sum(|c| c.deduped),
        sum(|c| c.retries),
        sum(|c| c.failover)
    ));

    mirror_ratio(cfg, golden, &specs, &tr, out)?;

    out.spans = tr.spans();
    let split = Split::of(&out.spans, |root| root == "submission");
    out.set_shares(&split);
    Ok(())
}
