//! `serve-hit`: one service node answering from a full cache.
//!
//! Set-up links the `fig12` Small records (simulated once per process as a
//! fixture, not timed) into a fresh results directory, binds the node with
//! its default config and waits for `/v1/healthz`. Two closed-loop clients
//! then send, for `--seconds`: 70% `GET /v1/jobs/<id>` (half the ids are
//! never POSTed, so they are answered from the disk cache), 20%
//! `POST /v1/jobs?wait=1` of cached specs and 10% `GET /v1/healthz`.
//! Operations are requests; the latencies are over all of them.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Instant;

use r2d2_harness::{run_jobs_with, Cache, JobSpec, RunOptions};
use r2d2_serve::{client, SubmitOutcome};

use crate::digest::{by_hash, fleet_specs, record_from_body, Golden};
use crate::nodes::{Node, LONG, SHORT};
use crate::span::{Split, Tracer};
use crate::stats::{describe, median, tail_percentile};
use crate::{ms, shuffle, Outcome, RunCfg, SETUP_REPS};

/// Request kinds, by endpoint and by the path that answers a GET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Healthz,
    /// GET of an id POSTed earlier: answered from the in-memory queue.
    GetLive,
    /// GET of an id not POSTed yet: answered from the disk cache.
    GetDisk,
    /// GET racing the other client's POST of the same id.
    GetRacing,
    Post,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Healthz => "GET /v1/healthz",
            Kind::GetLive => "GET /v1/jobs/<id> (live)",
            Kind::GetDisk => "GET /v1/jobs/<id> (disk)",
            Kind::GetRacing => "GET /v1/jobs/<id> (racing)",
            Kind::Post => "POST /v1/jobs?wait=1",
        }
    }
}

enum Answer {
    Health(std::io::Result<(u16, String)>),
    Job(std::io::Result<SubmitOutcome>),
}

struct Sample {
    kind: Kind,
    ms: f64,
}

#[derive(Default)]
struct Posted {
    started: HashSet<u64>,
    done: HashSet<u64>,
}

/// Check a `GET`/`POST` answer: `200`, status `done`, the expected id, and
/// a record matching the committed digest.
fn check_job(
    golden: &Golden,
    spec: &JobSpec,
    resp: std::io::Result<SubmitOutcome>,
) -> Result<(), String> {
    let resp = resp.map_err(|e| format!("{}: {e}", spec.label()))?;
    if resp.status != 200 || resp.job_status() != Some("done") {
        return Err(format!(
            "{}: HTTP {} status {:?}",
            spec.label(),
            resp.status,
            resp.job_status()
        ));
    }
    if resp.job_id() != Some(spec.hash_hex().as_str()) {
        return Err(format!(
            "{}: answered for id {:?}",
            spec.label(),
            resp.job_id()
        ));
    }
    let rec = record_from_body(&resp.body).ok_or_else(|| format!("{}: no record", spec.label()))?;
    golden.check(spec, &rec)
}

/// Run the workload.
pub fn run(cfg: &RunCfg, golden: &Golden, out: &mut Outcome) -> Result<(), String> {
    let mut specs = fleet_specs();
    shuffle(&mut specs, &mut cfg.rng(2));

    let template = Cache::at(&cfg.work.join("serve-template").join("cache"));
    let opts = RunOptions {
        jobs: 2,
        use_cache: true,
        verbose: false,
    };
    let fixture = run_jobs_with(&specs, &opts, &template);
    for (spec, rec) in specs.iter().zip(&fixture.records) {
        if let Err(e) = golden.check(spec, rec) {
            out.error(format!("fixture {e}"));
        }
    }
    golden.check_aggregates(&by_hash(&specs, &fixture.records), out);
    let files: Vec<_> = std::fs::read_dir(template.dir())
        .map_err(|e| format!("read template: {e}"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();

    let mut setup = Vec::new();
    let mut node = None;
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        let dir = cfg.work.join(format!("serve-hit-{i}"));
        let cache_dir = dir.join("cache");
        std::fs::create_dir_all(&cache_dir).map_err(|e| format!("mkdir: {e}"))?;
        for f in &files {
            // A link, not a copy: the service replaces an entry by renaming
            // a new file over it, so the template is never written through.
            let to = cache_dir.join(f.file_name().expect("cache entries have names"));
            if std::fs::hard_link(f, &to).is_err() {
                std::fs::copy(f, &to).map_err(|e| format!("prefill: {e}"))?;
            }
        }
        let n = Node::serve(&dir, None)?;
        n.wait_healthy()?;
        setup.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPS {
            n.stop()?;
        } else {
            node = Some(n);
        }
    }
    let node = node.expect("at least one set-up");

    let postable = &specs[..specs.len() / 2];
    let posted = Mutex::new(Posted::default());
    let tracer = cfg.trace.then(Tracer::default);
    let t0 = Instant::now();
    let deadline = t0 + std::time::Duration::from_secs_f64(cfg.seconds);
    let logs: Vec<(Vec<Sample>, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                let (specs, posted, tracer, node) = (&specs, &posted, tracer.as_ref(), &node);
                let mut rng = cfg.rng(100 + c);
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut log = Outcome::default();
                    while Instant::now() < deadline {
                        let roll = rng.below(100);
                        let (kind, spec) = if roll < 70 {
                            let spec = &specs[rng.below(specs.len() as u64) as usize];
                            let h = spec.content_hash();
                            let p = posted.lock().expect("posted set poisoned");
                            let kind = if p.done.contains(&h) {
                                Kind::GetLive
                            } else if p.started.contains(&h) {
                                Kind::GetRacing
                            } else {
                                Kind::GetDisk
                            };
                            (kind, Some(spec))
                        } else if roll < 90 {
                            let spec = &postable[rng.below(postable.len() as u64) as usize];
                            posted
                                .lock()
                                .expect("posted set poisoned")
                                .started
                                .insert(spec.content_hash());
                            (Kind::Post, Some(spec))
                        } else {
                            (Kind::Healthz, None)
                        };
                        let request = || match (kind, spec) {
                            (Kind::Healthz, _) => {
                                Answer::Health(r2d2_serve::healthz(&node.addr, SHORT))
                            }
                            (Kind::Post, Some(spec)) => {
                                Answer::Job(client::submit(&node.addr, spec, true, LONG))
                            }
                            (_, Some(spec)) => {
                                Answer::Job(client::job_status(&node.addr, &spec.hash_hex(), SHORT))
                            }
                            _ => unreachable!("every job request carries a spec"),
                        };
                        let t = Instant::now();
                        let answer = match tracer {
                            Some(tr) => tr.root(c, kind.name(), |ctx| {
                                tr.child(ctx, "serve", kind.name(), |_| request())
                            }),
                            None => request(),
                        };
                        samples.push(Sample {
                            kind,
                            ms: ms(t.elapsed()),
                        });
                        let result = match (answer, spec) {
                            (Answer::Health(Ok((200, body))), _) if body == "ok" => Ok(()),
                            (Answer::Health(other), _) => {
                                Err(format!("healthz answered {other:?}"))
                            }
                            (Answer::Job(resp), Some(spec)) => check_job(golden, spec, resp),
                            (Answer::Job(_), None) => unreachable!("job answers carry a spec"),
                        };
                        if kind == Kind::Post && result.is_ok() {
                            posted
                                .lock()
                                .expect("posted set poisoned")
                                .done
                                .insert(spec.expect("posts carry a spec").content_hash());
                        }
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
    let elapsed = t0.elapsed().as_secs_f64();

    let mut samples = Vec::new();
    for (s, log) in logs {
        samples.extend(s);
        out.absorb(log);
    }
    let metrics = node.scrape();
    node.stop()?;
    let metrics = metrics?;
    let simulated = crate::prom::require(&metrics, "r2d2_serve_jobs_simulated_total")?;
    if simulated != 0.0 {
        out.error(format!(
            "r2d2_serve_jobs_simulated_total {simulated} (must stay 0)"
        ));
    }

    let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    out.set("setup_s", median(&setup).unwrap_or(0.0));
    out.set("throughput_per_s", all.len() as f64 / elapsed);
    out.set("latency_p50_ms", median(&all).unwrap_or(0.0));
    out.set("latency_p90_ms", tail_percentile(&all, 0.9).unwrap_or(0.0));
    out.line(format!(
        "{} requests in {elapsed:.2} s by 2 clients: {}, {}",
        all.len(),
        describe("p50", median(&all), all.len(), "ms"),
        describe("p90", tail_percentile(&all, 0.9), all.len(), "ms")
    ));
    let p50 = |kind: Kind| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect();
        (median(&v), v.len())
    };
    for kind in [
        Kind::Healthz,
        Kind::GetLive,
        Kind::GetDisk,
        Kind::GetRacing,
        Kind::Post,
    ] {
        let (v, n) = p50(kind);
        out.line(format!(
            "  {}: {}",
            kind.name(),
            describe("p50", v, n, "ms")
        ));
    }
    out.line(format!(
        "service after the run: jobs_simulated_total {simulated}, cache_hit_rate {:.3}",
        metrics
            .get("r2d2_serve_cache_hit_rate")
            .copied()
            .unwrap_or(0.0)
    ));

    if let Some(tr) = tracer {
        out.set("serve.healthz_p50_ms", p50(Kind::Healthz).0.unwrap_or(0.0));
        out.set("serve.get_live_p50_ms", p50(Kind::GetLive).0.unwrap_or(0.0));
        out.set("serve.get_disk_p50_ms", p50(Kind::GetDisk).0.unwrap_or(0.0));
        out.set("serve.post_hit_p50_ms", p50(Kind::Post).0.unwrap_or(0.0));
        out.set("serve.jobs_simulated_total", simulated);
        out.set(
            "serve.cache_hit_rate",
            crate::prom::require(&metrics, "r2d2_serve_cache_hit_rate")?,
        );
        out.spans = tr.spans();
        let split = Split::of(&out.spans, |_| true);
        out.set_shares(&split);
    }
    Ok(())
}
