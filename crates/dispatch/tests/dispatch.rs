//! In-process integration tests of the dispatch tier: two real `r2d2 serve`
//! backends on loopback ports, a real dispatcher in front of them, real
//! HTTP end to end — only the process boundary is elided (the CLI smoke
//! test in `crates/cli/tests/dispatch.rs` covers that).

use std::path::PathBuf;
use std::time::Duration;

use r2d2_dispatch::{DispatchConfig, Dispatcher, DispatcherHandle, Ring};
use r2d2_harness::{JobSpec, ModelSpec};
use r2d2_serve::{client, Server, ServerConfig, ServerHandle};
use r2d2_workloads::Size;

const T: Duration = Duration::from_secs(120);

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("r2d2-dispatch-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

struct Backend {
    addr: String,
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    results: PathBuf,
}

impl Backend {
    fn start(tag: &str, idx: usize) -> Backend {
        let results = tmpdir(&format!("{tag}-b{idx}"));
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 32,
            job_timeout: Duration::from_secs(300),
            use_cache: true,
            results_dir: Some(results.clone()),
            verbose: false,
            ..ServerConfig::default()
        };
        let server = Server::bind(cfg).expect("bind backend");
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let join = Some(std::thread::spawn(move || server.run()));
        Backend {
            addr,
            handle,
            join,
            results,
        }
    }

    /// Shut the backend down and wait for its port to close.
    fn kill(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            join.join().expect("backend thread").expect("clean exit");
        }
    }

    fn metric(&self, name: &str) -> u64 {
        let text = client::metrics(&self.addr, T).expect("backend metrics");
        parse_metric(&text, name).unwrap_or_else(|| panic!("no {name} in:\n{text}"))
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.results);
    }
}

fn parse_metric(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(&format!("{name} ")))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Start a dispatcher over `backends` with a fast probe loop.
fn start_dispatcher(
    backends: &[&Backend],
) -> (
    String,
    DispatcherHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let cfg = DispatchConfig {
        addr: "127.0.0.1:0".into(),
        backends: backends.iter().map(|b| b.addr.clone()).collect(),
        probe_interval: Duration::from_millis(100),
        request_timeout: Duration::from_secs(10),
        retry_attempts: 2,
        retry_backoff: Duration::from_millis(20),
        verbose: false,
        ..DispatchConfig::default()
    };
    let d = Dispatcher::bind(cfg).expect("bind dispatcher");
    let addr = d.local_addr().unwrap().to_string();
    let handle = d.handle();
    let join = std::thread::spawn(move || d.run());
    (addr, handle, join)
}

fn stop_dispatcher(handle: &DispatcherHandle, join: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    join.join().expect("dispatcher thread").expect("clean exit");
}

/// A spec whose ring primary (on a 2-backend ring) is `want`.
fn spec_with_primary(want: usize) -> JobSpec {
    let ring = Ring::new(2);
    for sms in 1..=64u32 {
        let mut spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
        spec.overrides.num_sms = Some(sms);
        if ring.primary(spec.content_hash()) == Some(want) {
            return spec;
        }
    }
    unreachable!("64 distinct specs never hashed onto backend {want}");
}

#[test]
fn duplicate_specs_route_to_one_node_and_simulate_once() {
    let b0 = Backend::start("dedup", 0);
    let b1 = Backend::start("dedup", 1);
    let (addr, handle, join) = start_dispatcher(&[&b0, &b1]);
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);

    // The same spec submitted twice through the dispatcher must land on
    // the same backend's dedup queue and simulate exactly once.
    let first = client::submit(&addr, &spec, true, T).expect("submit via dispatcher");
    assert_eq!(first.status, 200, "{:?}", first.body);
    assert_eq!(first.job_status(), Some("done"));
    assert_eq!(first.job_id(), Some(spec.hash_hex().as_str()));
    let second = client::submit(&addr, &spec, true, T).expect("resubmit via dispatcher");
    assert_eq!(second.status, 200, "{:?}", second.body);
    assert_eq!(
        second.body.get("deduped"),
        Some(&r2d2_harness::json::Value::Bool(true)),
        "{:?}",
        second.body
    );

    // Metrics-verified: exactly one simulation across the fleet, and both
    // submissions on one node (the other saw nothing).
    let sims = [
        b0.metric("r2d2_serve_jobs_simulated_total"),
        b1.metric("r2d2_serve_jobs_simulated_total"),
    ];
    let subs = [
        b0.metric("r2d2_serve_jobs_submitted_total"),
        b1.metric("r2d2_serve_jobs_submitted_total"),
    ];
    assert_eq!(sims.iter().sum::<u64>(), 1, "fleet simulated {sims:?}");
    assert_eq!(subs.iter().sum::<u64>(), 2);
    assert!(
        subs.contains(&2) && subs.contains(&0),
        "both submissions must land on one node: {subs:?}"
    );

    // The aggregated exposition sees the fleet totals plus the dispatcher's
    // own counters.
    let text = client::metrics(&addr, T).expect("dispatcher metrics");
    assert_eq!(
        parse_metric(&text, "r2d2_serve_jobs_simulated_total"),
        Some(1),
        "aggregate:\n{text}"
    );
    assert_eq!(
        parse_metric(&text, "r2d2_serve_jobs_submitted_total"),
        Some(2)
    );
    assert_eq!(parse_metric(&text, "dispatch_backends_live"), Some(2));
    assert!(parse_metric(&text, "dispatch_routed_total").unwrap() >= 2);

    // GET and DELETE proxy through: the done job is visible by id, a
    // terminal cancel is a 200 no-op, and the error paths use the schema.
    let g = client::job_status(&addr, &spec.hash_hex(), T).unwrap();
    assert_eq!((g.status, g.job_status()), (200, Some("done")));
    let c = client::cancel(&addr, &spec.hash_hex(), T).unwrap();
    assert_eq!((c.status, c.job_status()), (200, Some("done")));
    let miss = client::job_status(&addr, "0000000000000000", T).unwrap();
    assert_eq!(miss.status, 404);
    assert_eq!(miss.api_error().unwrap().code, "unknown-job");
    let bad = client::job_status(&addr, "nope", T).unwrap();
    assert_eq!(bad.status, 400);
    assert_eq!(bad.api_error().unwrap().code, "bad-job-id");

    stop_dispatcher(&handle, join);
}

#[test]
fn batches_split_across_the_ring_and_reassemble_in_order() {
    let b0 = Backend::start("batch", 0);
    let b1 = Backend::start("batch", 1);
    let (addr, handle, join) = start_dispatcher(&[&b0, &b1]);

    // 8 distinct specs; compute the expected per-backend split with the
    // same ring the dispatcher builds (hashing is deterministic).
    let ring = Ring::new(2);
    let specs: Vec<JobSpec> = (1..=8u32)
        .map(|sms| {
            let mut s = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
            s.overrides.num_sms = Some(sms);
            s
        })
        .collect();
    let expected: Vec<u64> = (0..2)
        .map(|b| {
            specs
                .iter()
                .filter(|s| ring.primary(s.content_hash()) == Some(b))
                .count() as u64
        })
        .collect();

    let o = client::submit_batch(&addr, &specs, T).expect("batch via dispatcher");
    assert_eq!(o.status, 200, "{:?}", o.body);
    assert_eq!(o.body.get("count").and_then(|v| v.as_u64()), Some(8));
    let jobs = o.body.get("jobs").and_then(|v| v.as_arr()).expect("jobs");
    assert_eq!(jobs.len(), 8);
    // Reassembly: the per-job array is in request order even though the
    // batch was split across two nodes.
    for (job, spec) in jobs.iter().zip(&specs) {
        assert_eq!(
            job.get("id").and_then(|v| v.as_str()),
            Some(spec.hash_hex().as_str()),
            "{:?}",
            o.body
        );
    }
    let subs = [
        b0.metric("r2d2_serve_jobs_submitted_total"),
        b1.metric("r2d2_serve_jobs_submitted_total"),
    ];
    assert_eq!(subs.to_vec(), expected, "split does not match the ring");

    stop_dispatcher(&handle, join);
}

#[test]
fn failover_survives_one_backend_death_and_503s_when_all_are_dead() {
    let mut b0 = Backend::start("failover", 0);
    let mut b1 = Backend::start("failover", 1);
    let (addr, handle, join) = start_dispatcher(&[&b0, &b1]);

    // A spec owned by backend 0, submitted while both are live, lands there.
    let spec0 = spec_with_primary(0);
    let o = client::submit(&addr, &spec0, true, T).unwrap();
    assert_eq!(o.status, 200, "{:?}", o.body);
    assert_eq!(b0.metric("r2d2_serve_jobs_submitted_total"), 1);

    // Kill backend 0 mid-run; its keys must fail over to backend 1.
    b0.kill();
    let spec0b = {
        // Another spec owned by the (now dead) backend 0.
        let ring = Ring::new(2);
        (1..=64u32)
            .map(|sms| {
                let mut s = JobSpec::new("BP", Size::Small, ModelSpec::Baseline);
                s.overrides.num_sms = Some(sms);
                s
            })
            .find(|s| ring.primary(s.content_hash()) == Some(0))
            .expect("some BP spec hashes onto backend 0")
    };
    let o = client::submit(&addr, &spec0b, true, T).expect("failover submit");
    assert_eq!(o.status, 200, "{:?}", o.body);
    assert_eq!(o.job_status(), Some("done"));
    assert_eq!(
        b1.metric("r2d2_serve_jobs_submitted_total"),
        1,
        "the orphaned key must land on the surviving backend"
    );
    let text = client::metrics(&addr, T).unwrap();
    assert!(
        parse_metric(&text, "dispatch_failover_total").unwrap() >= 1,
        "failover not counted:\n{text}"
    );
    assert_eq!(parse_metric(&text, "dispatch_backends_live"), Some(1));

    // The failed-over job is still reachable by id through the dispatcher,
    // even though its ring primary is dead (404 fan-out).
    let g = client::job_status(&addr, &spec0b.hash_hex(), T).unwrap();
    assert_eq!((g.status, g.job_status()), (200, Some("done")));

    // Kill the survivor: the fleet is gone, submissions answer 503 with
    // the schema code and a Retry-After hint.
    b1.kill();
    let o = client::submit(&addr, &spec0, false, T).expect("dispatcher still answers");
    assert_eq!(o.status, 503, "{:?}", o.body);
    let err = o.api_error().expect("unified error schema");
    assert_eq!(err.code, "no-backend-live");
    assert_eq!(err.retry_after_s, Some(1));
    assert_eq!(o.retry_after, Some(1), "Retry-After header present");
    // Fleet health reflects it (probes run every 100ms).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (code, _) = client::healthz(&addr, T).unwrap();
        if code == 503 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "healthz never flipped"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    stop_dispatcher(&handle, join);
}

#[test]
fn relayed_progress_stream_is_byte_identical_to_direct() {
    let b0 = Backend::start("relay", 0);
    let b1 = Backend::start("relay", 1);
    let (addr, handle, join) = start_dispatcher(&[&b0, &b1]);

    let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    let o = client::submit(&addr, &spec, true, T).unwrap();
    assert_eq!(o.status, 200, "{:?}", o.body);
    let id = spec.hash_hex();

    // A completed job's stream replays deterministically, so the relayed
    // body must match a direct connection to the owning backend byte for
    // byte.
    let collect = |addr: &str| -> (u16, Vec<u8>) {
        let mut bytes = Vec::new();
        let (status, _) = r2d2_serve::http::client_stream(
            addr,
            "GET",
            &format!("/v1/jobs/{id}/progress"),
            T,
            &mut |chunk| {
                bytes.extend_from_slice(chunk);
                Ok(())
            },
        )
        .expect("stream");
        (status, bytes)
    };
    let (via_status, via_dispatch) = collect(&addr);
    assert_eq!(via_status, 200);
    // The owning backend is whichever one saw the submission.
    let owner = if b0.metric("r2d2_serve_jobs_submitted_total") > 0 {
        &b0
    } else {
        &b1
    };
    let (direct_status, direct) = collect(&owner.addr);
    assert_eq!(direct_status, 200);
    assert!(!direct.is_empty());
    assert_eq!(
        via_dispatch, direct,
        "relayed NDJSON differs from the direct stream"
    );

    // Streaming error paths carry the schema through the relay too.
    let miss = client::watch(&addr, "0000000000000000", T, &mut |v| {
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_str()),
            Some("unknown-job")
        );
    })
    .expect("stream completes");
    assert_eq!(miss, 404);

    stop_dispatcher(&handle, join);
}

#[test]
fn unprefixed_paths_answer_404_not_found() {
    let b0 = Backend::start("unprefixed", 0);
    let (addr, handle, join) = start_dispatcher(&[&b0]);
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    let body = spec.to_json().to_json();
    let id = spec.hash_hex();
    for (method, path) in [
        ("GET", "/healthz".to_string()),
        ("GET", "/metrics".to_string()),
        ("POST", "/jobs".to_string()),
        ("POST", "/jobs/batch".to_string()),
        ("GET", format!("/jobs/{id}")),
        ("DELETE", format!("/jobs/{id}")),
        ("GET", format!("/jobs/{id}/progress")),
        ("POST", "/shutdown".to_string()),
    ] {
        let resp = r2d2_serve::http::client_request(&addr, method, &path, Some(&body), T).unwrap();
        assert_eq!(resp.status, 404, "{method} {path}: {}", resp.body);
        let v = r2d2_harness::json::parse(&resp.body).expect("error body is JSON");
        let err = r2d2_serve::ApiError::from_response(404, &v).expect("unified error schema");
        assert_eq!(err.code, "not-found", "{method} {path}");
    }
    // Nothing reached the backend, and the unprefixed shutdown did not
    // drain the dispatcher.
    assert_eq!(b0.metric("r2d2_serve_jobs_submitted_total"), 0);
    let (code, _) = client::healthz(&addr, T).unwrap();
    assert_eq!(code, 200);

    stop_dispatcher(&handle, join);
}
