//! In-process integration tests of the simulation service: a real
//! `TcpListener` on a loopback port, real HTTP over `TcpStream`, and real
//! simulations — only the process boundary is elided (the CLI smoke test in
//! `crates/cli/tests/serve.rs` covers that).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use r2d2_harness::{Cache, JobSpec, ModelSpec};
use r2d2_serve::{client, Server, ServerConfig, ServerHandle};
use r2d2_sim::{GpuConfig, SimSession, Stats};
use r2d2_workloads::Size;

const T: Duration = Duration::from_secs(120);

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("r2d2-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Start a server on an ephemeral loopback port with its own results dir.
/// Returns `(addr, handle, join, results_dir)`.
fn start(
    tag: &str,
    workers: usize,
    queue_cap: usize,
) -> (
    String,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
    PathBuf,
) {
    start_retaining(tag, workers, queue_cap, r2d2_serve::queue::RETAIN_COMPLETED)
}

/// [`start`] with an explicit completed-entry retention bound.
fn start_retaining(
    tag: &str,
    workers: usize,
    queue_cap: usize,
    retain_completed: usize,
) -> (
    String,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
    PathBuf,
) {
    let results = tmpdir(tag);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        job_timeout: Duration::from_secs(300),
        use_cache: true,
        retain_completed,
        results_dir: Some(results.clone()),
        verbose: false,
    };
    let server = Server::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join, results)
}

fn stop(handle: &ServerHandle, join: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    join.join().expect("server thread").expect("clean exit");
}

/// The Stats a direct in-process `SimSession` run produces for `spec`,
/// merged across the workload's launches — the ground truth the service
/// must match bit-for-bit.
fn direct_stats(spec: &JobSpec) -> Stats {
    let w = r2d2_workloads::resolve(&spec.workload, spec.size).expect("zoo workload");
    let cfg = GpuConfig::default();
    let mut gmem = w.gmem.clone();
    let mut stats = Stats::default();
    for l in &w.launches {
        let mut filter = r2d2_sim::BaselineFilter;
        let s = SimSession::new(&cfg)
            .filter(&mut filter)
            .run(l, &mut gmem)
            .expect("direct simulation");
        stats.merge_sequential(&s);
    }
    stats
}

#[test]
fn served_stats_match_direct_simsession_run_bit_for_bit() {
    let (addr, handle, join, results) = start("bitident", 2, 16);
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);

    let outcome = client::submit(&addr, &spec, true, T).expect("submit --wait");
    assert_eq!(outcome.status, 200, "{:?}", outcome.body);
    assert_eq!(outcome.job_status(), Some("done"));
    assert_eq!(outcome.job_id(), Some(spec.hash_hex().as_str()));

    // Decode the served record through the same JSON layer the harness
    // uses, then compare against a direct in-process run.
    let rec = r2d2_harness::RunRecord::from_json(outcome.body.get("record").expect("record"))
        .expect("record decodes");
    assert_eq!(
        rec.stats,
        direct_stats(&spec),
        "served Stats must be bit-identical to a direct SimSession run"
    );
    assert!(!rec.cached, "first run simulates");

    // And the result landed in the content-addressed cache on disk.
    let cache = Cache::at(&results.join("cache"));
    assert_eq!(cache.load(&spec).map(|r| r.stats), Some(rec.stats.clone()));

    // A second submission coalesces onto the completed entry — identical
    // stats, flagged as deduplicated, and no second simulation (metrics).
    let again = client::submit(&addr, &spec, true, T).expect("resubmit");
    let rec2 = r2d2_harness::RunRecord::from_json(again.body.get("record").unwrap()).unwrap();
    assert_eq!(rec2.stats, rec.stats);
    assert_eq!(
        again.body.get("deduped"),
        Some(&r2d2_harness::json::Value::Bool(true)),
        "{:?}",
        again.body
    );
    let text = client::metrics(&addr, T).expect("metrics");
    assert!(
        text.contains("r2d2_serve_jobs_simulated_total 1"),
        "resubmission must not simulate again:\n{text}"
    );

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn duplicate_concurrent_submissions_execute_exactly_once() {
    let (addr, handle, join, results) = start("dedup", 2, 16);
    let spec = JobSpec::new("BP", Size::Small, ModelSpec::Baseline);

    // Fire N identical submissions concurrently; every one must come back
    // `done` with the same job id, and the metrics must show exactly one
    // simulation (dedup coalescing, completed-entry reuse, or a disk-cache
    // hit — never a second execution).
    const N: usize = 8;
    let addr = Arc::new(addr);
    let results_list: Vec<_> = (0..N)
        .map(|_| {
            let addr = Arc::clone(&addr);
            let spec = spec.clone();
            std::thread::spawn(move || client::submit(&addr, &spec, true, T).expect("submit"))
        })
        .collect();
    let outcomes: Vec<_> = results_list
        .into_iter()
        .map(|j| j.join().expect("client thread"))
        .collect();
    for o in &outcomes {
        assert_eq!(o.status, 200, "{:?}", o.body);
        assert_eq!(o.job_status(), Some("done"));
        assert_eq!(o.job_id(), Some(spec.hash_hex().as_str()));
    }

    let text = client::metrics(&addr, T).expect("metrics");
    let metric = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(&format!("r2d2_serve_{name} ")))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in:\n{text}"))
    };
    assert_eq!(
        metric("jobs_simulated_total"),
        1,
        "identical submissions must simulate exactly once\n{text}"
    );
    assert_eq!(metric("jobs_submitted_total"), N as u64);
    assert_eq!(metric("jobs_failed_total"), 0);

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    // No workers: submissions stay pending, so the queue fills
    // deterministically to its cap of 2.
    let (addr, handle, join, results) = start("shed", 0, 2);
    let mut specs = Vec::new();
    for n in 1..=3u32 {
        let mut s = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
        s.overrides.num_sms = Some(n);
        specs.push(s);
    }

    for s in &specs[..2] {
        let o = client::submit(&addr, s, false, T).expect("submit");
        assert_eq!(o.status, 202, "{:?}", o.body);
        assert_eq!(o.job_status(), Some("queued"));
    }
    // Third distinct spec: queue is at cap.
    let body = specs[2].to_json().to_json();
    let resp = r2d2_serve::http::client_request(&addr, "POST", "/v1/jobs", Some(&body), T).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));
    // The typed client surfaces the backoff hint.
    let o = client::submit(&addr, &specs[2], false, T).expect("shed submit");
    assert_eq!(o.status, 429);
    assert_eq!(o.retry_after, Some(1), "Retry-After must be parsed");
    // But a duplicate of a queued spec still coalesces instead of shedding.
    let o = client::submit(&addr, &specs[0], false, T).expect("dup submit");
    assert_eq!(o.status, 200);
    assert_eq!(o.job_status(), Some("queued"));

    // GET /jobs/<id> sees the queued entries; unknown ids 404.
    let o = client::job_status(&addr, &specs[1].hash_hex(), T).unwrap();
    assert_eq!((o.status, o.job_status()), (200, Some("queued")));
    let o = client::job_status(&addr, "0000000000000000", T).unwrap();
    assert_eq!(o.status, 404);

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn bad_submissions_are_rejected_with_400() {
    let (addr, handle, join, results) = start("badreq", 1, 4);
    let post = |body: &str| {
        r2d2_serve::http::client_request(&addr, "POST", "/v1/jobs", Some(body), T)
            .unwrap()
            .status
    };
    assert_eq!(post("not json"), 400);
    assert_eq!(post("{\"size\": \"small\"}"), 400, "workload is required");
    assert_eq!(post("{\"workload\": \"NOPE\"}"), 400, "unknown workload id");
    assert_eq!(
        post("{\"workload\": \"NN\", \"model\": \"quantum\"}"),
        400,
        "unknown model"
    );
    assert_eq!(
        post("{\"workload\": \"NN\", \"size\": \"tiny\"}"),
        400,
        "unknown size"
    );
    // Unknown paths and methods.
    let r = r2d2_serve::http::client_request(&addr, "GET", "/v1/nope", None, T).unwrap();
    assert_eq!(r.status, 404);
    let r = r2d2_serve::http::client_request(&addr, "PUT", "/v1/jobs", None, T).unwrap();
    assert_eq!(r.status, 405);
    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

/// Parse one counter out of the `/metrics` exposition.
fn metric(addr: &str, name: &str) -> u64 {
    let text = client::metrics(addr, T).expect("metrics");
    text.lines()
        .find(|l| l.starts_with(&format!("r2d2_serve_{name} ")))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in:\n{text}"))
}

/// Poll `GET /jobs/<id>` until the predicate holds; panics after `limit`.
fn poll_status(addr: &str, id: &str, limit: Duration, want: impl Fn(&str) -> bool) -> String {
    let deadline = std::time::Instant::now() + limit;
    loop {
        let s = client::job_status(addr, id, T).expect("job status");
        let status = s.job_status().expect("status field").to_string();
        if want(&status) {
            return status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timed out polling {id}; last status {status:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn delete_cancels_a_queued_job() {
    // No workers: the job deterministically stays queued until cancelled.
    let (addr, handle, join, results) = start("cancelq", 0, 8);
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    let id = spec.hash_hex();
    let o = client::submit(&addr, &spec, false, T).unwrap();
    assert_eq!(o.status, 202, "{:?}", o.body);

    let c = client::cancel(&addr, &id, T).unwrap();
    assert_eq!(c.status, 200, "{:?}", c.body);
    assert_eq!(c.job_status(), Some("cancelled"));

    // Terminal: a second DELETE and a GET both see the cancelled state.
    let c2 = client::cancel(&addr, &id, T).unwrap();
    assert_eq!((c2.status, c2.job_status()), (200, Some("cancelled")));
    let g = client::job_status(&addr, &id, T).unwrap();
    assert_eq!((g.status, g.job_status()), (200, Some("cancelled")));

    // Bad ids: malformed hex 400, unknown 404.
    assert_eq!(client::cancel(&addr, "nope", T).unwrap().status, 400);
    assert_eq!(
        client::cancel(&addr, "0000000000000000", T).unwrap().status,
        404
    );
    assert_eq!(metric(&addr, "jobs_cancelled_total"), 1);

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn delete_stops_a_running_job_promptly() {
    let (addr, handle, join, results) = start("cancelrun", 1, 8);
    // A full-size job runs for seconds — long enough that the 1ms poll
    // below reliably observes it `running` before it completes.
    let spec = JobSpec::new("MVT", Size::Full, ModelSpec::Baseline);
    let id = spec.hash_hex();
    let o = client::submit(&addr, &spec, false, T).unwrap();
    assert_eq!(o.status, 202, "{:?}", o.body);
    poll_status(&addr, &id, Duration::from_secs(60), |s| s == "running");

    let c = client::cancel(&addr, &id, T).unwrap();
    assert_eq!(c.status, 202, "signalled, not yet terminal: {:?}", c.body);

    // The simulator observes the token at the next epoch boundary and the
    // worker marks the job cancelled — far sooner than the run would have
    // taken; if cancellation were broken the job would come back `done`.
    let status = poll_status(&addr, &id, Duration::from_secs(120), |s| {
        s == "done" || s == "failed" || s == "cancelled"
    });
    assert_eq!(status, "cancelled");
    assert_eq!(metric(&addr, "jobs_cancelled_total"), 1);

    // A cancelled run must never pollute the result cache.
    let cache = Cache::at(&results.join("cache"));
    assert!(cache.load(&spec).is_none(), "partial result was cached");

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn batch_with_duplicate_specs_simulates_each_distinct_spec_once() {
    let (addr, handle, join, results) = start("batch", 2, 16);
    let a = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    let b = JobSpec::new("BP", Size::Small, ModelSpec::Baseline);
    // `a` appears twice: the duplicate must coalesce, not re-simulate.
    let batch = [a.clone(), a.clone(), b.clone()];

    let o = client::submit_batch(&addr, &batch, T).unwrap();
    assert_eq!(o.status, 200, "{:?}", o.body);
    assert_eq!(o.body.get("count").and_then(|v| v.as_u64()), Some(3));
    let jobs = o
        .body
        .get("jobs")
        .and_then(|v| v.as_arr())
        .expect("jobs array");
    assert_eq!(jobs.len(), 3);
    assert_eq!(
        jobs[0].get("id").and_then(|v| v.as_str()),
        Some(a.hash_hex().as_str())
    );
    assert_eq!(jobs[1].get("id"), jobs[0].get("id"));
    assert_eq!(jobs[1].get("deduped").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        jobs[2].get("id").and_then(|v| v.as_str()),
        Some(b.hash_hex().as_str())
    );

    for spec in [&a, &b] {
        let status = poll_status(&addr, &spec.hash_hex(), Duration::from_secs(60), |s| {
            s == "done" || s == "failed"
        });
        assert_eq!(status, "done");
    }
    assert_eq!(
        metric(&addr, "jobs_simulated_total"),
        2,
        "the duplicated spec must simulate exactly once"
    );
    assert_eq!(metric(&addr, "batch_submissions_total"), 1);

    // A named set resolves server-side; sec57 is the smallest (4 jobs).
    let o = client::submit_set(&addr, "sec57", T).unwrap();
    assert_eq!(o.status, 200, "{:?}", o.body);
    assert_eq!(o.body.get("count").and_then(|v| v.as_u64()), Some(4));
    // Unknown sets and garbage bodies are 400s.
    assert_eq!(client::submit_set(&addr, "fig99", T).unwrap().status, 400);
    let r =
        r2d2_serve::http::client_request(&addr, "POST", "/v1/jobs/batch", Some("[]"), T).unwrap();
    assert_eq!(r.status, 400, "empty batch");

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn progress_stream_replays_the_profilers_series() {
    let (addr, handle, join, results) = start("progress", 2, 16);
    let spec = JobSpec::new("BP", Size::Small, ModelSpec::Baseline);
    let o = client::submit(&addr, &spec, true, T).unwrap();
    assert_eq!(o.status, 200, "{:?}", o.body);
    assert_eq!(o.job_status(), Some("done"));

    // Stream the completed job: the final line carries the terminal status
    // plus the complete series.
    let mut lines = Vec::new();
    let status = client::watch(&addr, &spec.hash_hex(), T, &mut |v| lines.push(v.clone())).unwrap();
    assert_eq!(status, 200);
    let last = lines.last().expect("at least the terminal line");
    assert_eq!(last.get("status").and_then(|v| v.as_str()), Some("done"));
    let snap = r2d2_harness::ProgressSnapshot::from_json(last).expect("snapshot decodes");
    assert!(snap.finished);

    // Ground truth: the bucket series a direct profiled run produces. The
    // profiler is deterministic, so the served stream must replay it
    // bit-for-bit.
    let mut prof = r2d2_trace::Profiler::default();
    r2d2_harness::execute_with_profiler(&spec, &mut prof).expect("direct profiled run");
    assert_eq!(
        snap.buckets.as_slice(),
        prof.buckets(),
        "streamed series differs from the profiler's"
    );
    assert_eq!(snap.total_cycles, prof.total_cycles());

    // Unknown ids 404 even on the streaming path.
    let err_status =
        client::watch(&addr, "0000000000000000", T, &mut |_| {}).expect("stream completes");
    assert_eq!(err_status, 404);

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn evicted_jobs_fall_back_to_the_disk_cache() {
    // Retention 0: completed entries leave memory immediately.
    let (addr, handle, join, results) = start_retaining("evict", 2, 16, 0);
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    let id = spec.hash_hex();
    let o = client::submit(&addr, &spec, true, T).unwrap();
    assert_eq!(o.status, 200, "{:?}", o.body);

    // The in-memory entry is gone, but GET answers from results/cache/.
    let g = client::job_status(&addr, &id, T).unwrap();
    assert_eq!((g.status, g.job_status()), (200, Some("done")));
    let rec = r2d2_harness::RunRecord::from_json(g.body.get("record").expect("record"))
        .expect("record decodes");
    assert_eq!(rec.stats, direct_stats(&spec));

    // The progress stream degrades to a single terminal line (the live
    // series died with the in-memory entry).
    let mut lines = Vec::new();
    let status = client::watch(&addr, &id, T, &mut |v| lines.push(v.clone())).unwrap();
    assert_eq!(status, 200);
    assert_eq!(lines.len(), 1);
    assert_eq!(
        lines[0].get("status").and_then(|v| v.as_str()),
        Some("done")
    );

    // Cancelling an evicted job is a 404 — there is nothing left to stop.
    assert_eq!(client::cancel(&addr, &id, T).unwrap().status, 404);

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

/// Assert a response carries the unified error schema with the given code.
fn assert_error_code(resp: &r2d2_serve::http::ClientResponse, status: u16, code: &str) {
    assert_eq!(resp.status, status, "body: {}", resp.body);
    let v = r2d2_harness::json::parse(&resp.body)
        .unwrap_or_else(|e| panic!("error body is not JSON ({e}): {}", resp.body));
    let err = r2d2_serve::ApiError::from_response(resp.status, &v)
        .unwrap_or_else(|| panic!("body does not carry the error schema: {}", resp.body));
    assert_eq!(err.code, code, "body: {}", resp.body);
}

/// Send raw bytes and read back `(status, body)` — for requests the typed
/// client cannot produce (malformed heads, oversized Content-Length).
fn raw_request(addr: &str, payload: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(T)).unwrap();
    s.write_all(payload.as_bytes()).unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let status = buf
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {buf:?}"));
    let body = buf
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn every_4xx_5xx_carries_the_unified_error_schema() {
    // No workers + cap 1: the queue fills deterministically for the 429.
    let (addr, handle, join, results) = start("golden", 0, 1);
    let req = |method: &str, path: &str, body: Option<&str>| {
        r2d2_serve::http::client_request(&addr, method, path, body, T).unwrap()
    };

    // Submission-body rejections.
    assert_error_code(&req("POST", "/v1/jobs", Some("not json")), 400, "bad-json");
    assert_error_code(
        &req("POST", "/v1/jobs", Some("{\"size\": \"small\"}")),
        400,
        "bad-spec",
    );
    assert_error_code(
        &req("POST", "/v1/jobs", Some("{\"workload\": \"NOPE\"}")),
        400,
        "unknown-workload",
    );

    // Backpressure: fill the single slot, then shed with the backoff hint
    // in both the header and the body.
    let a = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    let mut b = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    b.overrides.num_sms = Some(2);
    assert_eq!(client::submit(&addr, &a, false, T).unwrap().status, 202);
    let shed = req("POST", "/v1/jobs", Some(&b.to_json().to_json()));
    assert_error_code(&shed, 429, "queue-full");
    assert_eq!(shed.header("retry-after"), Some("1"));
    let v = r2d2_harness::json::parse(&shed.body).unwrap();
    let err = r2d2_serve::ApiError::from_response(429, &v).unwrap();
    assert_eq!(err.retry_after_s, Some(1), "body mirrors the header");

    // Job-id handling, batch shapes, routing.
    assert_error_code(&req("GET", "/v1/jobs/nope", None), 400, "bad-job-id");
    assert_error_code(
        &req("GET", "/v1/jobs/0000000000000000", None),
        404,
        "unknown-job",
    );
    assert_error_code(
        &req("DELETE", "/v1/jobs/0000000000000000", None),
        404,
        "unknown-job",
    );
    assert_error_code(&req("POST", "/v1/jobs/batch", Some("[]")), 400, "bad-batch");
    assert_error_code(
        &req("POST", "/v1/jobs/batch", Some("{\"set\": \"fig99\"}")),
        400,
        "unknown-set",
    );
    assert_error_code(
        &req(
            "POST",
            "/v1/jobs/batch",
            Some("{\"set\": \"sec57\", \"size\": \"huge\"}"),
        ),
        400,
        "bad-batch",
    );
    assert_error_code(&req("GET", "/v1/nope", None), 404, "not-found");
    assert_error_code(&req("PUT", "/v1/jobs", None), 405, "method-not-allowed");

    // Parse-layer rejections, which never reach the router.
    let (status, body) = raw_request(&addr, "GARBAGE\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"malformed-request\""), "{body}");
    let (status, body) = raw_request(
        &addr,
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 2000000\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"payload-too-large\""), "{body}");

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn unprefixed_paths_answer_404_not_found() {
    let (addr, handle, join, results) = start("unprefixed", 0, 8);
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
        assert_error_code(&resp, 404, "not-found");
    }
    // Nothing was queued and the unprefixed shutdown did not drain.
    assert_eq!(metric(&addr, "jobs_submitted_total"), 0);
    let (code, body) = client::healthz(&addr, T).unwrap();
    assert_eq!((code, body.as_str()), (200, "ok"));

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn watchdog_fails_an_overrunning_job_and_frees_its_worker() {
    let results = tmpdir("watchdog");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 8,
        job_timeout: Duration::from_millis(50),
        use_cache: true,
        retain_completed: r2d2_serve::queue::RETAIN_COMPLETED,
        results_dir: Some(results.clone()),
        verbose: false,
    };
    let server = Server::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    // A full-size job runs for seconds, far past the 50 ms deadline.
    let slow = JobSpec::new("MVT", Size::Full, ModelSpec::Baseline);
    let o = client::submit(&addr, &slow, true, T).unwrap();
    assert_eq!(o.status, 200, "{:?}", o.body);
    assert_eq!(o.job_status(), Some("failed"), "{:?}", o.body);
    let error = o.body.get("error").and_then(|v| v.as_str()).unwrap_or("");
    assert!(error.contains("per-job watchdog"), "{error}");
    assert_eq!(metric(&addr, "job_timeouts_total"), 1);
    let cache = Cache::at(&results.join("cache"));
    assert!(cache.load(&slow).is_none(), "a timed-out run was cached");

    // The one worker is free again: a job well inside the deadline
    // completes on it.
    let quick = JobSpec::new("vecadd", Size::Small, ModelSpec::Baseline);
    let o = client::submit(&addr, &quick, true, T).unwrap();
    assert_eq!(o.job_status(), Some("done"), "{:?}", o.body);
    assert_eq!(metric(&addr, "jobs_simulated_total"), 1);

    stop(&handle, join);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn healthz_flips_to_draining_and_shutdown_drains_pending() {
    let (addr, handle, join, results) = start("drain", 0, 8);
    let (code, body) = client::healthz(&addr, T).unwrap();
    assert_eq!((code, body.as_str()), (200, "ok"));

    // Park a job (no workers), then shut down: the pending job must fail
    // with a shutdown error and new submissions must see 503.
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    let o = client::submit(&addr, &spec, false, T).unwrap();
    assert_eq!(o.status, 202);
    assert_eq!(client::shutdown(&addr, T).unwrap(), 200);

    join.join().expect("server thread").expect("clean exit");
    drop(handle);

    // The server is gone: the port no longer accepts connections.
    assert!(
        client::healthz(&addr, Duration::from_secs(2)).is_err(),
        "listener must be closed after drain"
    );
    let _ = std::fs::remove_dir_all(&results);
}
