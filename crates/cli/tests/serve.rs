//! Process-level smoke test of `r2d2 serve` + `r2d2 submit`: start the real
//! binary on an ephemeral port, drive it over real sockets, and exercise
//! graceful shutdown. This is what the CI "service smoke" step runs.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use r2d2_harness::{JobSpec, ModelSpec};
use r2d2_workloads::Size;

const T: Duration = Duration::from_secs(120);

/// Distinguishes concurrently-running tests' services (same pid).
static SPAWN_SEQ: AtomicUsize = AtomicUsize::new(0);

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_r2d2"))
}

struct Service {
    child: Child,
    addr: String,
    results: std::path::PathBuf,
}

impl Service {
    /// Spawn `r2d2 serve` on port 0 and parse the bound address from its
    /// "listening on ..." line.
    fn spawn() -> Service {
        Service::spawn_args(&["--workers", "2", "--queue-cap", "8"])
    }

    /// [`Service::spawn`] with explicit serve options (beyond `--addr`).
    ///
    /// The daemon's stdout and stderr are persisted under
    /// `target/tmp/serve-smoke-logs/` so CI can upload them as an artifact
    /// when this smoke test fails.
    fn spawn_args(extra: &[&str]) -> Service {
        let tag = format!(
            "{}-{}",
            std::process::id(),
            SPAWN_SEQ.fetch_add(1, Ordering::SeqCst)
        );
        let results = std::env::temp_dir().join(format!("r2d2-serve-smoke-{tag}"));
        let _ = std::fs::remove_dir_all(&results);
        let logs = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-smoke-logs");
        std::fs::create_dir_all(&logs).expect("create smoke log dir");
        let stderr_log =
            std::fs::File::create(logs.join(format!("serve-{tag}.stderr.log"))).expect("log file");
        let mut child = bin()
            .env("R2D2_RESULTS", &results)
            // Pin the set-resolution size so named-set submissions stay
            // small regardless of the ambient R2D2_SIZE.
            .env("R2D2_SIZE", "small")
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr_log))
            .spawn()
            .expect("spawn r2d2 serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("a listening line")
            .expect("readable stdout");
        let addr = first
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {first}"))
            .split_whitespace()
            .next()
            .unwrap()
            .to_string();
        // Keep draining stdout for the life of the service: dropping the
        // reader closes the pipe and the daemon's next println would die
        // with EPIPE. The thread exits on EOF when the child does, mirroring
        // everything into the on-disk log for the CI failure artifact.
        let mut stdout_log =
            std::fs::File::create(logs.join(format!("serve-{tag}.stdout.log"))).expect("log file");
        let _ = writeln!(stdout_log, "{first}");
        std::thread::spawn(move || {
            for line in lines.by_ref().map_while(Result::ok) {
                let _ = writeln!(stdout_log, "{line}");
            }
        });
        Service {
            child,
            addr,
            results,
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.results);
    }
}

#[test]
fn serve_and_submit_round_trip_with_graceful_shutdown() {
    let mut svc = Service::spawn();
    let addr = svc.addr.clone();

    // Liveness and metrics answer.
    let (code, body) = r2d2_serve::healthz(&addr, T).expect("healthz");
    assert_eq!((code, body.as_str()), (200, "ok"));
    let metrics = r2d2_serve::fetch_metrics(&addr, T).expect("metrics");
    for needle in [
        "r2d2_serve_queue_depth",
        "r2d2_serve_in_flight",
        "r2d2_serve_cache_hit_rate",
        "r2d2_serve_job_wall_ms_p99",
    ] {
        assert!(metrics.contains(needle), "missing {needle}:\n{metrics}");
    }

    // `r2d2 submit --wait` against the spawned service completes a small
    // zoo job and prints the response JSON.
    let out = bin()
        .args(["submit", "NN", "baseline", "--addr", &addr, "--wait"])
        .output()
        .expect("run r2d2 submit");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body: String = String::from_utf8(out.stdout).unwrap();
    let v = r2d2_harness::json::parse(body.trim()).expect("response is JSON");
    assert_eq!(
        v.get("status").and_then(r2d2_harness::json::Value::as_str),
        Some("done"),
        "{body}"
    );
    let rec = r2d2_harness::RunRecord::from_json(v.get("record").expect("record"))
        .expect("record decodes");

    // The served Stats match a direct in-process run of the same spec
    // bit-for-bit (the service and the harness share one execution path).
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    let direct = r2d2_harness::execute(&spec).expect("direct run");
    assert_eq!(rec.stats, direct.stats, "served vs direct Stats diverged");
    assert_eq!(rec.energy, direct.energy);

    // Graceful shutdown: the server drains and the process exits 0.
    assert_eq!(r2d2_serve::shutdown(&addr, T).expect("shutdown"), 200);
    let status = svc.child.wait().expect("wait for serve to exit");
    assert!(status.success(), "serve must exit cleanly after draining");
    assert!(
        r2d2_serve::healthz(&addr, Duration::from_secs(2)).is_err(),
        "port must be closed after shutdown"
    );
}

#[test]
fn sigterm_drains_and_exits_zero() {
    let mut svc = Service::spawn_args(&["--workers", "1", "--queue-cap", "8"]);
    let addr = svc.addr.clone();
    let out = bin()
        .args(["submit", "NN", "baseline", "--addr", &addr, "--wait"])
        .output()
        .expect("run r2d2 submit");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The daemon is idle, blocked in accept: SIGTERM alone must wake it.
    let kill = Command::new("kill")
        .args(["-TERM", &svc.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = svc.child.try_wait().expect("poll serve") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve did not exit within 10 s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "serve must drain and exit 0: {status}");
    assert!(
        r2d2_serve::healthz(&addr, Duration::from_secs(2)).is_err(),
        "port must be closed after SIGTERM"
    );
}

/// Poll a job's status over the wire until `want` matches it.
fn poll_status(addr: &str, id: &str, limit: Duration, want: impl Fn(&str) -> bool) -> String {
    let deadline = std::time::Instant::now() + limit;
    loop {
        let s = r2d2_serve::job_status(addr, id, T).expect("job status");
        let status = s.job_status().expect("status field").to_string();
        if want(&status) {
            return status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timed out polling {id}; last status {status:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn batch_cancel_and_watch_over_real_sockets() {
    use r2d2_harness::json::{self, Value};

    // One worker, so a slow job deterministically parks later submissions
    // in the queue.
    let mut svc = Service::spawn_args(&["--workers", "1", "--queue-cap", "8"]);
    let addr = svc.addr.clone();

    // Batch-submit a named figure set through the CLI; sec57 is the
    // smallest (4 jobs), resolved server-side at R2D2_SIZE=small.
    let out = bin()
        .args(["submit", "--set", "sec57", "--addr", &addr])
        .output()
        .expect("run r2d2 submit --set");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = json::parse(String::from_utf8(out.stdout).unwrap().trim()).expect("batch JSON");
    assert_eq!(v.get("count").and_then(Value::as_u64), Some(4), "{v:?}");
    let set = r2d2_harness::sets::set("sec57", Size::Small).expect("sec57 set");
    assert_eq!(
        v.get("jobs").and_then(Value::as_arr).map(<[Value]>::len),
        Some(set.len())
    );

    // Wait for the set to drain, then check the batch simulated each
    // distinct spec exactly once.
    for spec in &set {
        let status = poll_status(&addr, &spec.hash_hex(), Duration::from_secs(300), |s| {
            s == "done" || s == "failed"
        });
        assert_eq!(status, "done", "{} must complete", spec.label());
    }

    // A full-size job occupies the single worker for a long time...
    let slow = JobSpec::new("MVT", Size::Full, ModelSpec::Baseline);
    let slow_id = slow.hash_hex();
    let o = r2d2_serve::submit(&addr, &slow, false, T).expect("submit slow job");
    assert_eq!(o.status, 202, "{:?}", o.body);
    poll_status(&addr, &slow_id, Duration::from_secs(300), |s| {
        s == "running"
    });

    // ...so this distinct job stays queued, and `r2d2 cancel` takes it out
    // of the queue before it ever runs.
    let mut queued = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    queued.overrides.num_sms = Some(37);
    let queued_id = queued.hash_hex();
    let o = r2d2_serve::submit(&addr, &queued, false, T).expect("submit queued job");
    assert_eq!(o.status, 202, "{:?}", o.body);
    let out = bin()
        .args(["cancel", &queued_id, "--addr", &addr])
        .output()
        .expect("run r2d2 cancel");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = json::parse(String::from_utf8(out.stdout).unwrap().trim()).expect("cancel JSON");
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("cancelled"),
        "{v:?}"
    );

    // Cancel the running job: the CLI reports the signal, and the worker
    // lands the `cancelled` state within an epoch instead of letting the
    // full-size run finish.
    let out = bin()
        .args(["cancel", &slow_id, "--addr", &addr])
        .output()
        .expect("run r2d2 cancel (running)");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let status = poll_status(&addr, &slow_id, Duration::from_secs(300), |s| {
        s == "done" || s == "failed" || s == "cancelled"
    });
    assert_eq!(status, "cancelled");

    // `r2d2 watch` streams a completed job's chunked progress series; the
    // terminal line must replay the exact buckets a direct profiled run of
    // the same spec produces.
    let done_spec = &set[0];
    let out = bin()
        .args(["watch", &done_spec.hash_hex(), "--addr", &addr])
        .output()
        .expect("run r2d2 watch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a terminal line");
    let v = json::parse(last).expect("terminal line is JSON");
    assert_eq!(v.get("status").and_then(Value::as_str), Some("done"));
    let snap = r2d2_harness::ProgressSnapshot::from_json(&v).expect("snapshot decodes");
    assert!(snap.finished);
    let mut prof = r2d2_trace::Profiler::default();
    r2d2_harness::execute_with_profiler(done_spec, &mut prof).expect("direct profiled run");
    assert_eq!(
        snap.buckets.as_slice(),
        prof.buckets(),
        "streamed series must be bit-identical to the profiler's"
    );
    assert_eq!(snap.total_cycles, prof.total_cycles());

    // Metrics reflect the whole session: 4 set jobs simulated (the slow job
    // was cancelled mid-run, the queued one never ran) and 2 cancellations.
    let metrics = r2d2_serve::fetch_metrics(&addr, T).expect("metrics");
    let metric = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("r2d2_serve_{name} ")))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|x| x.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in:\n{metrics}"))
    };
    assert_eq!(metric("jobs_simulated_total"), set.len() as u64);
    assert_eq!(metric("jobs_cancelled_total"), 2);
    assert_eq!(metric("batch_submissions_total"), 1);

    assert_eq!(r2d2_serve::shutdown(&addr, T).expect("shutdown"), 200);
    let status = svc.child.wait().expect("wait for serve to exit");
    assert!(status.success(), "serve must exit cleanly after draining");
}
