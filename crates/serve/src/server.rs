//! The resident simulation service.
//!
//! One [`Server`] owns a [`Listener`], a [`JobQueue`], a worker pool, and
//! shared [`Metrics`]. Connections are one request each (`Connection:
//! close`); simulation work happens only on the worker pool, which executes
//! jobs through the harness [`Executor`] — so the service, the `sweep` CLI,
//! and the bench targets all share one execution path and one
//! content-addressed cache.
//!
//! ## Endpoints
//!
//! Every endpoint lives under the frozen `/v1` prefix; any other path
//! answers `404 not-found`. All 4xx/5xx responses carry the unified error
//! schema (see [`crate::api`]).
//!
//! | method & path    | behavior |
//! |------------------|----------|
//! | `POST /v1/jobs`  | submit a JobSpec JSON; `202` queued, `200` done (cache/dedup), `400` bad spec, `429` + `Retry-After` when full, `503` draining. `?wait=1` blocks until the job completes. |
//! | `POST /v1/jobs/batch` | submit many jobs at once: a JSON array of JobSpecs, or `{"set": "fig12"}` naming a harness figure set. Returns per-job ids; `200` when at least one job was accepted, `429` when every job shed. |
//! | `GET /v1/jobs/<id>` | status/result JSON for a job id (the spec's content hash); falls back to the on-disk cache for evicted entries. |
//! | `DELETE /v1/jobs/<id>` | cancel: queued jobs move straight to `cancelled` (`200`); running jobs get their token triggered and stop within one simulation epoch (`202`); terminal jobs are a no-op (`200`). |
//! | `GET /v1/jobs/<id>/progress` | chunked NDJSON stream of the job's live time series; the final line carries the terminal status and the complete series. |
//! | `GET /v1/healthz` | liveness: `200 ok` (`503` + `draining` error body during shutdown). |
//! | `GET /v1/metrics` | plain-text Prometheus-style counters. |
//! | `POST /v1/shutdown` | begin graceful shutdown (same path as SIGTERM/ctrl-c). |
//!
//! ## Shutdown protocol
//!
//! SIGTERM, SIGINT (ctrl-c), or `POST /v1/shutdown` stop the listener. The
//! queue rejects new submissions (503) and fails still-pending jobs,
//! workers finish the job they are running (in-flight work is drained,
//! never killed), and [`Server::run`] returns once every accepted
//! connection is answered.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use r2d2_harness::json::{self, obj, Value};
use r2d2_harness::{Cache, Executor, JobSpec, ProgressSnapshot};

use crate::api::{error_response, error_response_retry, no_route, progress_job_id};
use crate::http::{ChunkedWriter, Listener, Request, Response};
use crate::metrics::Metrics;
use crate::queue::{
    parse_job_id, Cancel, Job, JobQueue, JobStatus, Lookup, Submit, RETAIN_COMPLETED,
};

/// Tunables for one service instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8787` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads executing jobs. `0` means "no workers" — useful only
    /// in tests that exercise pure queue behavior.
    pub workers: usize,
    /// Pending-queue capacity; submissions beyond it get 429.
    pub queue_cap: usize,
    /// Per-job wall-clock watchdog. A job still running after this is
    /// cancelled at the simulator's next check, marked failed and never
    /// cached; its worker takes the next job.
    pub job_timeout: Duration,
    /// Read cached results (completed jobs are stored back either way).
    pub use_cache: bool,
    /// Completed entries retained in memory for `GET /jobs/<id>`; evicted
    /// ones remain answerable from the on-disk cache.
    pub retain_completed: usize,
    /// Explicit results directory; `None` uses the harness default
    /// (`results/`, honoring `R2D2_RESULTS`).
    pub results_dir: Option<std::path::PathBuf>,
    /// Per-request/connection log lines on stderr.
    pub verbose: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8787".into(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_cap: 256,
            job_timeout: Duration::from_secs(600),
            use_cache: true,
            retain_completed: RETAIN_COMPLETED,
            results_dir: None,
            verbose: false,
        }
    }
}

/// Everything the connection handlers and workers share.
struct Shared {
    cfg: ServerConfig,
    queue: JobQueue,
    metrics: Metrics,
    cache: Cache,
    listener: Listener,
    watchdog: Watchdog,
}

impl Shared {
    /// Begin graceful shutdown: wake the acceptor and stop the queue.
    fn shutdown(&self) {
        self.listener.stop();
        self.queue.begin_shutdown();
    }
}

/// Handle for requesting shutdown from another thread (tests, embedders).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Request graceful shutdown, as SIGTERM would.
    pub fn shutdown(&self) {
        self.shared.shutdown();
    }
}

/// A bound-but-not-yet-running service.
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and build the shared state. The service does not
    /// accept connections until [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let cache = match &cfg.results_dir {
            Some(dir) => Cache::at(&dir.join("cache")),
            None => Cache::open_default(),
        };
        let shared = Arc::new(Shared {
            queue: JobQueue::with_retention(cfg.queue_cap, cfg.retain_completed),
            metrics: Metrics::default(),
            cache,
            listener: Listener::bind(&cfg.addr)?,
            watchdog: Watchdog::default(),
            cfg,
        });
        Ok(Server { shared })
    }

    /// The actual bound address (resolves `:0` port picks).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.shared.listener.local_addr()
    }

    /// A shutdown handle, cloneable across threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Run until graceful shutdown completes: serve loop, worker pool and
    /// watchdog, then drain every running job and accepted connection.
    pub fn run(self) -> std::io::Result<()> {
        let shared = &self.shared;
        let result = std::thread::scope(|s| {
            let workers: Vec<_> = (0..shared.cfg.workers)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("r2d2-serve-worker-{i}"))
                        .spawn_scoped(s, || worker_loop(shared))
                        .expect("spawn worker")
                })
                .collect();
            std::thread::Builder::new()
                .name("r2d2-serve-watchdog".into())
                .spawn_scoped(s, || shared.watchdog.run())
                .expect("spawn watchdog");
            // Stopping the queue fails pending jobs and wakes the workers,
            // so `?wait=1` connections blocked on those jobs can answer.
            let result = shared.listener.serve(
                "serve",
                shared.cfg.verbose,
                |req, stream| route(req, stream, shared),
                || shared.queue.begin_shutdown(),
            );
            for w in workers {
                let _ = w.join();
            }
            shared.watchdog.close();
            result
        });
        if shared.cfg.verbose {
            eprintln!("[serve] drained; bye");
        }
        result
    }
}

/// One thread per server sleeps until the earliest running job's deadline
/// and fires that job's cancel token.
#[derive(Default)]
struct Watchdog {
    state: Mutex<Deadlines>,
    changed: Condvar,
}

#[derive(Default)]
struct Deadlines {
    /// Running jobs and their deadlines, `None` once fired.
    running: Vec<(Arc<Job>, Option<Instant>)>,
    /// Set once the workers have drained.
    closed: bool,
}

impl Watchdog {
    /// Watch `job` from now on (a `timeout` past `Instant`'s range never fires).
    fn arm(&self, job: &Arc<Job>, timeout: Duration) {
        if let Some(at) = Instant::now().checked_add(timeout) {
            let mut state = self.state.lock().expect("watchdog poisoned");
            state.running.push((Arc::clone(job), Some(at)));
            self.changed.notify_one();
        }
    }

    /// Stop watching `job`; returns whether its deadline fired.
    fn disarm(&self, job: &Arc<Job>) -> bool {
        let running = &mut self.state.lock().expect("watchdog poisoned").running;
        let i = running.iter().position(|(j, _)| Arc::ptr_eq(j, job));
        i.is_some_and(|i| running.swap_remove(i).1.is_none())
    }

    fn run(&self) {
        let mut state = self.state.lock().expect("watchdog poisoned");
        while !state.closed {
            let now = Instant::now();
            for (job, at) in &mut state.running {
                if at.is_some_and(|at| at <= now) {
                    *at = None;
                    job.cancel.cancel();
                }
            }
            let next = state.running.iter().filter_map(|(_, at)| *at).min();
            let wait = next.map_or(Duration::MAX, |at| at - now);
            (state, _) = self
                .changed
                .wait_timeout(state, wait)
                .expect("watchdog poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("watchdog poisoned").closed = true;
        self.changed.notify_all();
    }
}

/// Worker: pop jobs until shutdown, simulating each here under the watchdog.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        shared.watchdog.arm(&job, shared.cfg.job_timeout);
        let outcome = Executor::new(&shared.cache)
            .use_cache(shared.cfg.use_cache)
            .cancel(job.cancel.clone())
            .progress(job.progress.clone())
            .run(&job.spec);
        let timed_out = shared.watchdog.disarm(&job);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(rec) => {
                if rec.cached {
                    shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.metrics.simulated.fetch_add(1, Ordering::Relaxed);
                }
                shared.metrics.observe_wall_ms(wall_ms);
                if shared.cfg.verbose {
                    eprintln!(
                        "[serve] {} {} {:.0}ms{}",
                        job.id,
                        job.spec.label(),
                        wall_ms,
                        if rec.cached { " (cached)" } else { "" }
                    );
                }
                job.mark_done(rec);
            }
            Err(_) if timed_out => {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                let msg = format!(
                    "timed out after {:.0}s (per-job watchdog)",
                    shared.cfg.job_timeout.as_secs_f64()
                );
                if shared.cfg.verbose {
                    eprintln!("[serve] {} {} {msg}", job.id, job.spec.label());
                }
                job.mark_failed(msg);
            }
            Err(e) if job.cancel.is_cancelled() => {
                shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                if shared.cfg.verbose {
                    eprintln!("[serve] {} {} CANCELLED: {e}", job.id, job.spec.label());
                }
                job.mark_cancelled(e);
            }
            Err(e) => {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                if shared.cfg.verbose {
                    eprintln!("[serve] {} {} FAILED: {e}", job.id, job.spec.label());
                }
                job.mark_failed(e);
            }
        }
        shared.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        shared.queue.finished(&job);
    }
}

/// The serve loop's handler; the progress stream writes its own chunked
/// response, so it returns `None`.
fn route(req: &Request, stream: &mut TcpStream, shared: &Arc<Shared>) -> Option<Response> {
    if let Some(id) = progress_job_id(req) {
        return stream_progress(id, stream, shared);
    }
    Some(match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => post_jobs(req, shared),
        ("POST", "/v1/jobs/batch") => post_batch(req, shared),
        ("GET", p) if p.starts_with("/v1/jobs/") => get_job(&p["/v1/jobs/".len()..], shared),
        ("DELETE", p) if p.starts_with("/v1/jobs/") => delete_job(&p["/v1/jobs/".len()..], shared),
        ("GET", "/v1/healthz") => {
            if shared.listener.is_stopped() {
                error_response(503, "draining", "server is draining")
            } else {
                Response::text(200, "ok")
            }
        }
        ("GET", "/v1/metrics") => Response::text(200, &shared.metrics.render(shared.queue.depth())),
        ("POST", "/v1/shutdown") => {
            shared.shutdown();
            Response::text(200, "draining")
        }
        _ => no_route(req),
    })
}

/// JSON body for one job's state.
fn job_json(
    id: &str,
    spec: &JobSpec,
    status: JobStatus,
    record: Option<&r2d2_harness::RunRecord>,
    error: Option<&str>,
) -> Value {
    obj(vec![
        ("id", json::s(id)),
        ("status", json::s(status.as_str())),
        ("spec", spec.to_json()),
        (
            "record",
            record.map_or(Value::Null, r2d2_harness::RunRecord::to_json),
        ),
        ("error", error.map_or(Value::Null, json::s)),
    ])
}

/// A 400-class rejection before a spec ever reaches the queue: the stable
/// error `code` plus the human message, rendered through the unified schema.
struct Reject {
    code: &'static str,
    message: String,
}

impl Reject {
    fn response(&self) -> Response {
        error_response(400, self.code, &self.message)
    }
}

/// Parse and validate one JobSpec from a request-body JSON value.
fn spec_from_value(v: &Value) -> Result<JobSpec, Reject> {
    let spec = JobSpec::from_json_request(v).map_err(|e| Reject {
        code: "bad-spec",
        message: format!("bad JobSpec: {e}"),
    })?;
    if !r2d2_workloads::is_valid_id(&spec.workload) {
        return Err(Reject {
            code: "unknown-workload",
            message: format!("unknown workload id {:?}", spec.workload),
        });
    }
    Ok(spec)
}

/// Outcome of one spec's trip through the submission flow — shared by
/// `POST /jobs` and `POST /jobs/batch` so both answer from the cache,
/// coalesce duplicates, and bump the same counters.
enum SubmitFlow {
    Accepted {
        job: Arc<Job>,
        deduped: bool,
        status_code: u16,
    },
    Full,
    ShuttingDown,
}

fn submit_spec(spec: JobSpec, shared: &Arc<Shared>) -> SubmitFlow {
    shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);

    // Probe the result cache before queueing: completed experiments answer
    // instantly without occupying a queue slot or a worker.
    let submit = if shared.cfg.use_cache {
        match Executor::new(&shared.cache).probe(&spec) {
            Some(rec) => {
                shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                shared.metrics.observe_wall_ms(0.0);
                shared.queue.insert_completed(spec, rec)
            }
            None => shared.queue.submit(spec),
        }
    } else {
        shared.queue.submit(spec)
    };

    match submit {
        Submit::Enqueued(job) => SubmitFlow::Accepted {
            job,
            deduped: false,
            status_code: 202,
        },
        Submit::Existing(job) => {
            shared.metrics.deduped.fetch_add(1, Ordering::Relaxed);
            SubmitFlow::Accepted {
                job,
                deduped: true,
                status_code: 200,
            }
        }
        Submit::Full => {
            shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
            SubmitFlow::Full
        }
        Submit::ShuttingDown => SubmitFlow::ShuttingDown,
    }
}

fn post_jobs(req: &Request, shared: &Arc<Shared>) -> Response {
    let Some(body) = req.body_str() else {
        return error_response(400, "bad-json", "body must be UTF-8 JSON");
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return error_response(400, "bad-json", &format!("bad JSON: {e}")),
    };
    let spec = match spec_from_value(&parsed) {
        Ok(s) => s,
        Err(e) => return e.response(),
    };

    let (job, deduped, status_code) = match submit_spec(spec, shared) {
        SubmitFlow::Accepted {
            job,
            deduped,
            status_code,
        } => (job, deduped, status_code),
        SubmitFlow::Full => {
            return error_response_retry(429, "queue-full", "queue full; retry later", 1);
        }
        SubmitFlow::ShuttingDown => {
            return error_response(503, "draining", "server is draining");
        }
    };

    if req.query_param("wait").is_some_and(|v| v != "0") {
        // Block until completion, bounded by the job watchdog plus slack so
        // a timed-out job still reports `failed` rather than hanging us.
        let slack = shared
            .cfg
            .job_timeout
            .saturating_add(Duration::from_secs(30));
        if !job.wait(slack) {
            return error_response(408, "wait-timeout", "timed out waiting for the job");
        }
    }

    let (status, record, error) = job.snapshot();
    let mut fields = match job_json(
        &job.id,
        &job.spec,
        status,
        record.as_ref(),
        error.as_deref(),
    ) {
        Value::Obj(f) => f,
        _ => unreachable!("job_json returns an object"),
    };
    fields.push(("deduped".into(), Value::Bool(deduped)));
    let code = if status.is_terminal() {
        200
    } else {
        status_code
    };
    Response::json(code, &Value::Obj(fields))
}

fn get_job(id: &str, shared: &Arc<Shared>) -> Response {
    match shared.queue.lookup(id, &shared.cache) {
        Lookup::Live(job) => {
            let (status, record, error) = job.snapshot();
            Response::json(
                200,
                &job_json(
                    &job.id,
                    &job.spec,
                    status,
                    record.as_ref(),
                    error.as_deref(),
                ),
            )
        }
        Lookup::Cached(spec, rec) => {
            Response::json(200, &job_json(id, &spec, JobStatus::Done, Some(&rec), None))
        }
        Lookup::BadId => bad_job_id(),
        Lookup::Missing => unknown_job(id),
    }
}

fn bad_job_id() -> Response {
    error_response(400, "bad-job-id", "job ids are 16 hex digits")
}

fn unknown_job(id: &str) -> Response {
    error_response(404, "unknown-job", &format!("unknown job id {id:?}"))
}

/// Resolve a batch request body into its job specs — a JSON array of specs
/// or `{"set": <name>}` naming a harness figure set. Shared verbatim by the
/// service and the dispatch tier so both resolve sets identically.
pub fn batch_specs(parsed: &Value) -> Result<Vec<JobSpec>, Response> {
    match parsed {
        Value::Arr(items) => {
            if items.is_empty() {
                return Err(error_response(400, "bad-batch", "empty batch"));
            }
            let mut specs = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                match spec_from_value(item) {
                    Ok(s) => specs.push(s),
                    Err(e) => {
                        return Err(error_response(
                            400,
                            e.code,
                            &format!("job {i}: {}", e.message),
                        ))
                    }
                }
            }
            Ok(specs)
        }
        Value::Obj(_) => {
            let Some(Value::Str(name)) = parsed.get("set") else {
                return Err(error_response(
                    400,
                    "bad-batch",
                    "batch body must be a JSON array of JobSpecs or {\"set\": <name>}",
                ));
            };
            let size = match parsed.get("size") {
                Some(Value::Str(s)) if s.eq_ignore_ascii_case("small") => {
                    r2d2_workloads::Size::Small
                }
                Some(Value::Str(s)) if s.eq_ignore_ascii_case("full") => r2d2_workloads::Size::Full,
                None => r2d2_harness::size_from_env(),
                Some(_) => {
                    return Err(error_response(
                        400,
                        "bad-batch",
                        "size must be \"small\" or \"full\"",
                    ));
                }
            };
            match r2d2_harness::sets::set(name, size) {
                Some(specs) => Ok(specs),
                None => Err(error_response(
                    400,
                    "unknown-set",
                    &format!(
                        "unknown set {:?}; known sets: {}",
                        name,
                        r2d2_harness::sets::SET_NAMES.join(", ")
                    ),
                )),
            }
        }
        _ => Err(error_response(
            400,
            "bad-batch",
            "batch body must be a JSON array of JobSpecs or {\"set\": <name>}",
        )),
    }
}

fn post_batch(req: &Request, shared: &Arc<Shared>) -> Response {
    let Some(body) = req.body_str() else {
        return error_response(400, "bad-json", "body must be UTF-8 JSON");
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return error_response(400, "bad-json", &format!("bad JSON: {e}")),
    };
    let specs = match batch_specs(&parsed) {
        Ok(specs) => specs,
        Err(resp) => return resp,
    };

    let mut jobs = Vec::with_capacity(specs.len());
    let mut accepted = 0u64;
    let mut shed = 0u64;
    for spec in specs {
        match submit_spec(spec, shared) {
            SubmitFlow::Accepted { job, deduped, .. } => {
                accepted += 1;
                let (status, _, _) = job.snapshot();
                jobs.push(obj(vec![
                    ("id", json::s(&job.id)),
                    ("status", json::s(status.as_str())),
                    ("deduped", Value::Bool(deduped)),
                ]));
            }
            SubmitFlow::Full => {
                shed += 1;
                jobs.push(crate::api::error_body_retry(
                    "queue-full",
                    "queue full",
                    Some(1),
                ));
            }
            SubmitFlow::ShuttingDown => {
                return error_response(503, "draining", "server is draining");
            }
        }
    }
    if accepted == 0 {
        return error_response_retry(429, "queue-full", "queue full; retry later", 1);
    }
    shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
    Response::json(
        200,
        &obj(vec![
            ("count", json::int(accepted)),
            ("shed", json::int(shed)),
            ("jobs", Value::Arr(jobs)),
        ]),
    )
}

fn delete_job(id: &str, shared: &Arc<Shared>) -> Response {
    let Some(hash) = parse_job_id(id) else {
        return bad_job_id();
    };
    let (job, code) = match shared.queue.cancel(hash) {
        Cancel::Dequeued(job) => {
            shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            (job, 200)
        }
        // The worker finishes the transition (and bumps the counter) when
        // the simulator observes the token — or not, if completion raced
        // the request; 202 says "signalled", not "cancelled".
        Cancel::Signalled(job) => (job, 202),
        Cancel::Terminal(job) => (job, 200),
        Cancel::NotFound => return unknown_job(id),
    };
    let (status, record, error) = job.snapshot();
    Response::json(
        code,
        &job_json(
            &job.id,
            &job.spec,
            status,
            record.as_ref(),
            error.as_deref(),
        ),
    )
}

/// `GET /v1/jobs/<id>/progress`: stream the job's live time series as
/// chunked NDJSON. Each line is a [`ProgressSnapshot`]; the final line
/// additionally carries `status` (and `error`, if any) plus the complete
/// series, so a client that only reads the last line still gets everything.
/// The final line goes out as soon as the job ends; intermediate ones at
/// most every 25 ms, since each re-serializes the whole series.
fn stream_progress(id: &str, stream: &mut TcpStream, shared: &Arc<Shared>) -> Option<Response> {
    let job = match shared.queue.lookup(id, &shared.cache) {
        Lookup::Live(job) => Some(job),
        // Evicted or prior-process results: one terminal line from the disk
        // cache (the live series is gone, but the terminal state is not) —
        // same lookup path as `GET /v1/jobs/<id>`.
        Lookup::Cached(..) => None,
        Lookup::BadId => return Some(bad_job_id()),
        Lookup::Missing => return Some(unknown_job(id)),
    };

    let mut w = ChunkedWriter::start(stream, 200, "application/x-ndjson").ok()?;
    let Some(job) = job else {
        let snap = ProgressSnapshot {
            finished: true,
            ..ProgressSnapshot::default()
        };
        let _ = w.chunk(final_line(&snap, JobStatus::Done, None).as_bytes());
        let _ = w.finish();
        return None;
    };
    let mut last_seq = 0u64;
    loop {
        // Status before snapshot: `mark_*` sets the status first and then
        // finishes the progress handle, so `terminal && finished` here means
        // the snapshot is the complete final series.
        let (status, _, error) = job.snapshot();
        let snap = job.progress.snapshot();
        if status.is_terminal() && snap.finished {
            let _ = w.chunk(final_line(&snap, status, error.as_deref()).as_bytes());
            let _ = w.finish();
            return None;
        }
        if snap.seq != last_seq {
            last_seq = snap.seq;
            let mut line = snap.to_json().to_json();
            line.push('\n');
            // An error means the client went away.
            w.chunk(line.as_bytes()).ok()?;
        }
        job.wait(Duration::from_millis(25));
    }
}

/// The last NDJSON line of a progress stream: the snapshot plus the job's
/// terminal `status` (and `error`, if any).
fn final_line(snap: &ProgressSnapshot, status: JobStatus, error: Option<&str>) -> String {
    let mut fields = match snap.to_json() {
        Value::Obj(f) => f,
        _ => unreachable!("snapshot JSON is an object"),
    };
    fields.push(("status".into(), json::s(status.as_str())));
    if let Some(e) = error {
        fields.push(("error".into(), json::s(e)));
    }
    let mut line = Value::Obj(fields).to_json();
    line.push('\n');
    line
}
