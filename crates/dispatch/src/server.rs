//! The dispatch tier: a long-lived scheduler in front of N `r2d2 serve`
//! backends.
//!
//! The dispatcher owns no queue and runs no simulations. It terminates each
//! client connection, picks a backend by consistent-hashing the job's
//! content hash onto the [`crate::ring::Ring`], forwards the request over
//! the same hand-rolled HTTP layer the service uses, and relays the answer.
//! Identical specs therefore always land on the same node's dedup queue —
//! the cross-node analogue of R2D2's intra-GPU redundancy removal.
//!
//! ## Surface
//!
//! The dispatcher speaks **only** `/v1` — it is a new component, so it
//! carries none of the pre-v1 deprecated aliases. Every proxied endpoint
//! behaves exactly as the backend's (`POST /v1/jobs`, `POST /v1/jobs/batch`,
//! `GET`/`DELETE /v1/jobs/<id>`, chunked NDJSON `GET /v1/jobs/<id>/progress`),
//! so `r2d2 submit/cancel/watch --addr` work unchanged against it.
//! `GET /v1/metrics` is the fleet view: dispatcher-local counters plus the
//! sum of every live backend's additive counters. `GET /v1/healthz` answers
//! for the fleet (`200 ok` while at least one backend is live).
//!
//! ## Failover
//!
//! A probe loop hits every backend's `/v1/healthz` on an interval; a failed
//! forward marks the backend down immediately (the probe revives it). Dead
//! backends are skipped along the ring walk, so each orphaned key falls
//! through to the next distinct node; requests retry with a linear backoff
//! while the fleet is unreachable and surface `503` + `Retry-After` with
//! the `no-backend-live` error code once attempts are exhausted. Job
//! lookups (`GET`/`DELETE`/progress) additionally fan out past a `404` to
//! the other live nodes, because a job submitted during a failover window
//! lives on a non-primary node until its primary returns.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use r2d2_harness::json::{self, obj, Value};
use r2d2_harness::JobSpec;
use r2d2_serve::api::{
    error_body_retry, error_response, error_response_retry, no_route, progress_job_id,
};
use r2d2_serve::http::{
    client_request, client_stream_start, ChunkedWriter, ClientResponse, Listener, Request,
    Response, StreamStart,
};
use r2d2_serve::server::batch_specs;

use crate::metrics::{render_fleet, DispatchMetrics};
use crate::ring::Ring;

/// Tunables for one dispatcher instance.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Bind address, e.g. `127.0.0.1:8786` (`:0` picks a free port).
    pub addr: String,
    /// Backend `r2d2 serve` addresses, in ring order. The ring hashes by
    /// *index*, so keeping this list stable keeps the routing stable.
    pub backends: Vec<String>,
    /// Interval between `/v1/healthz` probe sweeps.
    pub probe_interval: Duration,
    /// Per-forward timeout for buffered requests (everything but `?wait=1`
    /// submissions and progress streams).
    pub request_timeout: Duration,
    /// Timeout for forwards that intentionally block: `?wait=1` submissions
    /// and each read of a progress stream.
    pub wait_timeout: Duration,
    /// Full passes over the candidate list before giving up with 503.
    pub retry_attempts: u32,
    /// Base backoff between passes (linear: `backoff * pass`).
    pub retry_backoff: Duration,
    /// Per-request log lines on stderr.
    pub verbose: bool,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            addr: "127.0.0.1:8786".into(),
            backends: Vec::new(),
            probe_interval: Duration::from_millis(500),
            request_timeout: Duration::from_secs(10),
            wait_timeout: Duration::from_secs(3600),
            retry_attempts: 3,
            retry_backoff: Duration::from_millis(50),
            verbose: false,
        }
    }
}

/// Shared dispatcher state: config, ring, liveness flags, counters.
struct Shared {
    cfg: DispatchConfig,
    ring: Ring,
    /// Liveness per backend, indexed like `cfg.backends`. Optimistically
    /// true at startup; a failed forward or probe clears it, a passing
    /// probe (or successful forward) sets it.
    alive: Vec<AtomicBool>,
    metrics: DispatchMetrics,
    listener: Listener,
}

impl Shared {
    fn live_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::Relaxed))
            .count()
    }

    /// Candidate order for `hash`: the ring walk, live backends first (in
    /// walk order), then dead ones (a probe may be stale — trying them is
    /// the only way back when everything is marked down).
    fn candidates(&self, hash: u64) -> Vec<usize> {
        let order = self.ring.route(hash);
        let mut live: Vec<usize> = Vec::with_capacity(order.len());
        let mut dead: Vec<usize> = Vec::new();
        for b in order {
            if self.alive[b].load(Ordering::Relaxed) {
                live.push(b);
            } else {
                dead.push(b);
            }
        }
        live.extend(dead);
        live
    }
}

/// Handle for requesting shutdown from another thread (tests, embedders).
#[derive(Clone)]
pub struct DispatcherHandle {
    shared: Arc<Shared>,
}

impl DispatcherHandle {
    /// Request graceful shutdown, as SIGTERM would.
    pub fn shutdown(&self) {
        self.shared.listener.stop();
    }
}

/// A bound-but-not-yet-running dispatcher.
pub struct Dispatcher {
    shared: Arc<Shared>,
}

impl Dispatcher {
    /// Bind the listener and build the ring. Fails fast on an empty
    /// backend list — a dispatcher with nothing behind it is a
    /// misconfiguration, not a degraded mode.
    pub fn bind(cfg: DispatchConfig) -> std::io::Result<Dispatcher> {
        if cfg.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "dispatch requires at least one backend",
            ));
        }
        let ring = Ring::new(cfg.backends.len());
        let alive = (0..cfg.backends.len())
            .map(|_| AtomicBool::new(true))
            .collect();
        let shared = Arc::new(Shared {
            ring,
            alive,
            metrics: DispatchMetrics::default(),
            listener: Listener::bind(&cfg.addr)?,
            cfg,
        });
        Ok(Dispatcher { shared })
    }

    /// The actual bound address (resolves `:0` port picks).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.shared.listener.local_addr()
    }

    /// A shutdown handle, cloneable across threads.
    pub fn handle(&self) -> DispatcherHandle {
        DispatcherHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Run until shutdown: probe loop + serve loop. The dispatcher holds no
    /// jobs, so draining only answers the connections already accepted.
    pub fn run(self) -> std::io::Result<()> {
        let shared = &self.shared;
        let result = std::thread::scope(|s| {
            std::thread::Builder::new()
                .name("r2d2-dispatch-probe".into())
                .spawn_scoped(s, || probe_loop(shared))
                .expect("spawn probe loop");
            shared.listener.serve(
                "dispatch",
                shared.cfg.verbose,
                |req, stream| route(req, stream, shared),
                || {},
            )
        });
        if shared.cfg.verbose {
            eprintln!("[dispatch] bye");
        }
        result
    }
}

/// Sweep every backend's `/v1/healthz` each interval until the dispatcher stops.
fn probe_loop(shared: &Arc<Shared>) {
    // Short timeout: a probe exists to detect dead nodes quickly, not to
    // wait politely on a wedged one.
    let timeout = shared.cfg.request_timeout.min(Duration::from_secs(2));
    loop {
        for (i, addr) in shared.cfg.backends.iter().enumerate() {
            let up = matches!(
                client_request(addr, "GET", "/v1/healthz", None, timeout),
                Ok(resp) if resp.status == 200
            );
            let was = shared.alive[i].swap(up, Ordering::Relaxed);
            if shared.cfg.verbose && was != up {
                eprintln!(
                    "[dispatch] backend {addr} -> {}",
                    if up { "live" } else { "down" }
                );
            }
        }
        if shared.listener.wait(shared.cfg.probe_interval) {
            return;
        }
    }
}

/// The serve loop's handler; progress relays write their own chunked
/// response, so they return `None`.
fn route(req: &Request, stream: &mut TcpStream, shared: &Arc<Shared>) -> Option<Response> {
    if let Some(id) = progress_job_id(req) {
        return relay_progress(id, stream, shared);
    }
    Some(match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => post_jobs(req, shared),
        ("POST", "/v1/jobs/batch") => post_batch(req, shared),
        ("GET" | "DELETE", p) if p.starts_with("/v1/jobs/") => {
            forward_job(req, &p["/v1/jobs/".len()..], shared)
        }
        ("GET", "/v1/healthz") => {
            if shared.listener.is_stopped() {
                error_response(503, "draining", "dispatcher is draining")
            } else if shared.live_count() > 0 {
                Response::text(200, "ok")
            } else {
                no_backend_live()
            }
        }
        ("GET", "/v1/metrics") => metrics(shared),
        ("POST", "/v1/shutdown") => {
            shared.listener.stop();
            Response::text(200, "draining")
        }
        _ => no_route(req),
    })
}

/// The terminal "fleet unreachable" answer: 503 + `Retry-After`.
fn no_backend_live() -> Response {
    error_response_retry(503, "no-backend-live", "no backend is live; retry later", 1)
}

/// Rebuild `path?query` for forwarding (the parser split them).
fn path_with_query(req: &Request) -> String {
    if req.query.is_empty() {
        return req.path.clone();
    }
    let q: Vec<String> = req
        .query
        .iter()
        .map(|(k, v)| {
            if v.is_empty() {
                k.clone()
            } else {
                format!("{k}={v}")
            }
        })
        .collect();
    format!("{}?{}", req.path, q.join("&"))
}

/// Translate a backend answer into our response to the client, preserving
/// status, body, content type, and the `Retry-After` hint.
fn relay(resp: &ClientResponse) -> Response {
    // Verbatim: `Response::text` would append the newline the backend sent.
    let content_type = match resp.header("content-type") {
        Some(t) if t.starts_with("text/plain") => "text/plain; charset=utf-8",
        _ => "application/json",
    };
    let mut out = Response::raw(resp.status, content_type, resp.body.clone().into_bytes());
    if let Some(ra) = resp.header("retry-after") {
        out = out.header("Retry-After", ra);
    }
    out
}

/// Forward `method path` with `body` along an explicit candidate order,
/// retrying the whole list with linear backoff. Returns the first answer a
/// backend produced (whatever its status), or the `no-backend-live` 503.
fn forward_to(
    shared: &Arc<Shared>,
    candidates: &[usize],
    primary: Option<usize>,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<(ClientResponse, usize), Response> {
    for attempt in 0..shared.cfg.retry_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(shared.cfg.retry_backoff * attempt);
        }
        for &b in candidates {
            match client_request(&shared.cfg.backends[b], method, path, body, timeout) {
                Ok(resp) => {
                    shared.alive[b].store(true, Ordering::Relaxed);
                    shared.metrics.routed_total.fetch_add(1, Ordering::Relaxed);
                    if primary.is_some_and(|p| p != b) {
                        shared
                            .metrics
                            .failover_total
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((resp, b));
                }
                Err(e) => {
                    shared.alive[b].store(false, Ordering::Relaxed);
                    shared.metrics.retries_total.fetch_add(1, Ordering::Relaxed);
                    if shared.cfg.verbose {
                        eprintln!(
                            "[dispatch] forward {method} {path} to {} failed: {e}",
                            shared.cfg.backends[b]
                        );
                    }
                }
            }
        }
    }
    Err(no_backend_live())
}

/// [`forward_to`] with the candidate order derived from `hash`.
fn forward(
    shared: &Arc<Shared>,
    hash: u64,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<(ClientResponse, usize), Response> {
    let candidates = shared.candidates(hash);
    let primary = shared.ring.primary(hash);
    forward_to(shared, &candidates, primary, method, path, body, timeout)
}

/// `POST /v1/jobs`: hash the spec, route, forward the body verbatim.
fn post_jobs(req: &Request, shared: &Arc<Shared>) -> Response {
    let Some(body) = req.body_str() else {
        return error_response(400, "bad-json", "body must be UTF-8 JSON");
    };
    // The hash decides the route; validation is the backend's job. An
    // unparseable body routes to the hash-0 primary, which rejects it with
    // the same error schema we would.
    let hash = json::parse(body)
        .ok()
        .and_then(|v| JobSpec::from_json_request(&v).ok())
        .map_or(0, |spec| spec.content_hash());
    let wait = req.query_param("wait").is_some_and(|v| v != "0");
    let timeout = if wait {
        shared.cfg.wait_timeout
    } else {
        shared.cfg.request_timeout
    };
    match forward(
        shared,
        hash,
        "POST",
        &path_with_query(req),
        Some(body),
        timeout,
    ) {
        Ok((resp, _)) => relay(&resp),
        Err(resp) => resp,
    }
}

/// `POST /v1/jobs/batch`: split the batch by ring position, forward each
/// sub-batch to its owner, and reassemble the per-job array in request
/// order. Set-shaped bodies (`{"set": "fig12"}`) are resolved locally with
/// the same resolver the backend uses, so the member jobs still route by
/// their individual hashes instead of the whole set landing on one node.
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
    // Keep the raw array items when the client sent an array: they may
    // carry execution knobs (`threads`) that `JobSpec::to_json` omits.
    let raw_items: Option<&Vec<Value>> = match &parsed {
        Value::Arr(items) => Some(items),
        _ => None,
    };

    // Group spec indices by primary backend, preserving request order
    // within each group.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let primary = shared
            .ring
            .primary(spec.content_hash())
            .expect("ring is non-empty");
        match groups.iter_mut().find(|(b, _)| *b == primary) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((primary, vec![i])),
        }
    }

    let mut slots: Vec<Option<Value>> = vec![None; specs.len()];
    let mut accepted = 0u64;
    let mut shed = 0u64;
    let mut groups_answered = 0usize;
    for (primary, idxs) in &groups {
        let sub_body = Value::Arr(
            idxs.iter()
                .map(|&i| match raw_items {
                    Some(items) => items[i].clone(),
                    None => specs[i].to_json(),
                })
                .collect(),
        )
        .to_json();
        // Candidate order from the first member's hash (every member in the
        // group shares the primary; the tail order is close enough).
        let candidates = shared.candidates(specs[idxs[0]].content_hash());
        let outcome = forward_to(
            shared,
            &candidates,
            Some(*primary),
            "POST",
            "/v1/jobs/batch",
            Some(&sub_body),
            shared.cfg.request_timeout,
        );
        match outcome {
            Ok((resp, _)) if resp.status == 200 => {
                groups_answered += 1;
                let v = json::parse(&resp.body).unwrap_or(Value::Null);
                let jobs = match v.get("jobs") {
                    Some(Value::Arr(jobs)) => jobs.clone(),
                    _ => Vec::new(),
                };
                for (slot, job) in idxs.iter().zip(jobs) {
                    if job.get("error").is_some() {
                        shed += 1;
                    } else {
                        accepted += 1;
                    }
                    slots[*slot] = Some(job);
                }
            }
            Ok((resp, _)) => {
                // The whole sub-batch was rejected (429 all-shed, 503
                // draining): mirror the backend's error object per job.
                groups_answered += 1;
                let v = json::parse(&resp.body).unwrap_or(Value::Null);
                for &slot in idxs {
                    shed += 1;
                    slots[slot] = Some(v.clone());
                }
            }
            Err(_) => {
                for &slot in idxs {
                    shed += 1;
                    slots[slot] = Some(error_body_retry(
                        "no-backend-live",
                        "no backend is live; retry later",
                        Some(1),
                    ));
                }
            }
        }
    }

    if accepted == 0 {
        if groups_answered == 0 {
            return no_backend_live();
        }
        return error_response_retry(429, "queue-full", "queue full; retry later", 1);
    }
    Response::json(
        200,
        &obj(vec![
            ("count", json::int(accepted)),
            ("shed", json::int(shed)),
            (
                "jobs",
                Value::Arr(
                    slots
                        .into_iter()
                        .map(|s| s.unwrap_or(Value::Null))
                        .collect(),
                ),
            ),
        ]),
    )
}

/// `GET`/`DELETE /v1/jobs/<id>`: route by the id (it *is* the content
/// hash), but fan out past a 404 — a job submitted while its primary was
/// down lives on a failover node until the primary returns.
fn forward_job(req: &Request, id: &str, shared: &Arc<Shared>) -> Response {
    let Some(hash) = r2d2_serve::queue::parse_job_id(id) else {
        return error_response(400, "bad-job-id", "job ids are 16 hex digits");
    };
    let candidates = shared.candidates(hash);
    let primary = shared.ring.primary(hash);
    let path = path_with_query(req);
    let mut first_404: Option<Response> = None;
    for &b in &candidates {
        match client_request(
            &shared.cfg.backends[b],
            &req.method,
            &path,
            None,
            shared.cfg.request_timeout,
        ) {
            Ok(resp) => {
                shared.alive[b].store(true, Ordering::Relaxed);
                if resp.status == 404 {
                    if first_404.is_none() {
                        first_404 = Some(relay(&resp));
                    }
                    continue;
                }
                shared.metrics.routed_total.fetch_add(1, Ordering::Relaxed);
                if primary.is_some_and(|p| p != b) {
                    shared
                        .metrics
                        .failover_total
                        .fetch_add(1, Ordering::Relaxed);
                }
                return relay(&resp);
            }
            Err(_) => {
                shared.alive[b].store(false, Ordering::Relaxed);
                shared.metrics.retries_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    match first_404 {
        Some(resp) => {
            shared.metrics.routed_total.fetch_add(1, Ordering::Relaxed);
            resp
        }
        None => no_backend_live(),
    }
}

/// `GET /v1/jobs/<id>/progress`: open the backend stream, then relay the
/// chunked NDJSON body chunk-for-chunk. The head/body split of
/// [`client_stream_start`] lets us try another backend on 404/connect
/// failure *before* committing to a response head.
fn relay_progress(id: &str, stream: &mut TcpStream, shared: &Arc<Shared>) -> Option<Response> {
    let Some(hash) = r2d2_serve::queue::parse_job_id(id) else {
        return Some(error_response(
            400,
            "bad-job-id",
            "job ids are 16 hex digits",
        ));
    };
    let candidates = shared.candidates(hash);
    let primary = shared.ring.primary(hash);
    let path = format!("/v1/jobs/{id}/progress");
    // A buffered upstream answer (an error body), relayed whole.
    let buffered = |status: u16, open: StreamStart| {
        let mut body = Vec::new();
        let _ = open.drain(&mut |chunk| {
            body.extend_from_slice(chunk);
            Ok(())
        });
        Response::raw(status, "application/json", body)
    };
    let mut first_404: Option<Response> = None;
    for &b in &candidates {
        let open = match client_stream_start(
            &shared.cfg.backends[b],
            "GET",
            &path,
            shared.cfg.wait_timeout,
        ) {
            Ok(open) => {
                shared.alive[b].store(true, Ordering::Relaxed);
                open
            }
            Err(_) => {
                shared.alive[b].store(false, Ordering::Relaxed);
                shared.metrics.retries_total.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        if open.status == 404 {
            if first_404.is_none() {
                first_404 = Some(buffered(404, open));
            }
            continue;
        }
        shared.metrics.routed_total.fetch_add(1, Ordering::Relaxed);
        if primary.is_some_and(|p| p != b) {
            shared
                .metrics
                .failover_total
                .fetch_add(1, Ordering::Relaxed);
        }
        if !open.is_chunked() {
            return Some(buffered(open.status, open));
        }
        let mut w = ChunkedWriter::start(stream, open.status, "application/x-ndjson").ok()?;
        let _ = open.drain(&mut |chunk| w.chunk(chunk));
        let _ = w.finish();
        return None;
    }
    if first_404.is_some() {
        shared.metrics.routed_total.fetch_add(1, Ordering::Relaxed);
    }
    Some(first_404.unwrap_or_else(no_backend_live))
}

/// `GET /v1/metrics`: dispatcher-local counters plus the summed additive
/// counters scraped from every live backend.
fn metrics(shared: &Arc<Shared>) -> Response {
    let mut scrapes = Vec::new();
    for (i, addr) in shared.cfg.backends.iter().enumerate() {
        if !shared.alive[i].load(Ordering::Relaxed) {
            continue;
        }
        if let Ok(resp) =
            client_request(addr, "GET", "/v1/metrics", None, shared.cfg.request_timeout)
        {
            if resp.status == 200 {
                scrapes.push(resp.body);
            }
        }
    }
    let mut text = shared
        .metrics
        .render_local(shared.live_count(), shared.cfg.backends.len());
    text.push_str(&render_fleet(&scrapes));
    Response::text(200, &text)
}
