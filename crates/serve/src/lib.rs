#![warn(missing_docs)]
//! A long-lived simulation service over the R2D2 harness.
//!
//! `r2d2 sweep` is batch-shaped: decide the jobs up front, run, exit. This
//! crate serves the interactive shape — a design-space exploration notebook,
//! a dashboard, or several users poking at configurations — without adding a
//! single dependency: the HTTP/1.1 layer is hand-rolled over
//! `std::net::TcpListener` and the wire format is the workspace's own JSON.
//!
//! The moving parts:
//!
//! - [`queue::JobQueue`] — bounded and deduplicating. Jobs are keyed by
//!   [`r2d2_harness::JobSpec::content_hash`], the same key the result cache
//!   uses, so identical in-flight submissions coalesce into one simulation
//!   and completed ones answer straight from `results/cache/`.
//! - [`http::Listener`] — the blocking server loop both this crate and the
//!   dispatch tier run, woken for shutdown without polling.
//! - [`server::Server`] — that loop plus a worker pool simulating jobs
//!   through [`r2d2_harness::Executor`] and a watchdog cancelling jobs past
//!   their wall-clock deadline. When the queue is full, submissions shed
//!   with `429 Too Many Requests` and a `Retry-After` hint.
//! - [`metrics::Metrics`] — `/v1/metrics` exposes queue depth, in-flight
//!   count, cache hit rate, jobs/sec, and p50/p99 job wall time in
//!   plain-text Prometheus format.
//! - Graceful shutdown — SIGTERM, ctrl-c, or `POST /v1/shutdown` stop
//!   intake, fail still-pending jobs, and drain in-flight work before exit.
//! - [`client`] — a blocking client (`r2d2 submit`) on `std::net::TcpStream`.
//!
//! See `DESIGN.md` § "Service architecture" for the protocol details and
//! `README.md` for a quickstart.

pub mod api;
pub mod client;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod server;

pub use api::{
    error_body, error_body_retry, error_response, error_response_retry, ApiError, ENDPOINTS,
};
pub use client::{
    cancel, healthz, job_status, metrics as fetch_metrics, shutdown, submit, submit_batch,
    submit_set, watch, SubmitOutcome,
};
pub use http::install_signal_handlers;
pub use queue::{Cancel, Job, JobQueue, JobStatus, Lookup, Submit};
pub use server::{Server, ServerConfig, ServerHandle};
