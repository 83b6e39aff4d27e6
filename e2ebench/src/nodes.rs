//! In-process `r2d2 serve` and `r2d2 dispatch` nodes bound on loopback.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use r2d2_dispatch::{DispatchConfig, Dispatcher, DispatcherHandle};
use r2d2_serve::{Server, ServerConfig, ServerHandle};

/// Client timeout for short requests.
pub const SHORT: Duration = Duration::from_secs(10);
/// Client timeout for requests that wait on a simulation.
pub const LONG: Duration = Duration::from_secs(120);

enum Handle {
    Serve(ServerHandle),
    Dispatch(DispatcherHandle),
}

/// A running node; [`Node::stop`] shuts it down and joins its thread.
pub struct Node {
    /// `host:port` the node listens on.
    pub addr: String,
    handle: Handle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Node {
    /// Start a service node over `results_dir`, with the default config
    /// apart from the bind address and, when given, the worker count.
    pub fn serve(results_dir: &Path, workers: Option<usize>) -> Result<Node, String> {
        let mut cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            results_dir: Some(results_dir.to_path_buf()),
            ..ServerConfig::default()
        };
        if let Some(w) = workers {
            cfg.workers = w;
        }
        let server = Server::bind(cfg).map_err(|e| format!("serve bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("serve addr: {e}"))?
            .to_string();
        let handle = Handle::Serve(server.handle());
        let thread = std::thread::Builder::new()
            .name("bench-serve".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn serve: {e}"))?;
        Ok(Node {
            addr,
            handle,
            thread,
        })
    }

    /// Start a dispatcher over `backends`, with the default config apart
    /// from the addresses.
    pub fn dispatch(backends: &[&Node]) -> Result<Node, String> {
        let cfg = DispatchConfig {
            addr: "127.0.0.1:0".into(),
            backends: backends.iter().map(|b| b.addr.clone()).collect(),
            ..DispatchConfig::default()
        };
        let dispatcher = Dispatcher::bind(cfg).map_err(|e| format!("dispatch bind: {e}"))?;
        let addr = dispatcher
            .local_addr()
            .map_err(|e| format!("dispatch addr: {e}"))?
            .to_string();
        let handle = Handle::Dispatch(dispatcher.handle());
        let thread = std::thread::Builder::new()
            .name("bench-dispatch".into())
            .spawn(move || dispatcher.run())
            .map_err(|e| format!("spawn dispatch: {e}"))?;
        Ok(Node {
            addr,
            handle,
            thread,
        })
    }

    /// Block until `GET /v1/healthz` answers `200 ok`.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + SHORT;
        loop {
            match r2d2_serve::healthz(&self.addr, SHORT) {
                Ok((200, body)) if body == "ok" => return Ok(()),
                _ if Instant::now() > deadline => {
                    return Err(format!("{} never became healthy", self.addr))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// The node's `GET /v1/metrics` exposition, parsed.
    pub fn scrape(&self) -> Result<std::collections::BTreeMap<String, f64>, String> {
        r2d2_serve::fetch_metrics(&self.addr, SHORT)
            .map(|t| crate::prom::scrape(&t))
            .map_err(|e| format!("scrape {}: {e}", self.addr))
    }

    /// Request graceful shutdown and wait for the node's thread to end.
    pub fn stop(self) -> Result<(), String> {
        match &self.handle {
            Handle::Serve(h) => h.shutdown(),
            Handle::Dispatch(h) => h.shutdown(),
        }
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("{} exited with {e}", self.addr)),
            Err(_) => Err(format!("{} panicked", self.addr)),
        }
    }
}
