//! In-memory spans for the traced run, exported as Chrome `trace_event` JSON
//! through the in-repo `r2d2_trace::json` layer, so a traced run opens in
//! the same viewer as `r2d2 profile` output.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions. A root span is one job or request; its children are the
//! layer calls made for it, and every span of one root carries the root's
//! request id.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use r2d2_trace::json::{self, Value};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Request id shared by a root and all its descendants.
    pub req: u64,
    /// Layer the span's time is charged to (`bench` for roots).
    pub layer: &'static str,
    /// The call or operation.
    pub name: String,
    /// Client thread index.
    pub tid: u64,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Where a child span attaches.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    id: u64,
    req: u64,
    tid: u64,
}

/// Span recorder shared by the client threads of one traced run.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    next_req: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            next_req: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn record(&self, at: Ctx, parent: u64, layer: &'static str, name: &str, start: Instant) {
        let span = Span {
            id: at.id,
            parent,
            req: at.req,
            layer,
            name: name.to_string(),
            tid: at.tid,
            start_us: start.duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: start.elapsed().as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Run `f` as a new root span (a job or request) with a fresh request id.
    pub fn root<R>(&self, tid: u64, name: &str, f: impl FnOnce(Ctx) -> R) -> R {
        let at = Ctx {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            req: self.next_req.fetch_add(1, Ordering::Relaxed),
            tid,
        };
        let start = Instant::now();
        let out = f(at);
        self.record(at, 0, "bench", name, start);
        out
    }

    /// Run `f` as a child of `parent`, charged to `layer`.
    pub fn child<R>(
        &self,
        parent: Ctx,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(Ctx) -> R,
    ) -> R {
        let at = Ctx {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            ..parent
        };
        let start = Instant::now();
        let out = f(at);
        self.record(at, parent.id, layer, name, start);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

fn root_of<'a>(by_id: &HashMap<u64, &'a Span>, mut s: &'a Span) -> &'a Span {
    while s.parent != 0 {
        match by_id.get(&s.parent) {
            Some(p) => s = p,
            None => break,
        }
    }
    s
}

/// Time per layer, and how the roots' time splits among layers.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// Summed self time (duration minus children) per layer, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Summed duration per span name, ms.
    pub name_ms: BTreeMap<String, f64>,
    /// Summed root duration, ms.
    pub root_ms: f64,
}

impl Split {
    /// Split the spans whose root's name satisfies `keep_root`.
    pub fn of(spans: &[Span], keep_root: impl Fn(&str) -> bool) -> Split {
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut child_us: HashMap<u64, f64> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_us.entry(s.parent).or_default() += s.dur_us;
            }
        }
        let mut out = Split::default();
        for s in spans {
            if !keep_root(&root_of(&by_id, s).name) {
                continue;
            }
            let self_us = s.dur_us - child_us.get(&s.id).copied().unwrap_or(0.0);
            *out.self_ms.entry(s.layer).or_default() += self_us / 1e3;
            *out.name_ms.entry(s.name.clone()).or_default() += s.dur_us / 1e3;
            if s.parent == 0 {
                out.root_ms += s.dur_us / 1e3;
            }
        }
        out
    }

    /// Self time of `layer` as a share of the roots' time.
    pub fn share(&self, layer: &str) -> f64 {
        if self.root_ms <= 0.0 {
            return 0.0;
        }
        self.self_ms.get(layer).copied().unwrap_or(0.0) / self.root_ms
    }

    /// Summed duration of spans named `name`, ms.
    pub fn ms(&self, name: &str) -> f64 {
        self.name_ms.get(name).copied().unwrap_or(0.0)
    }
}

/// Chrome `trace_event` document: one complete (`ph:"X"`) event per span,
/// `pid` 0, `tid` = client thread, `args` carrying the span and request ids.
pub fn chrome_trace(spans: &[Span], meta: Vec<(&str, Value)>) -> Value {
    let mut events = vec![json::obj(vec![
        ("name", json::s("process_name")),
        ("ph", json::s("M")),
        ("pid", Value::Int(0)),
        ("tid", Value::Int(0)),
        ("args", json::obj(vec![("name", json::s("r2d2 e2ebench"))])),
    ])];
    for s in spans {
        events.push(json::obj(vec![
            ("name", json::s(&s.name)),
            ("cat", json::s(s.layer)),
            ("ph", json::s("X")),
            ("pid", Value::Int(0)),
            ("tid", Value::Int(i128::from(s.tid))),
            ("ts", json::num(s.start_us)),
            ("dur", json::num(s.dur_us)),
            (
                "args",
                json::obj(vec![
                    ("id", json::int(s.id)),
                    ("parent", json::int(s.parent)),
                    ("req", json::int(s.req)),
                ]),
            ),
        ]));
    }
    json::obj(vec![
        ("displayTimeUnit", json::s("ms")),
        ("otherData", json::obj(meta)),
        ("traceEvents", Value::Arr(events)),
    ])
}
