//! In-memory spans recorded by the benchmark around each call it makes
//! into the program: set-up steps, traversals, engine submits and waits,
//! and layer probes. Only the traced run (`--trace 1`) records; the spans
//! are written out once, when the run ends.

use asyncgt::obs::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    id: u64,
    /// Span that caused this one (0: none).
    parent: u64,
    /// Shared by every span of one traversal or engine query (0: none).
    trace: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    start: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            start: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id, for a span or for a trace (query) identifier.
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }

    pub fn record(
        &self,
        id: u64,
        parent: u64,
        trace: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn to_json(&self) -> Value {
        let spans = self.spans.lock().expect("span log poisoned");
        Value::Arr(
            spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("id".into(), Value::Int(s.id)),
                        ("parent".into(), Value::Int(s.parent)),
                        ("trace".into(), Value::Int(s.trace)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::Int(s.start_ns)),
                        ("end_ns".into(), Value::Int(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Run `f`, returning its result and wall time; with a tracer, also
/// record the interval as span `name` under `parent` in trace `trace`.
pub fn timed<T>(
    tr: Option<&Tracer>,
    name: &'static str,
    trace: u64,
    parent: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(tr) = tr {
        tr.record(tr.next_id(), parent, trace, name, start, end);
    }
    (out, end - start)
}
