//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around calls
//! into the library's public functions. A solve's `SolveReport.stages`
//! become child spans of the request span that timed the call, laid
//! end to end from the request's start. Nothing is written until the
//! run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One timed interval. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans when enabled; otherwise only hands out ids and
/// timestamps, so the untraced run does the same timing work minus the
/// recording.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Nanoseconds spent inside `record`: the work the traced run does
    /// beyond the untraced one.
    cost_ns: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span or request id (ids only label spans, so `Relaxed`
    /// suffices).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records span `id` over `[start, end]` (a no-op when tracing is
    /// off).
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let entered = Instant::now();
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
        let cost = u64::try_from(entered.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.cost_ns.fetch_add(cost, Ordering::Relaxed);
    }

    pub fn cost_ns(&self) -> u64 {
        self.cost_ns.load(Ordering::Relaxed)
    }

    /// Records child spans of `parent` from consecutive durations,
    /// starting at `start`.
    pub fn record_children(
        &self,
        parent: u64,
        request: Option<u64>,
        start: Instant,
        children: &[(&'static str, Duration)],
    ) {
        if !self.enabled {
            return;
        }
        let mut at = start;
        for &(name, d) in children {
            self.record(self.next_id(), name, Some(parent), request, at, at + d);
            at += d;
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and
    /// elapsed time.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(self.next_id(), name, parent, None, start, end);
        (out, end - start)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log poisoned")
    }
}

/// Self time of every span: its duration minus the part of it that
/// the union of its children's intervals covers.
pub fn self_nanos(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.nanos().saturating_sub(covered))
        })
        .collect()
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::from(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("request", s.request.map_or(Json::Null, Json::from)),
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                ])
            })
            .collect(),
    )
}
