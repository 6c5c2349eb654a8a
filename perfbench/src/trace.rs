//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, written out when the run ends.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the span that caused it, and the job it belongs to. A span's
//! self time is its duration minus the part of its interval covered by
//! its children.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.compile`.
    pub name: String,
    /// The job the span belongs to.
    pub job: u64,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    job: u64,
    start: Instant,
}

impl Open {
    /// This span's id, for children to name as parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// When the span started.
    pub fn start(&self) -> Instant {
        self.start
    }
}

/// Span recorder. When disabled it still hands out timestamps (the
/// closed loop times every job with it) but keeps nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span now.
    pub fn begin(&self, parent: Option<u64>, job: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            start: Instant::now(),
        }
    }

    /// Closes `open` under `name` and returns its duration in seconds.
    pub fn end(&self, open: Open, name: &str) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if self.enabled {
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: name.to_string(),
                job: open.job,
                start_ns: self.ns(open.start),
                end_ns: self.ns(end),
            };
            self.push(span);
        }
        secs
    }

    /// Records a child span reconstructed from a duration the library
    /// reported (a pass's `wall_ms`), starting `offset_ms` after `start`.
    pub fn record_reported(
        &self,
        name: &str,
        parent: u64,
        job: u64,
        start: Instant,
        offset_ms: f64,
        wall_ms: f64,
    ) {
        if !self.enabled {
            return;
        }
        let begin = self.ns(start) + (offset_ms * 1e6) as u64;
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(parent),
            name: name.to_string(),
            job,
            start_ns: begin,
            end_ns: begin + (wall_ms * 1e6) as u64,
        };
        self.push(span);
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own. Returned in `spans` order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map(|kids| covered_ns(s.start_ns, s.end_ns, kids))
                .unwrap_or(0);
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    union_ns(clipped)
}

/// Total length of the union of the half-open `intervals`.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, (usize, u64, u64)> {
    let mut out: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// The spans and their per-name summary as JSON, for the run's trace
/// file.
pub fn to_json(spans: &[Span]) -> Json {
    let mut summary = Json::obj();
    for (name, (count, total, own)) in summarize(spans) {
        let mut row = Json::obj();
        row.set("count", count)
            .set("total_ms", total as f64 / 1e6)
            .set("self_ms", own as f64 / 1e6);
        summary.set(&name, row);
    }
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                s.id.into(),
                s.parent.map_or(Json::Null, Json::from),
                s.name.as_str().into(),
                s.job.into(),
                s.start_ns.into(),
                s.end_ns.into(),
            ])
        })
        .collect();
    let mut out = Json::obj();
    out.set("summary", summary)
        .set(
            "columns",
            vec!["id", "parent", "name", "job", "start_ns", "end_ns"],
        )
        .set("spans", Json::Arr(rows));
    out
}
