//! In-memory spans recorded around the calls the benchmark makes into
//! each crate.
//!
//! A span has a name, start and end in host nanoseconds since the run's
//! origin, its parent, and the id of the item (update, mutant, rollout
//! or cell) it belongs to. Spans stay in memory during the timed loop
//! and are written once, as Chrome trace JSON, when the run ends. A
//! disabled log records nothing, so the traced and untraced loops are
//! the same code.

use std::collections::BTreeMap;
use std::time::Instant;

use ksplice_trace::json_escape;

use crate::stats;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `manager.apply_watched`.
    pub name: &'static str,
    /// Item the span belongs to.
    pub item: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Worker the span ran on.
    pub tid: u32,
    /// Start, host ns since the run origin.
    pub start_ns: u64,
    /// End, host ns since the run origin.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-worker span recorder.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    tid: u32,
    item: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use]
pub struct Open(Option<usize>);

impl SpanLog {
    /// A recording log for worker `tid`, timing from `origin`.
    pub fn new(origin: Instant, tid: u32) -> SpanLog {
        SpanLog {
            enabled: true,
            origin,
            tid,
            item: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::new(Instant::now(), 0)
        }
    }

    /// A log for worker `tid` on the same clock, recording only if this
    /// one does.
    pub fn fork(&self, tid: u32) -> SpanLog {
        SpanLog {
            enabled: self.enabled,
            ..SpanLog::new(self.origin, tid)
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the item id stamped on spans opened from now on.
    pub fn set_item(&mut self, item: u64) {
        self.item = item;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item: self.item,
            parent: self.open.last().copied(),
            tid: self.tid,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span (and any left open inside it).
    pub fn close(&mut self, handle: Open) {
        let Some(idx) = handle.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let h = self.open(name);
        let r = f();
        self.close(h);
        r
    }

    /// Moves another worker's spans into this log, re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals: calls, total time, self time (total minus the time
/// of child spans) and the median and p99 call durations.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Calls recorded.
    pub calls: usize,
    /// Sum of call durations, ms.
    pub total_ms: f64,
    /// Sum of self times, ms.
    pub self_ms: f64,
    /// Median call duration, ms.
    pub p50_ms: f64,
    /// Nearest-rank p99 call duration, ms; `None` below 1,000 calls.
    pub p99_ms: Option<f64>,
}

/// Folds spans into per-name [`LayerTime`]s.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut durs: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = durs.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e6);
        e.1 += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
    }
    durs.into_iter()
        .map(|(name, (d, self_ms))| {
            let d = stats::sorted(&d);
            let layer = LayerTime {
                calls: d.len(),
                total_ms: d.iter().sum(),
                self_ms,
                p50_ms: stats::median(&d).unwrap_or(0.0),
                p99_ms: stats::p99(&d),
            };
            (name, layer)
        })
        .collect()
}

/// Renders spans as a Chrome trace (`traceEvents` of complete `X`
/// events, microsecond timestamps) that Perfetto opens directly.
pub fn chrome_trace_json(spans: &[Span], process: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
        json_escape(process)
    ));
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            ",{{\"name\":{},\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{},\"item\":{}}}}}",
            json_escape(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.parent.map_or(-1, |p| p as i64),
            s.item,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            item: 0,
            parent,
            tid: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("item", None, 0, 10_000_000),
            span("create", Some(0), 1_000_000, 5_000_000),
            span("apply", Some(0), 6_000_000, 8_000_000),
            span("item", None, 10_000_000, 12_000_000),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["item"].calls, 2);
        assert_eq!(t["item"].total_ms, 12.0);
        assert_eq!(t["item"].self_ms, 6.0);
        assert_eq!(t["create"].self_ms, 4.0);
        assert_eq!(t["item"].p50_ms, 6.0);
        assert_eq!(t["item"].p99_ms, None);
    }

    #[test]
    fn nesting_and_absorb_keep_parents() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin, 0);
        let outer = a.open("outer");
        a.time("inner", || ());
        a.close(outer);
        let mut b = SpanLog::new(origin, 1);
        let o = b.open("outer");
        b.time("inner", || ());
        b.close(o);
        a.absorb(b);
        let parents: Vec<Option<usize>> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2)]);
        assert!(a.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let h = log.open("x");
        log.close(h);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses() {
        let spans = vec![span("a", None, 0, 1500), span("b", Some(0), 100, 900)];
        let text = chrome_trace_json(&spans, "cve-cold");
        let v = ksplice_trace::parse_json_object(&text).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 3);
    }
}
