//! `ksplice_trace` — the structured observability layer for the
//! hot-update pipeline.
//!
//! The paper's safety story (§4 run-pre matching aborts on any byte
//! mismatch; §5.2 stop_machine stack checks retry then abort) demands
//! per-stage evidence when an update aborts: *which* unit diverged, at
//! what offset, how many capture attempts failed and on whose stack.
//! This crate provides that evidence channel with zero dependencies:
//!
//! * [`Event`] — one structured record: a step-clock timestamp, a
//!   pipeline [`Stage`], a [`Severity`], an event name, and typed
//!   key/value fields.
//! * [`Sink`] — where events go. Built-ins: [`RingSink`] (bounded
//!   in-memory buffer with a shared read handle), [`JsonlSink`] (one
//!   JSON object per line), [`HumanSink`] (severity-filtered
//!   human-readable renderer).
//! * [`Tracer`] — the bus the pipeline emits into, which also owns the
//!   labeled metrics [`Registry`] (monotonic counters, gauges, and
//!   power-of-two [`Histogram`]s) that feeds the `BENCH_*.json` perf
//!   trajectory, and the causal-[`Span`] stack that turns the update
//!   lifecycle (preflight → apply attempts → watch → commit/rollback)
//!   into a tree renderable as a Chrome trace
//!   ([`chrome_trace_json`]).
//!
//! Every pipeline entry point (`differ`, `runpre`, `apply`, `undo_any`,
//! `create`) has a `_traced` variant taking `&mut Tracer`; the untraced
//! names delegate with [`Tracer::disabled`], which short-circuits to
//! nothing so the hot paths pay one branch.

#![deny(missing_docs)]

mod event;
mod json;
mod metrics;
mod registry;
mod sink;
mod span;

pub use event::{Event, Severity, Stage, Value, EVENT_SCHEMA_VERSION};
pub use json::{escape as json_escape, parse_json_object, JsonValue};
pub use metrics::{Counters, Histogram};
pub use registry::{series_key, Registry, Snapshot, SnapshotDiff};
pub use sink::{HumanSink, JsonlSink, RingHandle, RingSink, Sink};
pub use span::{chrome_trace_json, render_span_tree, Span, SpanId};

/// The event bus: sinks plus the pipeline-wide metrics [`Registry`] and
/// the causal-span stack.
///
/// Single-threaded by design (the simulated kernel is too): emitters
/// hold `&mut Tracer` for exactly the scope of a pipeline call.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    /// Step-clock value stamped on emitted events (set from
    /// `Kernel::steps` by the pipeline as it advances).
    now_steps: u64,
    seq: u64,
    sinks: Vec<Box<dyn Sink>>,
    registry: Registry,
    spans: Vec<Span>,
    span_stack: Vec<u64>,
    next_span_id: u64,
}

impl Tracer {
    /// An enabled tracer with no sinks: events are sequenced and counted
    /// but stored nowhere until a sink is attached.
    pub fn new() -> Tracer {
        let mut t = Tracer::default();
        t.enabled = true;
        t
    }

    /// The no-op tracer the untraced API delegates through. Emitting,
    /// counting and observing all return immediately.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether this tracer records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches a sink; every subsequent event is fanned out to it.
    pub fn add_sink(&mut self, sink: Box<dyn Sink>) -> &mut Tracer {
        self.sinks.push(sink);
        self
    }

    /// Builder form of [`Tracer::add_sink`].
    pub fn with_sink(mut self, sink: Box<dyn Sink>) -> Tracer {
        self.sinks.push(sink);
        self
    }

    /// Advances the step clock stamped on subsequent events.
    pub fn set_now(&mut self, steps: u64) {
        // The clock never runs backwards even if a caller re-stamps from
        // a freshly booted kernel mid-pipeline.
        self.now_steps = self.now_steps.max(steps);
    }

    /// The current step-clock reading.
    pub fn now(&self) -> u64 {
        self.now_steps
    }

    /// Emits one event to every sink.
    pub fn emit(
        &mut self,
        stage: Stage,
        severity: Severity,
        name: &str,
        fields: Vec<(&str, Value)>,
    ) {
        if !self.enabled {
            return;
        }
        self.seq += 1;
        let event = Event {
            seq: self.seq,
            ts_steps: self.now_steps,
            stage,
            severity,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        };
        for sink in &mut self.sinks {
            sink.record(&event);
        }
    }

    /// Adds `n` to a named monotonic counter.
    pub fn count(&mut self, name: &str, n: u64) {
        if self.enabled {
            self.registry.inc(name, n);
        }
    }

    /// Adds `n` to a labeled counter series.
    pub fn count_labeled(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        if self.enabled {
            self.registry.inc_labeled(name, labels, n);
        }
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter(name)
    }

    /// Sets a gauge to an absolute value.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        if self.enabled {
            self.registry.set_gauge(name, labels, value);
        }
    }

    /// Records one observation into a named histogram (step durations,
    /// pause microseconds, byte counts — any u64 measure).
    pub fn observe(&mut self, name: &str, value: u64) {
        if self.enabled {
            self.registry.observe(name, value);
        }
    }

    /// Records one observation into a labeled histogram series.
    pub fn observe_labeled(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        if self.enabled {
            self.registry.observe_labeled(name, labels, value);
        }
    }

    /// Merges another tracer's metrics registry into this one — how the
    /// parallel evaluation driver folds per-worker tracers back into the
    /// caller's after `thread::scope` joins. Events and spans are not
    /// transferred (workers attach their own sinks if they want them);
    /// the step clock advances to the furthest worker's reading.
    pub fn absorb(&mut self, other: &Tracer) {
        if !self.enabled {
            return;
        }
        self.registry.absorb(&other.registry);
        self.now_steps = self.now_steps.max(other.now_steps);
    }

    /// The counter table (series key → value).
    pub fn counters(&self) -> &Counters {
        self.registry.counters()
    }

    /// A named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.registry.histogram(name)
    }

    /// The full metrics registry (labeled series, gauges, exports).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A point-in-time snapshot of every metric series, for
    /// [`Snapshot::diff`].
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Opens a span: subsequent spans nest under it until it ends.
    /// Emits a `span.begin` event (Debug) carrying `span_id`/`parent_id`
    /// plus the given fields, so JSONL traces round-trip the tree.
    pub fn span_start(
        &mut self,
        stage: Stage,
        name: &str,
        fields: Vec<(&str, Value)>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.next_span_id += 1;
        let id = self.next_span_id;
        let parent = self.span_stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            stage,
            name: name.to_string(),
            start_steps: self.now_steps,
            end_steps: None,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
        self.span_stack.push(id);
        self.emit(
            stage,
            Severity::Debug,
            "span.begin",
            span::begin_fields(name, id, parent, fields),
        );
        SpanId(id)
    }

    /// Closes a span. Children left open inside it (an abort path that
    /// early-returned past their `span_end`) are closed first, innermost
    /// out. No-op for [`SpanId::NONE`] or an already-closed id.
    pub fn span_end(&mut self, id: SpanId) {
        if !self.enabled || id.is_none() {
            return;
        }
        match self.span_stack.iter().rposition(|&s| s == id.0) {
            Some(pos) => {
                let popped: Vec<u64> = self.span_stack.drain(pos..).collect();
                for sid in popped.into_iter().rev() {
                    self.close_one_span(sid);
                }
            }
            None => self.close_one_span(id.0),
        }
    }

    fn close_one_span(&mut self, id: u64) {
        let now = self.now_steps;
        let Some(span) = self.spans.iter_mut().find(|s| s.id == id && s.end_steps.is_none())
        else {
            return;
        };
        span.end_steps = Some(now);
        let (stage, name, parent, dur) =
            (span.stage, span.name.clone(), span.parent, span.dur_steps());
        self.emit(
            stage,
            Severity::Debug,
            "span.end",
            span::end_fields(&name, id, parent, dur),
        );
    }

    /// Runs `f` inside a span, closing it on the way out.
    pub fn in_span<R>(
        &mut self,
        stage: Stage,
        name: &str,
        fields: Vec<(&str, Value)>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.span_start(stage, name, fields);
        let r = f(self);
        self.span_end(id);
        r
    }

    /// The id of the innermost open span (0 when none).
    pub fn current_span(&self) -> u64 {
        self.span_stack.last().copied().unwrap_or(0)
    }

    /// Every span recorded by this tracer, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders every counter, gauge and histogram as one JSON object —
    /// the payload of the `BENCH_*.json` metric dumps.
    pub fn metrics_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.registry.counters().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json::escape(k)));
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.registry.gauges().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json::escape(k)));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.registry.histograms().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{}", json::escape(k), h.to_json()));
        }
        s.push_str("}}");
        s
    }

    /// Flushes every sink (file sinks buffer).
    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let ring = RingSink::new(8);
        let handle = ring.handle();
        let mut t = Tracer::disabled().with_sink(Box::new(ring));
        t.emit(Stage::Apply, Severity::Info, "x", vec![]);
        t.count("c", 3);
        t.observe("h", 5);
        assert!(handle.events().is_empty());
        assert_eq!(t.counter("c"), 0);
        assert!(t.histogram("h").is_none());
    }

    #[test]
    fn events_are_sequenced_and_stamped() {
        let ring = RingSink::new(8);
        let handle = ring.handle();
        let mut t = Tracer::new().with_sink(Box::new(ring));
        t.set_now(100);
        t.emit(Stage::RunPre, Severity::Info, "a", vec![("k", 1u64.into())]);
        t.set_now(250);
        t.emit(Stage::Apply, Severity::Warn, "b", vec![]);
        let events = handle.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[0].ts_steps, 100);
        assert_eq!(events[1].ts_steps, 250);
        // The clock is monotonic even if re-stamped lower.
        t.set_now(10);
        assert_eq!(t.now(), 250);
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let mut t = Tracer::new();
        t.count("runpre.bytes_matched", 100);
        t.count("runpre.bytes_matched", 50);
        t.observe("apply.pause_us", 700);
        t.observe("apply.pause_us", 900);
        assert_eq!(t.counter("runpre.bytes_matched"), 150);
        let h = t.histogram("apply.pause_us").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 700);
        assert_eq!(h.max(), 900);
        let json = t.metrics_json();
        assert!(json.contains("\"runpre.bytes_matched\":150"), "{json}");
        assert!(json.contains("\"apply.pause_us\""), "{json}");
    }

    #[test]
    fn absorb_merges_worker_tracers() {
        let mut main = Tracer::new();
        main.count("build.cache_hits", 1);
        main.set_now(50);
        let mut w1 = Tracer::new();
        w1.count("build.cache_hits", 4);
        w1.observe("apply.pause_us", 700);
        w1.set_now(900);
        let mut w2 = Tracer::new();
        w2.count("build.units_compiled", 2);
        w2.observe("apply.pause_us", 300);
        main.absorb(&w1);
        main.absorb(&w2);
        assert_eq!(main.counter("build.cache_hits"), 5);
        assert_eq!(main.counter("build.units_compiled"), 2);
        let h = main.histogram("apply.pause_us").unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (2, 300, 700));
        assert_eq!(main.now(), 900);
        // A disabled tracer absorbs nothing.
        let mut off = Tracer::disabled();
        off.absorb(&w1);
        assert_eq!(off.counter("build.cache_hits"), 0);
    }

    #[test]
    fn metrics_json_parses_back() {
        let mut t = Tracer::new();
        t.count("a", 1);
        t.observe("h", 42);
        let parsed = parse_json_object(&t.metrics_json()).unwrap();
        let JsonValue::Object(top) = parsed else {
            panic!("not an object")
        };
        assert!(top.iter().any(|(k, _)| k == "counters"));
    }
}
