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
//! * [`Tracer`] — the bus the pipeline emits into. It also keeps named
//!   monotonic counters, and the stack of open causal spans that turns
//!   the update lifecycle (preflight → apply attempts → watch →
//!   commit/rollback) into `span.begin`/`span.end` events, which
//!   [`render_span_tree`] and [`chrome_trace_json`] rebuild into a tree.
//!
//! Pipeline entry points take `&mut Tracer`; their untraced conveniences
//! delegate with [`Tracer::disabled`], which short-circuits to nothing
//! so the hot paths pay one branch.

#![deny(missing_docs)]

use std::collections::BTreeMap;

mod event;
mod json;
mod sink;
mod span;

pub use event::{Event, Severity, Stage, Value, EVENT_SCHEMA_VERSION};
pub use json::{escape as json_escape, parse_json_object};
pub use sink::{HumanSink, JsonlSink, RingHandle, RingSink, Sink};
pub use span::{chrome_trace_json, render_span_tree, SpanId};

/// The parser's value type under the name `benchmark/`'s smoke test
/// imports it by; it is [`Value`].
pub use event::Value as JsonValue;

/// The event bus: sinks plus the pipeline-wide counters and the stack
/// of open causal spans.
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
    counters: BTreeMap<String, u64>,
    /// Spans opened and not yet ended, innermost last.
    open_spans: Vec<OpenSpan>,
    next_span_id: u64,
}

/// What closing a span needs to emit its `span.end` event.
struct OpenSpan {
    id: u64,
    parent: u64,
    stage: Stage,
    name: String,
    start_steps: u64,
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
    /// counting and opening spans all return immediately.
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

    /// Adds `n` to a named monotonic counter, creating it at zero first.
    pub fn count(&mut self, name: &str, n: u64) {
        if self.enabled {
            *self.counters.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds another tracer's counters into this one — how the parallel
    /// evaluation driver folds per-worker tracers back into the caller's
    /// after `thread::scope` joins. Events and spans are not transferred
    /// (workers attach their own sinks if they want them); the step clock
    /// advances to the furthest worker's reading.
    pub fn absorb(&mut self, other: &Tracer) {
        if !self.enabled {
            return;
        }
        for (name, n) in other.counters() {
            self.count(name, n);
        }
        self.now_steps = self.now_steps.max(other.now_steps);
    }

    /// Every counter in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
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
        let parent = self.open_spans.last().map_or(0, |s| s.id);
        self.open_spans.push(OpenSpan {
            id,
            parent,
            stage,
            name: name.to_string(),
            start_steps: self.now_steps,
        });
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
        let Some(pos) = self.open_spans.iter().rposition(|s| s.id == id.0) else {
            return;
        };
        for span in self.open_spans.split_off(pos).into_iter().rev() {
            let dur = self.now_steps.saturating_sub(span.start_steps);
            self.emit(
                span.stage,
                Severity::Debug,
                "span.end",
                span::end_fields(&span.name, span.id, span.parent, dur),
            );
        }
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
        assert!(handle.events().is_empty());
        assert_eq!(t.counter("c"), 0);
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
    fn counters_aggregate() {
        let mut t = Tracer::new();
        t.count("runpre.bytes_matched", 100);
        t.count("runpre.bytes_matched", 50);
        t.count("apply.trampolines_written", 0);
        assert_eq!(t.counter("runpre.bytes_matched"), 150);
        assert_eq!(t.counter("never.touched"), 0);
        let all: Vec<(&str, u64)> = t.counters().collect();
        let expected = [
            ("apply.trampolines_written", 0),
            ("runpre.bytes_matched", 150),
        ];
        assert_eq!(all, expected);
    }

    #[test]
    fn absorb_merges_worker_tracers() {
        let mut main = Tracer::new();
        main.count("build.cache_hits", 1);
        main.set_now(50);
        let mut w1 = Tracer::new();
        w1.count("build.cache_hits", 4);
        w1.set_now(900);
        let mut w2 = Tracer::new();
        w2.count("build.units_compiled", 2);
        main.absorb(&w1);
        main.absorb(&w2);
        assert_eq!(main.counter("build.cache_hits"), 5);
        assert_eq!(main.counter("build.units_compiled"), 2);
        assert_eq!(main.now(), 900);
        // A disabled tracer absorbs nothing.
        let mut off = Tracer::disabled();
        off.absorb(&w1);
        assert_eq!(off.counter("build.cache_hits"), 0);
    }
}
