//! Causal spans: nested intervals over the step clock.
//!
//! A span wraps one pipeline phase (preflight → apply attempt →
//! quarantine watch → commit/rollback) and records its parent, so the
//! update lifecycle becomes a tree instead of a flat event list. Spans
//! ride the ordinary event stream as `span.begin`/`span.end` events
//! carrying `span_id`/`parent_id` fields — which means a JSONL trace
//! file round-trips the whole tree, and `ksplice report --spans` /
//! `--timeline` can rebuild it offline.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use crate::event::{Event, Stage, Value};

/// Identifies one span within a tracer. Id 0 is reserved for "no span"
/// (the value returned by a disabled tracer, and the parent id of
/// roots); ending it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: parents of roots, and what disabled tracers hand
    /// out.
    pub const NONE: SpanId = SpanId(0);

    /// True for the null span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// A span rebuilt from `span.begin`/`span.end` events — the only span
/// record there is: the tracer keeps just the open-span stack, and every
/// view (`report --spans`, `--timeline`) replays the events.
#[derive(Debug, Clone)]
struct ReplaySpan {
    id: u64,
    parent: u64,
    stage: Stage,
    name: String,
    start: u64,
    end: Option<u64>,
    args: Vec<(String, Value)>,
}

fn replay(events: &[Event]) -> Vec<ReplaySpan> {
    let mut spans: Vec<ReplaySpan> = Vec::new();
    let mut last_ts = 0;
    for e in events {
        last_ts = last_ts.max(e.ts_steps);
        match e.name.as_str() {
            "span.begin" => {
                let id = e.u64_field("span_id").unwrap_or(0);
                if id == 0 {
                    continue;
                }
                spans.push(ReplaySpan {
                    id,
                    parent: e.u64_field("parent_id").unwrap_or(0),
                    stage: e.stage,
                    name: e
                        .str_field("span")
                        .unwrap_or("span")
                        .to_string(),
                    start: e.ts_steps,
                    end: None,
                    args: e
                        .fields
                        .iter()
                        .filter(|(k, _)| !matches!(k.as_str(), "span" | "span_id" | "parent_id"))
                        .cloned()
                        .collect(),
                });
            }
            "span.end" => {
                let id = e.u64_field("span_id").unwrap_or(0);
                if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
                    s.end = Some(e.ts_steps);
                }
            }
            _ => {}
        }
    }
    // A crashed pipeline leaves spans open; close them at the last
    // observed timestamp so durations stay meaningful.
    for s in &mut spans {
        if s.end.is_none() {
            s.end = Some(last_ts.max(s.start));
        }
    }
    spans
}

fn stage_tid(stage: Stage) -> usize {
    Stage::ALL.iter().position(|s| *s == stage).unwrap_or(0)
}

/// Lines deeper than this many levels are indented as this many and
/// marked with their depth, so the outline's size stays linear in the
/// number of spans however long a parent chain is.
const MAX_INDENT_LEVELS: usize = 64;

/// Renders the events' span tree as an indented text outline — the
/// `report --spans` view; empty when the events hold no span. A span is
/// a root when its parent id is 0 or names no span in the events (a
/// trace cut from a longer run); roots and each span's children appear
/// in begin order. A line more than 64 levels deep is indented as 64
/// and starts with `(depth N) `.
///
/// A trace file is outside input, so the walk keeps its own stack (a
/// deep parent chain cannot overflow the thread's), expands each parent
/// id once and prints each span once: a repeated span id that closes a
/// loop puts its children under the first span with that id, and a
/// span on a parent-id cycle that no root reaches starts one more
/// root, in begin order, once the walk from the roots is done.
pub fn render_span_tree(events: &[Event]) -> String {
    let spans = replay(events);
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = if ids.contains(&s.parent) { s.parent } else { 0 };
        children.entry(parent).or_default().push(i);
    }
    let mut out = String::new();
    let mut printed = vec![false; spans.len()];
    let mut unreached = 0..spans.len();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut expand = |stack: &mut Vec<(usize, usize)>, parent: u64, depth: usize| {
        if let Some(kids) = children.remove(&parent) {
            stack.extend(kids.into_iter().rev().map(|i| (i, depth)));
        }
    };
    expand(&mut stack, 0, 0);
    loop {
        let (i, depth) = match stack.pop() {
            Some(next) => next,
            None => match unreached.find(|&i| !printed[i]) {
                Some(i) => (i, 0),
                None => break,
            },
        };
        if std::mem::replace(&mut printed[i], true) {
            continue;
        }
        let s = &spans[i];
        let end = s.end.unwrap_or(s.start);
        let indent = 2 * depth.min(MAX_INDENT_LEVELS);
        let _ = write!(out, "{:indent$}", "");
        if depth > MAX_INDENT_LEVELS {
            let _ = write!(out, "(depth {depth}) ");
        }
        let (name, stage, start) = (&s.name, s.stage, s.start);
        let steps = end.saturating_sub(start);
        let _ = write!(out, "{name} [{stage}] {start}..{end} (+{steps} steps)");
        for (k, v) in &s.args {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        expand(&mut stack, s.id, depth + 1);
    }
    out
}

/// Converts the events into Chrome trace format (the JSON object
/// Perfetto and `chrome://tracing` load): each span becomes a complete
/// (`"ph":"X"`) event on its stage's track, each non-span event an
/// instant (`"ph":"i"`). One step is rendered as one microsecond.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut entries = Vec::new();
    for s in replay(events) {
        let mut args = vec![
            ("span_id".to_string(), Value::U64(s.id)),
            ("parent_id".to_string(), Value::U64(s.parent)),
        ];
        args.extend(s.args);
        let dur = s.end.unwrap_or(s.start).saturating_sub(s.start).max(1);
        entries.push(Value::object([
            ("name", s.name.into()),
            ("cat", s.stage.as_str().into()),
            ("ph", "X".into()),
            ("ts", s.start.into()),
            ("dur", dur.into()),
            ("pid", 1u64.into()),
            ("tid", stage_tid(s.stage).into()),
            ("args", Value::Object(args)),
        ]));
    }
    for e in events {
        if e.name == "span.begin" || e.name == "span.end" {
            continue;
        }
        entries.push(Value::object([
            ("name", e.name.as_str().into()),
            ("cat", e.stage.as_str().into()),
            ("ph", "i".into()),
            ("s", "t".into()),
            ("ts", e.ts_steps.into()),
            ("pid", 1u64.into()),
            ("tid", stage_tid(e.stage).into()),
        ]));
    }
    Value::object([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Value::Array(entries)),
    ])
    .to_json()
}

/// The fields a `span.begin` event carries ahead of the caller's own.
pub(crate) fn begin_fields<'a>(
    name: &'a str,
    id: u64,
    parent: u64,
    mut fields: Vec<(&'a str, Value)>,
) -> Vec<(&'a str, Value)> {
    let mut all = vec![
        ("span", Value::Str(name.to_string())),
        ("span_id", Value::U64(id)),
        ("parent_id", Value::U64(parent)),
    ];
    all.append(&mut fields);
    all
}

/// The fields a `span.end` event carries.
pub(crate) fn end_fields(name: &str, id: u64, parent: u64, dur: u64) -> Vec<(&str, Value)> {
    vec![
        ("span", Value::Str(name.to_string())),
        ("span_id", Value::U64(id)),
        ("parent_id", Value::U64(parent)),
        ("dur_steps", Value::U64(dur)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Severity;
    use crate::json::parse_json_object;
    use crate::{RingSink, Tracer};

    fn traced_tree() -> Vec<Event> {
        let ring = RingSink::new(64);
        let handle = ring.handle();
        let mut t = Tracer::new().with_sink(Box::new(ring));
        t.set_now(100);
        let update = t.span_start(Stage::Apply, "update", vec![("cve", "X".into())]);
        t.set_now(150);
        let pre = t.span_start(Stage::Apply, "preflight", vec![]);
        t.emit(Stage::Apply, Severity::Info, "preflight.checked", vec![]);
        t.set_now(200);
        t.span_end(pre);
        let att = t.span_start(Stage::Apply, "apply.attempt", vec![("attempt", 1u64.into())]);
        t.set_now(260);
        t.span_end(att);
        t.set_now(300);
        t.span_end(update);
        handle.events()
    }

    #[test]
    fn spans_nest_and_close() {
        let events = traced_tree();
        let begins: Vec<&Event> = events.iter().filter(|e| e.name == "span.begin").collect();
        assert_eq!(begins.len(), 3);
        assert_eq!(begins[0].u64_field("parent_id"), Some(0));
        assert_eq!(begins[1].u64_field("parent_id"), begins[0].u64_field("span_id"));
        assert_eq!(begins[2].u64_field("parent_id"), begins[0].u64_field("span_id"));
        let ends: Vec<&Event> = events.iter().filter(|e| e.name == "span.end").collect();
        assert_eq!(ends.len(), 3);
        assert_eq!(ends[0].u64_field("dur_steps"), Some(50));
    }

    #[test]
    fn tree_renders_nested() {
        let text = render_span_tree(&traced_tree());
        assert!(text.contains("update [apply] 100..300 (+200 steps) cve=X"), "{text}");
        assert!(text.contains("\n  preflight [apply] 150..200"), "{text}");
        assert!(text.contains("\n  apply.attempt"), "{text}");
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let json = chrome_trace_json(&traced_tree());
        let v = parse_json_object(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 3 spans as X entries + 1 instant event.
        assert_eq!(events.len(), 4);
        let first = &events[0];
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(first.get("ts").unwrap().as_u64(), Some(100));
        assert_eq!(first.get("dur").unwrap().as_u64(), Some(200));
        assert!(events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("i")));
    }

    #[test]
    fn unclosed_spans_close_at_last_timestamp() {
        let ring = RingSink::new(16);
        let handle = ring.handle();
        let mut t = Tracer::new().with_sink(Box::new(ring));
        t.set_now(10);
        let _open = t.span_start(Stage::Undo, "undo", vec![]);
        t.set_now(90);
        t.emit(Stage::Undo, Severity::Error, "undo.aborted", vec![]);
        let text = render_span_tree(&handle.events());
        assert!(text.contains("undo [undo] 10..90 (+80 steps)"), "{text}");
    }

    #[test]
    fn ending_a_parent_closes_open_children_innermost_first() {
        let ring = RingSink::new(16);
        let handle = ring.handle();
        let mut t = Tracer::new().with_sink(Box::new(ring));
        let outer = t.span_start(Stage::Apply, "outer", vec![]);
        t.set_now(10);
        let _mid = t.span_start(Stage::Apply, "mid", vec![]);
        t.set_now(30);
        let _inner = t.span_start(Stage::Apply, "inner", vec![]);
        t.set_now(70);
        t.span_end(outer);
        t.span_end(outer); // already closed: no second span.end
        let ends: Vec<(String, u64)> = handle
            .events()
            .iter()
            .filter(|e| e.name == "span.end")
            .map(|e| {
                let name = e.str_field("span").unwrap().to_string();
                (name, e.u64_field("dur_steps").unwrap())
            })
            .collect();
        let expected = [("inner", 40), ("mid", 60), ("outer", 70)];
        assert_eq!(ends, expected.map(|(n, d)| (n.to_string(), d)));
    }

    fn span_begin(ts: u64, id: u64, parent: u64) -> Event {
        Event::from_json(&format!(
            "{{\"v\":2,\"seq\":{ts},\"ts_steps\":{ts},\"stage\":\"apply\",\"severity\":\"info\",\
             \"event\":\"span.begin\",\"fields\":{{\"span\":\"s{id}\",\"span_id\":{id},\"parent_id\":{parent}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn a_repeated_span_id_that_closes_a_loop_renders_each_span_once() {
        // (5, 0), (7, 5), (5, 7): the second span 5 is a child of 7 and
        // shares its id with 7's parent, so a walk that follows parent
        // ids alone never ends.
        let events = [
            span_begin(1, 5, 0),
            span_begin(2, 7, 5),
            span_begin(3, 5, 7),
        ];
        assert_eq!(
            render_span_tree(&events),
            "s5 [apply] 1..3 (+2 steps)\n  s7 [apply] 2..3 (+1 steps)\n    s5 [apply] 3..3 (+0 steps)\n"
        );
    }

    #[test]
    fn a_span_whose_parent_is_not_in_the_trace_is_a_root() {
        let end = Event::from_json(
            "{\"v\":2,\"seq\":2,\"ts_steps\":9,\"stage\":\"apply\",\"severity\":\"info\",\
             \"event\":\"span.end\",\"fields\":{\"span\":\"s4\",\"span_id\":4,\"parent_id\":3}}",
        )
        .unwrap();
        assert_eq!(
            render_span_tree(&[span_begin(1, 4, 3), end]),
            "s4 [apply] 1..9 (+8 steps)\n"
        );
        // Orphans and true roots interleave in begin order, each with
        // its children under it.
        let events = [
            span_begin(1, 2, 0),
            span_begin(2, 6, 5),
            span_begin(3, 7, 6),
            span_begin(4, 3, 2),
        ];
        assert_eq!(
            render_span_tree(&events),
            "s2 [apply] 1..4 (+3 steps)\n  s3 [apply] 4..4 (+0 steps)\n\
             s6 [apply] 2..4 (+2 steps)\n  s7 [apply] 3..4 (+1 steps)\n"
        );
        assert_eq!(render_span_tree(&[]), "");
    }

    #[test]
    fn a_span_on_a_cycle_no_root_reaches_is_printed_once() {
        // A span that is its own parent, and two spans that are each
        // other's: no root leads to them.
        assert_eq!(
            render_span_tree(&[span_begin(1, 5, 5)]),
            "s5 [apply] 1..1 (+0 steps)\n"
        );
        assert_eq!(
            render_span_tree(&[span_begin(1, 5, 7), span_begin(2, 7, 5)]),
            "s5 [apply] 1..2 (+1 steps)\n  s7 [apply] 2..2 (+0 steps)\n"
        );
        // After the walk from the roots, in begin order.
        let events = [
            span_begin(1, 8, 9),
            span_begin(2, 9, 8),
            span_begin(3, 1, 0),
        ];
        assert_eq!(
            render_span_tree(&events),
            "s1 [apply] 3..3 (+0 steps)\n\
             s8 [apply] 1..3 (+2 steps)\n  s9 [apply] 2..3 (+1 steps)\n"
        );
    }

    #[test]
    fn a_deep_chain_renders_on_a_small_stack() {
        // At two spaces of indent per level, this chain's outline would
        // be about 2.5 GB.
        const N: u64 = 50_000;
        let events: Vec<Event> = (1..=N).map(|id| span_begin(id, id, id - 1)).collect();
        let text = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(move || render_span_tree(&events))
            .unwrap()
            .join()
            .unwrap();
        assert!(text.len() < 200 * N as usize, "{} bytes", text.len());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), N as usize);
        let cap = MAX_INDENT_LEVELS;
        assert_eq!(
            lines[cap],
            format!(
                "{:1$}s{2} [apply] {2}..{3} (+{4} steps)",
                "",
                2 * cap,
                cap + 1,
                N,
                N - cap as u64 - 1
            )
        );
        assert_eq!(
            lines[cap + 1],
            format!(
                "{:1$}(depth {2}) s{3} [apply] {3}..{4} (+{5} steps)",
                "",
                2 * cap,
                cap + 1,
                cap + 2,
                N,
                N - cap as u64 - 2
            )
        );
        assert_eq!(
            lines[N as usize - 1],
            format!(
                "{:1$}(depth {2}) s{3} [apply] {3}..{3} (+0 steps)",
                "",
                2 * cap,
                N - 1,
                N
            )
        );
    }

    #[test]
    fn disabled_tracer_hands_out_null_spans() {
        let ring = RingSink::new(4);
        let handle = ring.handle();
        let mut t = Tracer::disabled().with_sink(Box::new(ring));
        let id = t.span_start(Stage::Apply, "x", vec![]);
        assert!(id.is_none());
        t.span_end(id); // no-op, no panic
        assert!(handle.events().is_empty());
    }
}
