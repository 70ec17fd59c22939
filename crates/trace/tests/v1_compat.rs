//! Schema-compatibility: a checked-in v1 trace (written before the
//! `"v"` key existed) must replay cleanly through today's reader, and
//! its Chrome trace, with a v2 span tree after it, stays byte for byte
//! what the writer gave when the pin was recorded.

use ksplice_trace::{chrome_trace_json, Event, RingSink, Severity, Stage, Tracer};

const V1_FIXTURE: &str = include_str!("fixtures/trace_v1.jsonl");

#[test]
fn v1_fixture_replays_without_error() {
    let events: Vec<Event> = V1_FIXTURE
        .lines()
        .map(|l| Event::from_json(l).expect("v1 line parses"))
        .collect();
    assert_eq!(events.len(), 7);
    // Spot checks: values survive, not just parse.
    assert_eq!(events[0].stage, Stage::Create);
    assert_eq!(events[0].str_field("cve"), Some("CVE-2008-0600"));
    assert_eq!(events[2].severity, Severity::Warn);
    assert_eq!(events[2].str_field("busy_fn"), Some("sys_open"));
    assert_eq!(events[3].u64_field("pause_us"), Some(712));
    assert_eq!(
        events[5].str_field("probe"),
        Some("oops \"quoted fn\" at 0xf0001a2b")
    );
    assert_eq!(events[6].field("restored").and_then(|v| v.as_bool()), Some(true));
}

#[test]
fn v1_lines_reserialize_as_v2() {
    for line in V1_FIXTURE.lines() {
        let e = Event::from_json(line).unwrap();
        let reserialized = e.to_json();
        assert!(reserialized.starts_with("{\"v\":2,"), "{reserialized}");
        // And the v2 form round-trips to the same event.
        assert_eq!(Event::from_json(&reserialized).unwrap(), e);
    }
}

/// A v2 span tree whose span names and args hold a quote, a backslash,
/// control characters and non-ASCII text, around one instant event.
fn v2_span_tree() -> Vec<Event> {
    let ring = RingSink::new(16);
    let handle = ring.handle();
    let mut t = Tracer::new().with_sink(Box::new(ring));
    t.set_now(4_000);
    let update = t.span_start(
        Stage::Apply,
        "update \"CVE-2006-2451\"",
        vec![
            ("cve", "CVE-2006-2451".into()),
            ("note", "tab\there \\ naïve — \u{1}\r\n".into()),
        ],
    );
    t.set_now(4_100);
    let attempt = t.span_start(
        Stage::Apply,
        "apply.attempt",
        vec![
            ("attempt", 1u64.into()),
            ("delta", (-3i64).into()),
            ("ok", true.into()),
        ],
    );
    t.emit(
        Stage::Apply,
        Severity::Info,
        "apply.committed",
        vec![("trampolines", 2u64.into())],
    );
    t.set_now(4_180);
    t.span_end(attempt);
    t.set_now(4_200);
    t.span_end(update);
    handle.events()
}

/// `chrome_trace_json` of the fixture followed by [`v2_span_tree`],
/// byte for byte: spans with their args, then one instant per other
/// event.
const CHROME_PIN: &str = concat!(
    r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"update \"CVE-2006-2451\"","cat":"apply","ph":"X","ts":4000,"dur":200,"pid":1,"tid":3,"args":{"span_id":1,"parent_id":0,"cve":"CVE-2006-2451","note":"tab\there \\ naïve — \u0001\r\n"}}"#,
    r#",{"name":"apply.attempt","cat":"apply","ph":"X","ts":4100,"dur":80,"pid":1,"tid":3,"args":{"span_id":2,"parent_id":1,"attempt":1,"delta":-3,"ok":true}}"#,
    r#",{"name":"create.pack_built","cat":"create","ph":"i","s":"t","ts":0,"pid":1,"tid":0}"#,
    r#",{"name":"runpre.unit_matched","cat":"runpre","ph":"i","s":"t","ts":1204,"pid":1,"tid":2}"#,
    r#",{"name":"apply.stop_machine","cat":"apply","ph":"i","s":"t","ts":1790,"pid":1,"tid":3}"#,
    r#",{"name":"apply.stop_machine","cat":"apply","ph":"i","s":"t","ts":2411,"pid":1,"tid":3}"#,
    r#",{"name":"apply.committed","cat":"apply","ph":"i","s":"t","ts":2412,"pid":1,"tid":3}"#,
    r#",{"name":"watch.probe_failed","cat":"watch","ph":"i","s":"t","ts":3010,"pid":1,"tid":4}"#,
    r#",{"name":"undo.reversed","cat":"undo","ph":"i","s":"t","ts":3400,"pid":1,"tid":5}"#,
    r#",{"name":"apply.committed","cat":"apply","ph":"i","s":"t","ts":4100,"pid":1,"tid":3}]}"#,
);

#[test]
fn chrome_trace_of_the_fixture_and_a_span_tree_is_pinned() {
    let mut events: Vec<Event> = V1_FIXTURE
        .lines()
        .map(|l| Event::from_json(l).unwrap())
        .collect();
    events.extend(v2_span_tree());
    assert_eq!(chrome_trace_json(&events), CHROME_PIN);
}
