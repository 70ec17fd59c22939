//! Malformed trace files: a trace is outside input, so every damaged
//! line must read as an event or an error, and every trace built from
//! what reads must render, never panic or overflow the stack.
//!
//! Each line of three traces (the checked-in v1 fixture, a v2 span
//! tree, and a v2 trace whose repeated span id closes a loop) is cut at
//! every char boundary and has each byte replaced, one at a time, by
//! each byte of a small alphabet. Every variant goes through
//! `Event::from_json`; each one that parses must read back unchanged
//! from its own `to_json`, takes its line's place in the trace, and the
//! trace is rendered through `render_span_tree` and `chrome_trace_json`.

use ksplice_trace::{chrome_trace_json, render_span_tree, Event};

const V1_FIXTURE: &str = include_str!("fixtures/trace_v1.jsonl");

/// JSON punctuation, two digits and two letters: enough to break or
/// retype a token, close a string early, or turn an id into another,
/// while the whole suite stays under a second in a debug build.
const ALPHABET: &[u8] = b"{}[]\":,\\-01ae";

fn span_line(seq: u64, event: &str, id: u64, parent: u64) -> String {
    format!(
        "{{\"v\":2,\"seq\":{seq},\"ts_steps\":{},\"stage\":\"apply\",\"severity\":\"info\",\
         \"event\":\"{event}\",\"fields\":{{\"span\":\"s{id}\",\"span_id\":{id},\"parent_id\":{parent}}}}}",
        seq * 10
    )
}

fn traces() -> Vec<Vec<String>> {
    let v1 = V1_FIXTURE.lines().map(str::to_string).collect();
    let tree = vec![
        span_line(1, "span.begin", 1, 0),
        span_line(2, "span.begin", 2, 1),
        span_line(3, "span.end", 2, 1),
        span_line(4, "span.end", 1, 0),
    ];
    let looped = vec![
        span_line(1, "span.begin", 5, 0),
        span_line(2, "span.begin", 7, 5),
        span_line(3, "span.begin", 5, 7),
    ];
    vec![v1, tree, looped]
}

/// Every char-boundary prefix of `line`, then every single-byte
/// substitution from [`ALPHABET`] that leaves valid UTF-8.
fn variants(line: &str) -> Vec<String> {
    let mut out: Vec<String> = (0..=line.len())
        .filter(|&i| line.is_char_boundary(i))
        .map(|i| line[..i].to_string())
        .collect();
    for at in 0..line.len() {
        for &b in ALPHABET {
            let mut bytes = line.as_bytes().to_vec();
            if bytes[at] == b {
                continue;
            }
            bytes[at] = b;
            if let Ok(s) = String::from_utf8(bytes) {
                out.push(s);
            }
        }
    }
    out
}

/// Renders a trace both ways.
fn render(events: &[Event]) {
    render_span_tree(events);
    chrome_trace_json(events);
}

#[test]
fn damaged_lines_read_or_refuse_and_their_traces_render() {
    let (mut cases, mut parsed) = (0, 0);
    for trace in traces() {
        let events: Vec<Event> = trace
            .iter()
            .map(|l| Event::from_json(l).expect("an undamaged line reads"))
            .collect();
        render(&events);
        for (k, line) in trace.iter().enumerate() {
            for variant in variants(line) {
                cases += 1;
                let Ok(event) = Event::from_json(&variant) else {
                    continue;
                };
                parsed += 1;
                assert_eq!(
                    Event::from_json(&event.to_json()).as_ref(),
                    Ok(&event),
                    "{variant}"
                );
                let mut damaged = events.clone();
                damaged[k] = event;
                render(&damaged);
            }
        }
    }
    // Most damage is refused; some (a digit for a digit, a cut after a
    // complete object) still reads.
    assert!(cases > 20_000, "{cases}");
    assert!(parsed > 0 && parsed < cases, "{parsed} of {cases}");
}
