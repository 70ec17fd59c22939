//! Sink edge cases the pipeline actually hits: oops text with hex and
//! quoted function names through the JSONL escaper, ring-buffer
//! wraparound under sustained emission, and `Tracer::absorb` merge
//! ordering as the parallel (`--jobs`) evaluation driver uses it.

use ksplice_trace::{
    Event, JsonlSink, RingSink, Severity, Stage, Tracer, Value,
};

fn oops_event(seq: u64, detail: &str) -> Event {
    Event {
        seq,
        ts_steps: seq * 100,
        stage: Stage::Watch,
        severity: Severity::Error,
        name: "watch.probe_failed".to_string(),
        fields: vec![("msg".to_string(), Value::Str(detail.to_string()))],
    }
}

#[test]
fn jsonl_escapes_oops_hex_and_quoted_names() {
    let cases = [
        "Oops: store to unmapped 0xf00012ab in sys_open [tid 3]",
        "oops in \"do_exit\" (backtrace 0xf0000100 -> 0xf0000200)",
        "corrupt text: byte at 0xdead\tflipped\nsecond line \\ backslash",
        "unicode fn naïve_lookup — offset 0x1f",
    ];
    let mut out = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut out);
        use ksplice_trace::Sink;
        for (i, c) in cases.iter().enumerate() {
            sink.record(&oops_event(i as u64 + 1, c));
        }
        sink.flush();
    }
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), cases.len());
    for (line, case) in lines.iter().zip(cases.iter()) {
        let e = Event::from_json(line).expect("escaped line parses");
        assert_eq!(e.str_field("msg"), Some(*case), "{line}");
    }
}

#[test]
fn ring_wraps_and_keeps_newest_under_overflow() {
    let ring = RingSink::new(16);
    let handle = ring.handle();
    let mut t = Tracer::new().with_sink(Box::new(ring));
    for i in 0..1000u64 {
        t.set_now(i);
        t.emit(Stage::Apply, Severity::Debug, "apply.step", vec![("i", i.into())]);
    }
    let events = handle.events();
    assert_eq!(events.len(), 16);
    // Oldest were dropped; the window is exactly the newest 16, in order.
    let seen: Vec<u64> = events.iter().filter_map(|e| e.u64_field("i")).collect();
    assert_eq!(seen, (984..1000).collect::<Vec<u64>>());
    // Sequence numbers stay monotonic across the wrap.
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
}

#[test]
fn absorb_is_order_independent_across_workers() {
    // Three "workers" as the --jobs driver spawns them, each counting
    // and observing a different overlap of series.
    let make_worker = |salt: u64| {
        let mut w = Tracer::new();
        w.count("eval.cases_run", salt);
        w.count("apply.updates_committed", 1);
        w.count_labeled("apply.updates_committed", &[("worker", &salt.to_string())], 1);
        w.observe("apply.pause_us", 100 * salt);
        w.gauge("watch.packs_active", &[], salt as i64);
        w.set_now(1000 * salt);
        w
    };
    let workers = [make_worker(1), make_worker(2), make_worker(3)];

    let mut forward = Tracer::new();
    for w in &workers {
        forward.absorb(w);
    }
    let mut reverse = Tracer::new();
    for w in workers.iter().rev() {
        reverse.absorb(w);
    }
    assert_eq!(forward.counter("eval.cases_run"), 6);
    assert_eq!(forward.counter("apply.updates_committed"), 3);
    assert_eq!(forward.metrics_json(), reverse.metrics_json());
    assert_eq!(forward.now(), reverse.now());
    let h = forward.histogram("apply.pause_us").unwrap();
    assert_eq!((h.count(), h.min(), h.max()), (3, 100, 300));
    // Gauges merge by max: deterministic regardless of join order.
    assert_eq!(forward.registry().gauge("watch.packs_active", &[]), Some(3));
}
