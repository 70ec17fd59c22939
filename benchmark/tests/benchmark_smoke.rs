//! Runs `benchmark --smoke`, untraced and traced, and checks the output
//! against `BENCHMARK.json`: every metric of every workload is printed
//! with its unit, names and counts stay within the benchmark format's
//! limits, every run is correct, and each traced run's span file is
//! Chrome trace JSON that `ksplice_trace::parse_json_object` reads.

use std::path::{Path, PathBuf};
use std::process::Command;

use ksplice_trace::{parse_json_object, JsonValue};

struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn spec() -> Spec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let v = parse_json_object(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_array)
            .expect(key)
            .to_vec()
    };
    let field = |e: &JsonValue, f: &str| e.get(f).and_then(JsonValue::as_str).expect(f).to_string();
    let metrics = |key: &str| -> Vec<(String, String)> {
        list(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    };
    Spec {
        workloads: list("workloads").iter().map(|w| field(w, "name")).collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs the smoke mode; returns stdout after checking the exit status
/// and the final result line.
fn smoke(out: &Path, traced: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.arg("--smoke").arg("--out").arg(out);
    if traced {
        cmd.arg("--traced");
    }
    let output = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "benchmark --smoke{} failed:\n{stdout}\n{}",
        if traced { " --traced" } else { "" },
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json_object(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{last}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0
    );
    stdout
}

fn assert_reported(stdout: &str, workloads: &[String], metrics: &[(String, String)]) {
    for w in workloads {
        for (name, unit) in metrics {
            let found = stdout.lines().any(|line| {
                let f: Vec<&str> = line.split(' ').collect();
                f.len() == 4 && f[0] == w && f[1] == name && f[3] == unit
            });
            assert!(found, "`{w} {name} <value> {unit}` missing from:\n{stdout}");
        }
    }
}

#[test]
fn smoke_run_reports_every_metric_and_a_readable_trace() {
    let spec = spec();
    assert!(!spec.workloads.is_empty() && spec.workloads.len() <= 8);
    assert!(!spec.end_to_end.is_empty() && spec.end_to_end.len() <= 16);
    assert!(!spec.per_layer.is_empty() && spec.per_layer.len() <= 128);
    let names = spec.workloads.iter().chain(
        spec.end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|(n, _)| n),
    );
    for name in names {
        assert!(valid_name(name), "bad name `{name}`");
    }

    let out: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-smoke");
    let _ = std::fs::remove_dir_all(&out);
    let untraced = smoke(&out, false);
    assert_reported(&untraced, &spec.workloads, &spec.end_to_end);
    let traced = smoke(&out, true);
    assert_reported(&traced, &spec.workloads, &spec.per_layer);

    for w in &spec.workloads {
        let path = out.join(format!("{w}-seed1.trace.json"));
        let text = std::fs::read_to_string(&path).expect("span file written");
        let trace = parse_json_object(&text).expect("span file is JSON");
        let events = trace
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents list");
        let spans = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .count();
        assert!(spans > 0, "{w}: no complete spans in {}", path.display());
    }
}
