//! `benchmark` — one command that measures the Ksplice pipeline.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!           [--smoke] [--out DIR]
//! benchmark compare BASE_DIR NEW_DIR
//! ```
//!
//! One workload runs in this process; several (the default is all
//! five) run one child process each. Every run checks the workload's
//! outputs, prints each metric as `workload metric value unit`, writes
//! its result JSON (and, traced, its Chrome-trace span file) under the
//! output directory, and prints as its last line a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics, or with `--trace 1` the per-layer ones. A failed check
//! exits non-zero. See README.md.

mod clock;
mod compare;
mod json;
mod metrics;
mod probe;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ksplice_trace::json_escape;

use metrics::Value;
use workloads::{Outcome, Settings, Workload};

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--smoke] [--out DIR]
       benchmark compare BASE_DIR NEW_DIR
workloads: cve-cold cve-warm fuzz fleet rebase";

/// Seed when none is given.
const DEFAULT_SEED: u64 = 1;

/// Seconds the timed loop measures when none are given (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads
                    .push(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    match parse_args(&argv) {
        Ok(args) if args.workloads.len() == 1 => run_one(&args, args.workloads[0]),
        Ok(args) => run_all(&args),
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metrics_json(values: &[Value]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_escape(v.def.name),
                v.value.map_or("null".to_string(), json::num),
                json_escape(v.def.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

fn run_one(args: &Args, w: Workload) -> ExitCode {
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let outcome = match workloads::execute(w, &settings, args.traced) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    let e2e = metrics::end_to_end(&outcome, peak_rss_mb());
    let layer = metrics::per_layer(&outcome);
    let traced_m = outcome.traced.as_ref().map(|(m, _)| m);
    let attempted = outcome.untraced.attempted + traced_m.map_or(0, |m| m.attempted);
    let failed = outcome.untraced.failed + traced_m.map_or(0, |m| m.failed);
    for why in outcome
        .untraced
        .failures
        .iter()
        .chain(traced_m.into_iter().flat_map(|m| &m.failures))
    {
        eprintln!("benchmark: {}: FAILED {why}", w.name());
    }
    if attempted == 0 {
        eprintln!("benchmark: {}: no work was attempted", w.name());
        return ExitCode::FAILURE;
    }
    // A full untraced run is sized to support every metric; a missing
    // value means the run measured too little and its numbers mean
    // nothing.
    if !args.smoke && !args.traced {
        if let Some(v) = e2e.iter().find(|v| v.value.is_none()) {
            eprintln!(
                "benchmark: {}: {} needs more samples than {} items gave",
                w.name(),
                v.def.name,
                outcome.untraced.latencies.len()
            );
            return ExitCode::FAILURE;
        }
    }
    for v in e2e.iter().chain(&layer) {
        let shown = v.value.map_or("-".to_string(), json::num);
        println!("{} {} {} {}", w.name(), v.def.name, shown, v.def.unit);
    }
    let correct = failed == 0;
    let reported = if args.traced { &layer } else { &e2e };
    let metrics = metrics_json(reported);
    if let Err(e) = write_results(args, w, &outcome, correct, attempted, failed, &e2e, &layer) {
        eprintln!("benchmark: {}: {e}", w.name());
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `<out>/<workload>-seed<N>[-traced].json` and, traced, the
/// span file `<out>/<workload>-seed<N>.trace.json`.
#[allow(clippy::too_many_arguments)]
fn write_results(
    args: &Args,
    w: Workload,
    o: &Outcome,
    correct: bool,
    attempted: u64,
    failed: u64,
    e2e: &[Value],
    layer: &[Value],
) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{}-seed{}", w.name(), args.seed);
    let mut s = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"traced\": {}, \
\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"samples\": {}, \
\"jobs\": {}, \"end_to_end\": {}, \"per_layer\": {}",
        json_escape(w.name()),
        args.seed,
        json::num(args.seconds),
        args.smoke,
        args.traced,
        o.untraced.latencies.len(),
        workloads::JOBS,
        metrics_json(e2e),
        metrics_json(layer),
    );
    s.push_str(&format!(
        ", \"calibration_ms\": {}, \"speed_factor\": {}",
        json::num(clock::REFERENCE_S / o.untraced.speed() * 1e3),
        json::num(o.untraced.speed())
    ));
    // The highest percentile the samples support, whatever the run
    // length: with ten samples beyond it.
    let lat = stats::sorted(&o.untraced.scaled_latencies());
    if let Some(p) = stats::highest_supported_percentile(lat.len()) {
        let v = stats::nearest_rank(&lat, p).expect("non-empty");
        s.push_str(&format!(
            ", \"item_ms_tail\": {{\"percentile\": {}, \"value\": {}}}",
            json::num(p),
            json::num(v)
        ));
    }
    if let Some((_, report)) = &o.traced {
        s.push_str(&format!(", \"packs_checked\": {}", report.packs_checked));
        let layers: Vec<String> = spans::layer_times(o.spans.spans())
            .into_iter()
            .map(|(name, t)| {
                format!(
                    "{}: {{\"calls\": {}, \"total_ms\": {}, \"self_ms\": {}, \"p50_ms\": {}}}",
                    json_escape(name),
                    t.calls,
                    json::num(t.total_ms),
                    json::num(t.self_ms),
                    json::num(t.p50_ms)
                )
            })
            .collect();
        s.push_str(&format!(", \"span_layers\": {{{}}}", layers.join(", ")));
        let trace = args.out.join(format!("{stem}.trace.json"));
        std::fs::write(&trace, spans::chrome_trace_json(o.spans.spans(), w.name()))
            .map_err(|e| format!("{}: {e}", trace.display()))?;
    }
    s.push_str("}\n");
    let suffix = if args.traced { "-traced" } else { "" };
    let path = args.out.join(format!("{stem}{suffix}.json"));
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs each workload in a child process of this binary, forwarding
/// its report, and sums the results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut ok, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &json::num(args.seconds)])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        ok &= output.status.success();
        match json::parse(last) {
            Ok(v) => {
                attempted += v
                    .get("attempted")
                    .and_then(json::Json::as_f64)
                    .unwrap_or(0.0) as u64;
                failed += v.get("failed").and_then(json::Json::as_f64).unwrap_or(0.0) as u64;
                ok &= v.get("correct") == Some(&json::Json::Bool(true));
                for (name, m) in v.get("metrics").and_then(json::Json::as_obj).unwrap_or(&[]) {
                    let value = m.get("value").and_then(json::Json::as_f64);
                    let unit = m.get("unit").and_then(json::Json::as_str).unwrap_or("");
                    metrics.push(format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json_escape(&format!("{}/{name}", w.name())),
                        value.map_or("null".to_string(), json::num),
                        json_escape(unit)
                    ));
                }
            }
            Err(_) => {
                eprintln!(
                    "benchmark: {}: no result (exit {})",
                    w.name(),
                    output.status
                );
                ok = false;
            }
        }
    }
    let body = format!("{{{}}}", metrics.join(", "));
    println!("{}", result_line(ok, attempted, failed, &body));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
