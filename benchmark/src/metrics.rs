//! The metrics the benchmark reports, and how each is computed from a
//! workload's [`Outcome`].
//!
//! Every workload reports every metric. End-to-end metrics describe
//! the workload's unit of work (an update, a mutant, a node's update, a
//! cell); per-layer metrics come from the traced half and the probe,
//! which replays the workload's own updates, so a layer a workload
//! barely uses still reads what that workload's inputs cost there.
//! Workload-specific counts (fleet, transport, rebase, fuzz) are 0 on
//! the workloads that do not have that layer.

use std::collections::BTreeMap;

use crate::clock;
use crate::spans;
use crate::stats;
use crate::workloads::{Measured, Outcome};

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Def; 5] = [
    def("setup_s", "s"),
    def("items_per_s", "1/s"),
    def("item_ms_p50", "ms"),
    def("item_ms_p90", "ms"),
    def("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: [Def; 56] = [
    def("patch.parse_us_p50", "us"),
    def("lang.lex_us", "us"),
    def("lang.parse_us", "us"),
    def("lang.sema_us", "us"),
    def("lang.compile_us", "us"),
    def("lang.build_pre_ms_p50", "ms"),
    def("lang.build_post_ms_p50", "ms"),
    def("lang.build_distro_ms_p50", "ms"),
    def("lang.units_compiled", "count"),
    def("lang.cache_hit_ratio", "ratio"),
    def("lang.drift_ms_p50", "ms"),
    def("differ.diff_us_p50", "us"),
    def("differ.units_changed", "count"),
    def("package.build_us_p50", "us"),
    def("object.encode_us_p50", "us"),
    def("object.decode_us_p50", "us"),
    def("object.pack_kb", "KB"),
    def("kernel.boot_ms_p50", "ms"),
    def("kernel.vm_msteps_per_s", "Msteps/s"),
    def("kernel.steps_per_update", "steps"),
    def("runpre.match_us_p50", "us"),
    def("runpre.steps_p50", "steps"),
    def("manager.preflight_us_p50", "us"),
    def("manager.apply_watched_ms_p50", "ms"),
    def("apply.apply_us_p50", "us"),
    def("apply.undo_us_p50", "us"),
    def("apply.pause_us_p50", "us"),
    def("apply.pause_steps_p50", "steps"),
    def("apply.attempts_mean", "count"),
    def("apply.stage_steps.load_helpers", "steps"),
    def("apply.stage_steps.runpre", "steps"),
    def("apply.stage_steps.load_primaries", "steps"),
    def("apply.stage_steps.pre_apply_hooks", "steps"),
    def("apply.stage_steps.stop_machine", "steps"),
    def("apply.stage_steps.commit", "steps"),
    def("item.traced_ms_p50", "ms"),
    def("trace.overhead_ratio", "ratio"),
    def("fuzz.survived_ratio", "ratio"),
    def("fuzz.diverged_ratio", "ratio"),
    def("fuzz.case_ms_p50", "ms"),
    def("fuzz.case_ms_p99", "ms"),
    def("fleet.rollout_s", "s"),
    def("fleet.orchestrator_node_s", "s"),
    def("fleet.node_deliver_ms_p50", "ms"),
    def("fleet.ticks", "ticks"),
    def("fleet.resends", "count"),
    def("transport.sent", "count"),
    def("transport.dropped", "count"),
    def("transport.duplicated", "count"),
    def("transport.send_us_total", "us"),
    def("transport.poll_us_total", "us"),
    def("rebase.reused_ratio", "ratio"),
    def("rebase.ported_ratio", "ratio"),
    def("rebase.hunks_fuzzy", "count"),
    def("rebase.cell_ms_p50", "ms"),
    def("rebase.cell_ms_p99", "ms"),
];

/// A measured value (`None` when the samples cannot support it, such as
/// a p99 from fewer than 1,000 samples).
#[derive(Debug, Clone)]
pub struct Value {
    /// Definition.
    pub def: Def,
    /// Value.
    pub value: Option<f64>,
}

/// Scales a value measured on this host's CPU clock to the reference
/// host speed (see [`clock`]), by its unit: durations by the speed
/// factor, rates by its inverse, anything else not at all.
fn at_reference(unit: &str, v: f64, factor: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" => v * factor,
        u if u.ends_with("/s") => v / factor,
        _ => v,
    }
}

/// The end-to-end values of one run.
pub fn end_to_end(o: &Outcome, peak_rss_mb: f64) -> Vec<Value> {
    let m = &o.untraced;
    let lat = stats::sorted(&m.scaled_latencies());
    let setup_factor = clock::speed_factor(&o.setup_calibration);
    let values = [
        stats::median(&o.setup_s).map(|s| s * setup_factor),
        Some(m.rate()),
        stats::nearest_rank(&lat, 50.0),
        stats::tail(&lat, 90.0),
        Some(peak_rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&def, value)| Value { def, value })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn count(m: &Measured, name: &str) -> f64 {
    m.counts.get(name).copied().unwrap_or(0.0)
}

/// Per-layer metrics read from the traced half's spans: host wall time,
/// reported as measured. A layer the workload lacks reads 0.
fn from_spans(name: &str, layers: &BTreeMap<&str, spans::LayerTime>) -> Option<Option<f64>> {
    let get = |span: &str| layers.get(span);
    let p50 = |span: &str| Some(get(span).map_or(0.0, |t| t.p50_ms));
    let p99 = |span: &str| get(span).map_or(Some(0.0), |t| t.p99_ms);
    let rollouts = get("fleet.orchestrator_run").map_or(0.0, |t| t.calls as f64);
    let per_rollout_ms = |span: &str| ratio(get(span).map_or(0.0, |t| t.total_ms), rollouts);
    Some(match name {
        "lang.drift_ms_p50" => p50("lang.generate_drift"),
        "fuzz.case_ms_p50" => p50("eval.fuzz_case"),
        "fuzz.case_ms_p99" => p99("eval.fuzz_case"),
        "rebase.cell_ms_p50" => p50("core.rebase_update"),
        "rebase.cell_ms_p99" => p99("core.rebase_update"),
        "fleet.rollout_s" => Some(per_rollout_ms("fleet.orchestrator_run") / 1e3),
        // The rollout's self time: everything but the transport's send
        // and poll calls, which are its only child spans.
        "fleet.orchestrator_node_s" => Some(
            ratio(
                get("fleet.orchestrator_run").map_or(0.0, |t| t.self_ms),
                rollouts,
            ) / 1e3,
        ),
        "transport.send_us_total" => Some(per_rollout_ms("transport.send") * 1e3),
        "transport.poll_us_total" => Some(per_rollout_ms("transport.poll") * 1e3),
        _ => return None,
    })
}

/// The per-layer values of a traced run.
pub fn per_layer(o: &Outcome) -> Vec<Value> {
    let Some((m, probe)) = &o.traced else {
        return Vec::new();
    };
    let samples = m
        .pacer
        .samples
        .iter()
        .chain(&probe.pacer.samples)
        .map(|s| s.1);
    let factor = clock::speed_factor(&samples.collect::<Vec<_>>());
    let layers = spans::layer_times(o.spans.spans());
    let counter = |name: &str| m.tracer.counter(name) as f64;
    let per_rollout = |name: &str| ratio(count(m, name), count(m, "fleet.rollouts"));
    let per_cell = |name: &str| ratio(count(m, name), count(m, "rebase.cells"));
    let value = |name: &str| -> f64 {
        match name {
            "lang.units_compiled" => ratio(counter("build.units_compiled"), m.attempted as f64),
            "lang.cache_hit_ratio" => {
                let hits = counter("build.cache_hits");
                ratio(hits, hits + counter("build.cache_misses"))
            }
            "differ.units_changed" | "object.pack_kb" | "kernel.steps_per_update" => {
                probe.mean(name)
            }
            "runpre.steps_p50" => probe.p50("apply.stage_steps.runpre"),
            "apply.attempts_mean" => probe.mean("apply.attempts"),
            "item.traced_ms_p50" => {
                let raw: Vec<f64> = m.latencies.iter().map(|l| l.1).collect();
                stats::median(&raw).unwrap_or(0.0)
            }
            // Each half's rate is already at the reference speed.
            "trace.overhead_ratio" => ratio(o.untraced.rate(), m.rate()) - 1.0,
            "fuzz.survived_ratio" => ratio(count(m, "fuzz.survived"), count(m, "fuzz.mutants")),
            "fuzz.diverged_ratio" => ratio(count(m, "fuzz.diverged"), count(m, "fuzz.mutants")),
            "fleet.ticks"
            | "fleet.resends"
            | "transport.sent"
            | "transport.dropped"
            | "transport.duplicated" => per_rollout(name),
            "rebase.reused_ratio" => per_cell("rebase.reused"),
            "rebase.ported_ratio" => per_cell("rebase.ported"),
            "rebase.hunks_fuzzy" => per_cell("rebase.hunks_fuzzy"),
            // The rest are medians of the probe's samples of the same
            // name, less any `_p50` suffix.
            n => probe.p50(n.strip_suffix("_p50").unwrap_or(n)),
        }
    };
    PER_LAYER
        .iter()
        .map(|&def| Value {
            def,
            value: from_spans(def.name, &layers)
                .unwrap_or_else(|| Some(at_reference(def.unit, value(def.name), factor))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{default_spec_path, load_spec};
    use crate::workloads::Workload;

    /// `BENCHMARK.json` must describe exactly the metrics and workloads
    /// this binary reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let spec = load_spec(&default_spec_path()).unwrap();
        let names = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        let listed = |ms: &[crate::compare::SpecMetric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        assert_eq!(listed(&spec.end_to_end), names(&END_TO_END));
        assert_eq!(listed(&spec.per_layer), names(&PER_LAYER));
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, workloads);
    }
}
