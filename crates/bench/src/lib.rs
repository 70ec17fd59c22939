//! Shared helpers for the benchmark harness.
//!
//! Every bench doubles as an experiment regenerator: it prints the
//! paper-comparable rows (Figure 3, Table 1, the §6.3 statistics, the
//! ~0.7 ms pause) before handing the hot loops to Criterion.

use std::path::Path;

use ksplice_core::trace::{parse_json_object, JsonValue};
use ksplice_core::{BuildCache, Tracer, UpdatePack};
use ksplice_eval::{base_tree, corpus, shippable_update, Cve};
use ksplice_kernel::Kernel;
use ksplice_lang::{Options, SourceTree};

/// Schema version of `BENCH_summary.json`. Bump when the layout of the
/// summary (not of the per-bench dumps) changes.
pub const BENCH_SUMMARY_VERSION: u64 = 1;

/// Schema identifier stamped into `BENCH_summary.json`.
pub const BENCH_SUMMARY_SCHEMA: &str = "ksplice-bench-summary";

/// Validates one `BENCH_*.json` metric dump: a single JSON object whose
/// top-level keys are exactly the three metric kinds, each an object.
/// Counter and gauge values must be non-negative integers.
fn check_bench_dump(name: &str, text: &str) -> Result<(), String> {
    let value = parse_json_object(text).map_err(|e| format!("{name}: {e}"))?;
    let JsonValue::Object(entries) = &value else {
        return Err(format!("{name}: top level is not an object"));
    };
    let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    if keys != ["counters", "gauges", "histograms"] {
        return Err(format!(
            "{name}: expected keys counters/gauges/histograms, got {keys:?}"
        ));
    }
    for kind in ["counters", "gauges"] {
        let Some(JsonValue::Object(table)) = value.get(kind) else {
            return Err(format!("{name}: `{kind}` is not an object"));
        };
        for (metric, v) in table {
            if v.as_u64().is_none() {
                return Err(format!("{name}: {kind} `{metric}` is not a u64"));
            }
        }
    }
    let Some(JsonValue::Object(hists)) = value.get("histograms") else {
        return Err(format!("{name}: `histograms` is not an object"));
    };
    for (metric, h) in hists {
        for field in ["count", "sum", "min", "max"] {
            if h.get(field).and_then(JsonValue::as_u64).is_none() {
                return Err(format!("{name}: histogram `{metric}` lacks u64 `{field}`"));
            }
        }
    }
    Ok(())
}

/// Collects every `BENCH_*.json` metric dump in `dir` into one
/// versioned summary document. Each dump is schema-checked (a single
/// object with counters/gauges/histograms tables of the right shapes)
/// and embedded verbatim under its bench name
/// (`BENCH_corpus_create.json` → `corpus_create`). Returns the summary
/// JSON and the list of bench names indexed, in name order. Errors when
/// no dump is found or any dump fails validation — a malformed dump
/// must fail the CI step, not vanish from the summary.
pub fn index_bench_files(dir: &Path) -> Result<(String, Vec<String>), String> {
    let mut dumps: Vec<(String, String)> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let file = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = file
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        if stem == "summary" {
            continue; // never index a previous summary into itself
        }
        let text = std::fs::read_to_string(entry.path()).map_err(|e| format!("{file}: {e}"))?;
        check_bench_dump(&file, &text)?;
        dumps.push((stem.to_string(), text.trim().to_string()));
    }
    if dumps.is_empty() {
        return Err(format!("no BENCH_*.json dumps under {}", dir.display()));
    }
    dumps.sort();
    let names: Vec<String> = dumps.iter().map(|(n, _)| n.clone()).collect();
    let mut s = format!(
        "{{\"v\":{BENCH_SUMMARY_VERSION},\"schema\":\"{BENCH_SUMMARY_SCHEMA}\",\"benches\":{{"
    );
    for (i, (name, text)) in dumps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{}:{text}", ksplice_core::trace::json_escape(name)));
    }
    s.push_str("}}");
    // The summary must satisfy its own schema before it ships.
    check_summary(&s)?;
    Ok((s, names))
}

/// Checks that every required bench name is present among the indexed
/// ones — `bench-index --require fleet` fails CI when a bench silently
/// stopped producing its dump instead of shipping a summary without it.
pub fn require_benches(names: &[String], required: &[String]) -> Result<(), String> {
    let missing: Vec<&str> = required
        .iter()
        .filter(|r| !names.iter().any(|n| n == *r))
        .map(String::as_str)
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "required bench dump(s) missing: {} (have: {})",
            missing.join(", "),
            names.join(", ")
        ))
    }
}

/// Validates a `BENCH_summary.json` document: version, schema tag, and
/// a non-empty `benches` table whose entries each pass the per-dump
/// schema check.
pub fn check_summary(text: &str) -> Result<(), String> {
    let value = parse_json_object(text).map_err(|e| format!("summary: {e}"))?;
    if value.get("v").and_then(JsonValue::as_u64) != Some(BENCH_SUMMARY_VERSION) {
        return Err(format!("summary: `v` is not {BENCH_SUMMARY_VERSION}"));
    }
    if value.get("schema").and_then(JsonValue::as_str) != Some(BENCH_SUMMARY_SCHEMA) {
        return Err(format!("summary: `schema` is not {BENCH_SUMMARY_SCHEMA:?}"));
    }
    let Some(JsonValue::Object(benches)) = value.get("benches") else {
        return Err("summary: `benches` is not an object".to_string());
    };
    if benches.is_empty() {
        return Err("summary: `benches` is empty".to_string());
    }
    for (name, dump) in benches {
        // Re-render the embedded dump through the same per-dump check by
        // validating its shape in place.
        let JsonValue::Object(entries) = dump else {
            return Err(format!("summary: bench `{name}` is not an object"));
        };
        let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if keys != ["counters", "gauges", "histograms"] {
            return Err(format!("summary: bench `{name}` has keys {keys:?}"));
        }
    }
    Ok(())
}

/// Boots the evaluation kernel the way a distributor ships it.
pub fn boot_eval_kernel() -> Kernel {
    Kernel::boot(&base_tree(), &Options::distro()).expect("base tree boots")
}

/// A small, representative CVE used by the timing benches (single
/// function, no custom code).
pub fn small_cve() -> Cve {
    corpus()
        .into_iter()
        .find(|c| c.id == "CVE-2005-4639")
        .expect("corpus entry")
}

/// Builds the shippable update pack for a CVE against the base tree.
pub fn pack_for(case: &Cve) -> (UpdatePack, SourceTree) {
    shippable_update(case, &BuildCache::new(), &mut Tracer::disabled()).expect("create")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ksplice-bench-index-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn index_collects_and_versions_bench_dumps() {
        let dir = scratch_dir("ok");
        let mut tracer = ksplice_core::Tracer::new();
        tracer.count("bench.profile_ms", 41);
        std::fs::write(dir.join("BENCH_profile.json"), tracer.metrics_json()).unwrap();
        let mut other = ksplice_core::Tracer::new();
        other.count("bench.create_warm_ms", 7);
        std::fs::write(dir.join("BENCH_corpus_create.json"), other.metrics_json()).unwrap();
        // A stale summary and an unrelated file are both skipped.
        std::fs::write(dir.join("BENCH_summary.json"), "{}").unwrap();
        std::fs::write(dir.join("notes.txt"), "not a dump").unwrap();

        let (summary, names) = index_bench_files(&dir).unwrap();
        assert_eq!(names, ["corpus_create", "profile"]);
        check_summary(&summary).unwrap();
        let value = parse_json_object(&summary).unwrap();
        assert_eq!(value.get("v").and_then(JsonValue::as_u64), Some(BENCH_SUMMARY_VERSION));
        let profile = value.get("benches").and_then(|b| b.get("profile")).unwrap();
        let ms = profile
            .get("counters")
            .and_then(|c| c.get("bench.profile_ms"))
            .and_then(JsonValue::as_u64);
        assert_eq!(ms, Some(41));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn required_benches_are_enforced() {
        let names = vec!["fleet".to_string(), "smp".to_string()];
        require_benches(&names, &["fleet".to_string()]).unwrap();
        require_benches(&names, &[]).unwrap();
        let err = require_benches(&names, &["vm".to_string()]).unwrap_err();
        assert!(err.contains("vm") && err.contains("fleet, smp"), "{err}");
    }

    #[test]
    fn index_rejects_malformed_dumps() {
        let dir = scratch_dir("bad");
        std::fs::write(dir.join("BENCH_broken.json"), "{\"counters\":{}}").unwrap();
        let err = index_bench_files(&dir).unwrap_err();
        assert!(err.contains("BENCH_broken.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();

        let empty = scratch_dir("empty");
        assert!(index_bench_files(&empty).unwrap_err().contains("no BENCH_"));
        std::fs::remove_dir_all(&empty).ok();
    }
}
