//! `benchmark compare BASE_DIR NEW_DIR`: judges two sets of result files
//! against the bounds of the repository's `BENCHMARK.json`.
//!
//! For each workload × metric it prints each set's first quartile,
//! median and third quartile. Runs of the two sets with the same seed
//! form A/B pairs. The verdict follows the benchmark's rules:
//!
//! * **unresolved** — either set's spread (interquartile range over the
//!   median) is wider than the metric's bound, unless every new run
//!   beats every base run;
//! * **REGRESSION** — the new median is worse than the base median by
//!   more than the metric's `BENCHMARK.json` bound;
//! * **gain** — the new side wins at least 9 of every 10 pairs (ties
//!   count for neither) and the medians differ by more than the base
//!   set's interquartile range;
//! * **ok** — none of the above.
//!
//! Per-layer metrics have no bound and get only the gain test. The
//! exit status is non-zero when any metric regressed or is unresolved.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats;
use crate::workloads::Workload;

/// One metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<SpecMetric>,
}

/// The repository's `BENCHMARK.json`.
pub fn default_spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Reads `BENCHMARK.json`.
pub fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<&[Json], String> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: `{key}` is not a list", path.display()))
    };
    let metrics = |key: &str| -> Result<Vec<SpecMetric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{key}: entry lacks `{f}`"))
                };
                Ok(SpecMetric {
                    name: field("name")?.to_string(),
                    unit: field("unit")?.to_string(),
                    lower_is_better: match field("better")? {
                        "lower" => true,
                        "higher" => false,
                        other => return Err(format!("{key}: better = `{other}`")),
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect(),
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// `(workload, metric) → seed → value`, from one directory of results.
type ResultSet = BTreeMap<(String, String), BTreeMap<u64, f64>>;

fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(seed)) = (
            v.get("workload").and_then(Json::as_str),
            v.get("seed").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let traced = v.get("traced") == Some(&Json::Bool(true));
        // End-to-end numbers come from untraced runs only.
        let sections: &[&str] = if traced {
            &["per_layer"]
        } else {
            &["end_to_end"]
        };
        for section in sections {
            for (metric, m) in v.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(value) = m.get("value").and_then(Json::as_f64) {
                    set.entry((workload.to_string(), metric.clone()))
                        .or_default()
                        .insert(seed as u64, value);
                }
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(set)
}

/// The verdict for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, no gain shown.
    Ok,
    /// Gain by the pair rule.
    Gain,
    /// Worse than the bound allows.
    Regression,
    /// Spread wider than the bound.
    Unresolved,
    /// Per-layer metric without a gain (no bound to judge).
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// Judges one metric from its base and new runs (keyed by seed).
pub fn judge(base: &BTreeMap<u64, f64>, new: &BTreeMap<u64, f64>, spec: &SpecMetric) -> Verdict {
    let a: Vec<f64> = base.values().copied().collect();
    let b: Vec<f64> = new.values().copied().collect();
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (stats::quartiles(&a), stats::quartiles(&b))
    else {
        return Verdict::Unresolved;
    };
    let better = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
    let (mut won, mut pairs) = (0usize, 0usize);
    for (seed, &x) in base {
        if let Some(&y) = new.get(seed) {
            pairs += 1;
            if better(y, x) {
                won += 1;
            }
        }
    }
    let gain = pairs > 0 && won * 10 >= pairs * 9 && (bm - am).abs() > a3 - a1 && better(bm, am);
    let Some(bound) = spec.bound else {
        return if gain {
            Verdict::Gain
        } else {
            Verdict::NoBound
        };
    };
    let spread = |q1: f64, m: f64, q3: f64| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a1, am, a3).max(spread(b1, bm, b3)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse = match (am == 0.0, spec.lower_is_better) {
        (true, _) if bm == am => 0.0,
        (true, _) => f64::INFINITY,
        (false, true) => (bm - am) / am.abs(),
        (false, false) => (am - bm) / am.abs(),
    };
    if worse > bound {
        Verdict::Regression
    } else if gain {
        Verdict::Gain
    } else {
        Verdict::Ok
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.4}")
}

/// The `compare` subcommand.
pub fn main(argv: &[String]) -> ExitCode {
    let [base_dir, new_dir] = argv else {
        eprintln!("usage: benchmark compare BASE_DIR NEW_DIR");
        return ExitCode::from(2);
    };
    let (base_dir, new_dir) = (Path::new(base_dir), Path::new(new_dir));
    let loaded = load_spec(&default_spec_path())
        .and_then(|spec| Ok((spec, load_set(base_dir)?, load_set(new_dir)?)));
    let (spec, base, new) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<9} {:<34} {:<9} {:>32} {:>32} {:>9} {:>7}  verdict",
        "workload",
        "metric",
        "unit",
        "base q1/median/q3 (n)",
        "new q1/median/q3 (n)",
        "change",
        "won"
    );
    let mut failing = 0;
    let order = Workload::ALL.iter().map(|w| w.name().to_string());
    for workload in order.filter(|w| spec.workloads.contains(w)) {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let key = (workload.clone(), m.name.clone());
            let (Some(a), Some(b)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let verdict = judge(a, b, m);
            if matches!(verdict, Verdict::Regression | Verdict::Unresolved) {
                failing += 1;
            }
            let av: Vec<f64> = a.values().copied().collect();
            let bv: Vec<f64> = b.values().copied().collect();
            let q = |v: &[f64]| {
                let (q1, med, q3) = stats::quartiles(v).expect("non-empty");
                (
                    format!("{}/{}/{} ({})", fmt(q1), fmt(med), fmt(q3), v.len()),
                    med,
                )
            };
            let ((at, am), (bt, bm)) = (q(&av), q(&bv));
            let change = if am != 0.0 {
                format!("{:+.1}%", (bm - am) / am.abs() * 100.0)
            } else {
                "-".to_string()
            };
            let pairs = a.keys().filter(|s| b.contains_key(s)).count();
            let won = a
                .iter()
                .filter(|(s, &x)| {
                    b.get(s)
                        .is_some_and(|&y| if m.lower_is_better { y < x } else { y > x })
                })
                .count();
            println!(
                "{:<9} {:<34} {:<9} {:>32} {:>32} {:>9} {:>7}  {}",
                workload,
                m.name,
                m.unit,
                at,
                bt,
                change,
                format!("{won}/{pairs}"),
                verdict.label()
            );
        }
    }
    if failing > 0 {
        println!("{failing} metric(s) regressed or unresolved");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool, bound: Option<f64>) -> SpecMetric {
        SpecMetric {
            name: "m".to_string(),
            unit: "ms".to_string(),
            lower_is_better: lower,
            bound,
        }
    }

    fn runs(values: &[f64]) -> BTreeMap<u64, f64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn steady_equal_sets_are_ok() {
        let a = runs(&[10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]);
        assert_eq!(judge(&a, &a, &metric(true, Some(0.1))), Verdict::Ok);
    }

    #[test]
    fn worse_than_bound_is_a_regression() {
        let a = runs(&[10.0; 10]);
        let b = runs(&[12.0; 10]);
        assert_eq!(judge(&a, &b, &metric(true, Some(0.1))), Verdict::Regression);
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&b, &a, &metric(false, Some(0.1))),
            Verdict::Regression
        );
        assert_eq!(judge(&a, &b, &metric(false, Some(0.1))), Verdict::Gain);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = runs(&[5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]);
        let b = runs(&[5.5, 15.5, 8.5, 12.5, 10.5, 6.5, 14.5, 9.5, 11.5, 10.5]);
        assert_eq!(judge(&a, &b, &metric(true, Some(0.1))), Verdict::Unresolved);
        let far = runs(&[1.0; 10]);
        assert_eq!(judge(&a, &far, &metric(true, Some(0.1))), Verdict::Gain);
    }

    #[test]
    fn gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread() {
        let a = runs(&[10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.0]);
        let mut b: Vec<f64> = a.values().map(|v| v - 1.0).collect();
        assert_eq!(
            judge(&a, &runs(&b), &metric(true, Some(0.2))),
            Verdict::Gain
        );
        b[0] = 11.0;
        b[1] = 11.0;
        assert_eq!(judge(&a, &runs(&b), &metric(true, Some(0.2))), Verdict::Ok);
        // Per-layer metrics: only the gain test applies.
        assert_eq!(judge(&a, &a, &metric(true, None)), Verdict::NoBound);
    }
}
