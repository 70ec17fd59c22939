//! The rebase evaluation matrix: 64 corpus CVEs × 4 drift levels.
//!
//! The paper's 56/64 table measures patches built against the *exact*
//! running tree. This matrix takes the axis one step deeper: for each
//! drift level D1–D4 ([`DriftLevel`]) the base tree is evolved by the
//! seeded drift generator, and every corpus update is ported onto the
//! drifted tree by the [`ksplice_core::rebase`] pipeline. Each cell is
//! classified auto-ported / manual-fix-needed / rejected, auto-port
//! success is attributed per mutator class, and — crucially — the
//! drift generator's ground-truth log is cross-checked against the
//! functions each port actually patched, so a silent wrong-function
//! patch can never count as a success.
//!
//! Everything is seeded and deterministic: the same
//! [`RebaseMatrixConfig`] produces a byte-identical [`RebaseMatrix`]
//! render, which CI pins with a two-run `cmp`.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use ksplice_core::{
    diff_trees, rebase_update, BuildCache, CreateOptions, RebaseOptions, RebaseStatus, Tracer,
};
use ksplice_lang::{
    build_tree_cached, canonicalize_tree, generate_drift, DriftClass, DriftLevel, DriftLog,
    Options, SourceTree,
};
use ksplice_patch::Patch;

use crate::corpus::{corpus, Cve};
use crate::tree::canonical_base_tree;
use crate::pool::{default_eval_jobs, par_map};

/// Shape of one matrix run.
#[derive(Debug, Clone)]
pub struct RebaseMatrixConfig {
    /// Drift-generator seed; every level derives its own stream from it.
    pub seed: u64,
    /// Drift levels to sweep (columns of the matrix).
    pub levels: Vec<DriftLevel>,
    /// Number of corpus CVEs to run, in corpus order (0 = all 64).
    pub cve_limit: usize,
    /// Worker threads (0 = one per hardware thread).
    pub jobs: usize,
}

impl Default for RebaseMatrixConfig {
    fn default() -> RebaseMatrixConfig {
        RebaseMatrixConfig {
            seed: 0xd41f_75ee,
            levels: DriftLevel::ALL.to_vec(),
            cve_limit: 0,
            jobs: 0,
        }
    }
}

impl RebaseMatrixConfig {
    /// The CI smoke shape: 8 CVEs × {D1, D2}.
    pub fn smoke() -> RebaseMatrixConfig {
        RebaseMatrixConfig {
            cve_limit: 8,
            levels: vec![DriftLevel::D1, DriftLevel::D2],
            ..RebaseMatrixConfig::default()
        }
    }
}

/// One (CVE, drift-level) cell.
#[derive(Debug, Clone)]
pub struct RebaseCell {
    /// CVE identifier.
    pub cve: &'static str,
    /// Drift level of the column.
    pub level: DriftLevel,
    /// The pipeline's verdict.
    pub status: RebaseStatus,
    /// The original pack still run-pre-matched the drifted kernel.
    pub reused: bool,
    /// The apply + checksum-verified-undo gate passed.
    pub verified: bool,
    /// Ladder strategies used across the cell's hunks (sorted, unique).
    pub strategies: Vec<&'static str>,
    /// Classified refusal/rejection reasons (empty when auto-ported).
    pub reasons: Vec<String>,
    /// Drift classes that touched this CVE's patched functions or units
    /// (the attribution axis of the per-mutator-class table).
    pub classes: Vec<DriftClass>,
    /// A ground-truth violation: the cell claims auto-ported but the
    /// drift log proves a patched function was deleted or the patch
    /// landed in a split wrapper. Must never happen.
    pub misport: Option<String>,
}

/// Aggregate result of a matrix sweep.
#[derive(Debug, Clone)]
pub struct RebaseMatrix {
    /// Seed the drift streams derived from.
    pub seed: u64,
    /// Levels swept, in order.
    pub levels: Vec<DriftLevel>,
    /// All cells, level-major then corpus order.
    pub cells: Vec<RebaseCell>,
}

impl RebaseMatrix {
    /// Cells of one level, in corpus order.
    pub fn level_cells(&self, level: DriftLevel) -> impl Iterator<Item = &RebaseCell> {
        self.cells.iter().filter(move |c| c.level == level)
    }

    /// Auto-port success rate (percent) at a level.
    pub fn auto_port_rate(&self, level: DriftLevel) -> f64 {
        let (mut auto_ported, mut total) = (0usize, 0usize);
        for c in self.level_cells(level) {
            total += 1;
            if c.status == RebaseStatus::AutoPorted {
                auto_ported += 1;
            }
        }
        100.0 * auto_ported as f64 / total.max(1) as f64
    }

    /// Per-mutator-class attribution: for every drift class, how many
    /// cells it touched and how many of those still auto-ported.
    pub fn class_stats(&self) -> Vec<(DriftClass, usize, usize)> {
        DriftClass::ALL
            .iter()
            .map(|&class| {
                let touched: Vec<&RebaseCell> = self
                    .cells
                    .iter()
                    .filter(|c| c.classes.contains(&class))
                    .collect();
                let ported = touched
                    .iter()
                    .filter(|c| c.status == RebaseStatus::AutoPorted)
                    .count();
                (class, touched.len(), ported)
            })
            .filter(|(_, touched, _)| *touched > 0)
            .collect()
    }

    /// Cells violating the ground truth (must be empty).
    pub fn misports(&self) -> Vec<&RebaseCell> {
        self.cells.iter().filter(|c| c.misport.is_some()).collect()
    }

    /// Non-auto-ported cells lacking a classified reason (must be
    /// empty: every refusal names why).
    pub fn unclassified(&self) -> Vec<&RebaseCell> {
        self.cells
            .iter()
            .filter(|c| c.status != RebaseStatus::AutoPorted && c.reasons.is_empty())
            .collect()
    }

    /// Deterministic human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== rebase matrix (seed {:#x}) ==", self.seed);
        let cvs = self.cells.len() / self.levels.len().max(1);
        let _ = writeln!(s, "{} CVEs x {} drift levels", cvs, self.levels.len());
        for &level in &self.levels {
            let auto_ported = self
                .level_cells(level)
                .filter(|c| c.status == RebaseStatus::AutoPorted)
                .count();
            let reused = self.level_cells(level).filter(|c| c.reused).count();
            let _ = writeln!(
                s,
                "{}: {auto_ported}/{cvs} auto-ported ({:.1}%), {reused} by pack reuse",
                level.name(),
                self.auto_port_rate(level),
            );
        }
        let _ = writeln!(s, "\n-- auto-port rate by drift class --");
        for (class, touched, ported) in self.class_stats() {
            let _ = writeln!(
                s,
                "{:<16} {ported}/{touched} cells auto-ported",
                class.name()
            );
        }
        let _ = writeln!(s, "\n-- non-auto-ported cells --");
        for c in &self.cells {
            if c.status == RebaseStatus::AutoPorted {
                continue;
            }
            let _ = writeln!(s, "{} @ {}: {}", c.cve, c.level.name(), c.status.as_str());
            for r in &c.reasons {
                let _ = writeln!(s, "    {r}");
            }
        }
        for c in self.misports() {
            let _ = writeln!(
                s,
                "MISPORT {} @ {}: {}",
                c.cve,
                c.level.name(),
                c.misport.as_deref().unwrap_or("")
            );
        }
        s
    }

    /// Deterministic JSON for the CLI's `--json` flag (pinned in
    /// `crates/eval/pins/rebase-matrix.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(
            s,
            "  \"levels\": [{}],",
            self.levels
                .iter()
                .map(|l| format!("\"{}\"", l.name()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        s.push_str("  \"auto_port_rate\": {");
        let rates: Vec<String> = self
            .levels
            .iter()
            .map(|&l| format!("\"{}\": {:.1}", l.name(), self.auto_port_rate(l)))
            .collect();
        s.push_str(&rates.join(", "));
        s.push_str("},\n");
        s.push_str("  \"class_stats\": {");
        let stats: Vec<String> = self
            .class_stats()
            .iter()
            .map(|(c, touched, ported)| {
                format!("\"{}\": {{\"touched\": {touched}, \"ported\": {ported}}}", c.name())
            })
            .collect();
        s.push_str(&stats.join(", "));
        s.push_str("},\n");
        let _ = writeln!(s, "  \"misports\": {},", self.misports().len());
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"cve\": \"{}\", \"level\": \"{}\", \"status\": \"{}\", \
                 \"reused\": {}, \"verified\": {}, \"strategies\": [{}], \"reasons\": {}}}{comma}",
                c.cve,
                c.level.name(),
                c.status.as_str(),
                c.reused,
                c.verified,
                c.strategies
                    .iter()
                    .map(|st| format!("\"{st}\""))
                    .collect::<Vec<_>>()
                    .join(", "),
                c.reasons.len(),
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Runs the matrix: drift the base per level, rebase every corpus
/// update onto each drifted tree, cross-check against ground truth.
pub fn run_rebase_matrix(
    cfg: &RebaseMatrixConfig,
    tracer: &mut Tracer,
) -> Result<RebaseMatrix, String> {
    let mut cases = corpus();
    if cfg.cve_limit > 0 {
        cases.truncate(cfg.cve_limit);
    }
    let canon = canonical_base_tree();
    let cache = BuildCache::new();

    // Ground-truth drift victims: every function any corpus patch
    // edits, so the D4 delete/split ops actually exercise the
    // negative paths.
    let mut victims: Vec<String> = cases
        .iter()
        .flat_map(|c| c.edited_fns.iter().map(|f| f.to_string()))
        .collect();
    victims.sort();
    victims.dedup();

    // One drifted tree per level; the distro image is built (and
    // cached) up front so workers never duplicate the compile.
    let mut drifted: Vec<(SourceTree, DriftLog)> = Vec::new();
    for &level in &cfg.levels {
        let (tree, log) = generate_drift(&canon, level, cfg.seed, &victims)?;
        build_tree_cached(&tree, &Options::distro(), &cache)
            .map_err(|e| format!("drifted tree {level} does not build: {e}"))?;
        drifted.push((tree, log));
    }

    // Patches are recomputed in canonical space: the drift generator
    // pretty-prints its output, so the original raw-text diffs would
    // read formatting as drift.
    let patches: Vec<(String, CreateOptions)> = cases
        .iter()
        .map(|case| {
            let patched = if case.needs_custom_code() {
                case.patched_tree_with_custom()
            } else {
                case.patched_tree()
            };
            let opts = CreateOptions {
                accept_data_changes: case.needs_custom_code(),
                ..CreateOptions::default()
            };
            (diff_trees(&canon, &canonicalize_tree(&patched)), opts)
        })
        .collect();

    // Fan the (level, cve) cells out over the shared worker pool; the
    // first failing cell in index order is the one reported.
    let total = cfg.levels.len() * cases.len();
    let jobs = if cfg.jobs == 0 {
        default_eval_jobs()
    } else {
        cfg.jobs
    };
    let run_one = |i: usize, tracer: &mut Tracer| -> Result<RebaseCell, String> {
        let (li, ci) = (i / cases.len(), i % cases.len());
        let case = &cases[ci];
        let (tree, log) = &drifted[li];
        let (patch_text, create_opts) = &patches[ci];
        run_cell(
            case,
            cfg.levels[li],
            patch_text,
            create_opts,
            &canon,
            tree,
            log,
            &cache,
            tracer,
        )
    };

    let cells = par_map((0..total).collect(), jobs, tracer, run_one)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RebaseMatrix {
        seed: cfg.seed,
        levels: cfg.levels.clone(),
        cells,
    })
}

/// One cell: rebase the update, then grade the outcome against the
/// drift log's ground truth.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    case: &Cve,
    level: DriftLevel,
    patch_text: &str,
    create_opts: &CreateOptions,
    canon: &SourceTree,
    tree: &SourceTree,
    log: &DriftLog,
    cache: &BuildCache,
    tracer: &mut Tracer,
) -> Result<RebaseCell, String> {
    let opts = RebaseOptions {
        create: create_opts.clone(),
    };
    let (report, _pack) = rebase_update(case.id, canon, patch_text, tree, &opts, cache, tracer)
        .map_err(|e| format!("{} @ {level}: {e}", case.id))?;

    // Drift-class attribution: ops in this CVE's patched units, plus
    // ops whose victim is one of its edited functions.
    let patch = Patch::parse(patch_text).map_err(|e| format!("{} @ {level}: {e}", case.id))?;
    let patched_paths: BTreeSet<&str> = patch.paths().collect();
    let classes: Vec<DriftClass> = {
        let mut set = BTreeSet::new();
        for op in &log.ops {
            if patched_paths.contains(op.unit.as_str())
                || case.edited_fns.iter().any(|f| *f == op.func)
            {
                set.insert(op.class);
            }
        }
        set.into_iter().collect()
    };

    // Ground-truth cross-check: an auto-ported cell must not have
    // patched a deleted function's leftovers nor a split wrapper.
    let mut misport = None;
    if report.status == RebaseStatus::AutoPorted {
        for f in &case.edited_fns {
            match log.fate(f) {
                ksplice_lang::FnFate::Deleted => {
                    misport = Some(format!(
                        "{f} was deleted by drift, yet the cell claims auto-ported"
                    ));
                }
                ksplice_lang::FnFate::Split => {
                    if report.ported_fns.iter().any(|p| p == f) {
                        misport = Some(format!(
                            "{f} was split by drift, yet a hunk landed in the wrapper"
                        ));
                    }
                }
                ksplice_lang::FnFate::Present { .. } => {}
            }
        }
    }

    let mut strategies: Vec<&'static str> =
        report.ports.iter().map(|p| p.strategy).collect();
    strategies.sort();
    strategies.dedup();

    Ok(RebaseCell {
        cve: case.id,
        level,
        status: report.status,
        reused: report.reused_pack,
        verified: report.verified,
        strategies,
        reasons: report.reasons,
        classes,
        misport,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_is_deterministic_and_sound() {
        let cfg = RebaseMatrixConfig::smoke();
        let a = run_rebase_matrix(&cfg, &mut Tracer::disabled()).unwrap();
        let b = run_rebase_matrix(&cfg, &mut Tracer::disabled()).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.misports().is_empty(), "{}", a.render());
        assert!(a.unclassified().is_empty(), "{}", a.render());
        for c in &a.cells {
            if c.status == RebaseStatus::AutoPorted {
                assert!(c.verified, "{} @ {} auto-ported but unverified", c.cve, c.level);
            }
        }
    }
}
