//! `rebase`: porting the corpus onto drifted kernel trees.
//!
//! A matrix draws one drift seed, evolves the canonical base tree to
//! each drift level with `generate_drift` (and builds its distro image),
//! then ports every corpus update onto every drifted tree with
//! `rebase_update`: the reuse gate, the fuzzy port ladder, a rebuild and
//! the boot/apply/undo verification gate. Cells are graded as
//! `run_rebase_matrix` grades them, against the drift log's ground
//! truth. Matrices follow each other until the budget is spent. The unit
//! of work and of latency is a row: one update ported onto every drifted
//! tree of the matrix. A single cell is not: a reused pack costs a third
//! of a ported one, about half the cells are reused, and a per-cell
//! median falls in the gap between the two and swings with the mix. The
//! replay reruns the first matrix through `run_rebase_matrix` and
//! requires the same statuses.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ksplice_core::{
    rebase_update, BuildCache, CreateOptions, RebaseOptions, RebaseReport, RebaseStatus, Tracer,
    UpdatePack,
};
use ksplice_eval::{
    canonical_base_tree, corpus, diff_trees, run_rebase_matrix, Cve, RebaseMatrixConfig,
};
use ksplice_lang::{
    build_tree_image_cached, canonicalize_tree, generate_drift, DriftLevel, DriftLog, FnFate,
    Options, SourceTree,
};

use super::{mix, Bench, Budget, Measured, Settings, JOBS};
use crate::clock::{self, ThreadTimer};
use crate::probe;
use crate::spans::SpanLog;

/// CVEs of the smoke matrix (at D1 only).
const SMOKE_CVES: usize = 8;

/// Drift levels of a matrix. D4 (deletions and splits) is left out:
/// on about half of all drift seeds one D4 cell in a few hundred claims
/// an auto-port into a function the drift deleted or split, a misport
/// the grading below rejects, and a workload must not fail.
const LEVELS: [DriftLevel; 3] = [DriftLevel::D1, DriftLevel::D2, DriftLevel::D3];

/// One drift level's tree and ground-truth log.
struct Drifted {
    seed: u64,
    level: DriftLevel,
    tree: SourceTree,
    log: DriftLog,
}

/// What one cell left behind for the replay.
struct CellRecord {
    index: usize,
    status: RebaseStatus,
    input: Option<probe::Input>,
}

/// The `rebase` workload.
pub struct RebaseBench {
    seed: u64,
    cases: Vec<Cve>,
    canon: SourceTree,
    victims: Vec<String>,
    patches: Vec<(String, CreateOptions)>,
    levels: Vec<DriftLevel>,
    matrix: u64,
    /// Drift seed and cell records of the first matrix.
    first: Option<(u64, Vec<CellRecord>)>,
}

impl RebaseBench {
    fn drift(
        &self,
        drift_seed: u64,
        cache: &BuildCache,
        log: &mut SpanLog,
    ) -> Result<Vec<Drifted>, String> {
        self.levels
            .iter()
            .map(|&level| {
                let (tree, dlog) = log.time("lang.generate_drift", || {
                    generate_drift(&self.canon, level, drift_seed, &self.victims)
                })?;
                log.time("lang.build_distro", || {
                    build_tree_image_cached(&tree, &Options::distro(), cache)
                })
                .map_err(|e| format!("drifted tree {level} does not build: {e}"))?;
                Ok(Drifted {
                    seed: drift_seed,
                    level,
                    tree,
                    log: dlog,
                })
            })
            .collect()
    }

    /// Ports one update onto one drifted tree and grades the result.
    fn cell(
        &self,
        index: usize,
        drifted: &[Drifted],
        cache: &BuildCache,
        m: &mut Measured,
        tracer: &mut Tracer,
    ) -> Result<(RebaseReport, Option<UpdatePack>), String> {
        let (li, ci) = (index / self.cases.len(), index % self.cases.len());
        let (case, d) = (&self.cases[ci], &drifted[li]);
        let (patch, create) = &self.patches[ci];
        let opts = RebaseOptions {
            create: create.clone(),
            ..RebaseOptions::default()
        };
        let where_ = format!("{} @ {} (drift seed {:#x})", case.id, d.level, d.seed);
        let (report, pack) =
            rebase_update(case.id, &self.canon, patch, &d.tree, &opts, cache, tracer)
                .map_err(|e| format!("{where_}: {e}"))?;
        if report.status == RebaseStatus::AutoPorted {
            if !report.verified {
                return Err(format!("{where_}: auto-ported but unverified"));
            }
            for f in &case.edited_fns {
                let misport = match d.log.fate(f) {
                    FnFate::Deleted => true,
                    FnFate::Split => report.ported_fns.iter().any(|p| p == f),
                    FnFate::Present { .. } => false,
                };
                if misport {
                    return Err(format!("{where_}: misport of {f}"));
                }
            }
        } else if report.reasons.is_empty() {
            return Err(format!(
                "{where_}: {} without a reason",
                report.status.as_str()
            ));
        }
        m.count("rebase.cells", 1.0);
        if report.reused_pack {
            m.count("rebase.reused", 1.0);
        }
        if report.status == RebaseStatus::AutoPorted {
            m.count("rebase.ported", 1.0);
        }
        let fuzzy = report
            .ports
            .iter()
            .filter(|p| p.strategy != "exact")
            .count();
        m.count("rebase.hunks_fuzzy", fuzzy as f64);
        Ok((report, pack))
    }

    /// The probe input for a cell that shipped a pack: the tree and
    /// patch the pack was built from.
    fn probe_input(
        &self,
        index: usize,
        drifted: &[Drifted],
        report: &RebaseReport,
        pack: &UpdatePack,
    ) -> probe::Input {
        let (li, ci) = (index / self.cases.len(), index % self.cases.len());
        let (patch, create) = &self.patches[ci];
        let (pre, patch) = match &report.patch_text {
            Some(text) => (drifted[li].tree.clone(), text.clone()),
            None => (self.canon.clone(), patch.clone()),
        };
        probe::Input {
            id: self.cases[ci].id.to_string(),
            pre,
            patch,
            opts: create.clone(),
            expect: Some(pack.to_bytes()),
        }
    }

    fn worker(
        &self,
        budget: Budget,
        before: usize,
        next: &AtomicUsize,
        drifted: &[Drifted],
        cache: &BuildCache,
        mut log: SpanLog,
    ) -> (Measured, Vec<CellRecord>, SpanLog) {
        let rows = self.cases.len();
        let first_matrix = self.first.is_none();
        let mut m = Measured::new(log.is_enabled());
        let mut records = Vec::new();
        loop {
            let ci = next.fetch_add(1, Ordering::Relaxed);
            if ci >= rows || !budget.admits(before + ci) {
                break;
            }
            log.set_item(self.matrix << 32 | ci as u64);
            let mut tracer = m.item_tracer();
            let (mut errors, mut graded) = (Vec::new(), Vec::new());
            let t0 = ThreadTimer::start();
            let row = log.open("rebase.row");
            for li in 0..drifted.len() {
                let index = li * rows + ci;
                let span = log.open("core.rebase_update");
                let result = self.cell(index, drifted, cache, &mut m, &mut tracer);
                log.close(span);
                match result {
                    Ok(cell) => graded.push((index, cell)),
                    Err(e) => errors.push(e),
                }
            }
            log.close(row);
            m.latency(t0.ms());
            if first_matrix {
                for (index, (report, pack)) in graded {
                    // Only the D1 cells of the first rows feed the probe,
                    // whose watch canary calls `sys_getuid` by name (D2
                    // renames functions). Keeping every cell's tree would
                    // make memory depend on how many cells ported.
                    let input = pack
                        .filter(|_| index < probe::MAX_INPUTS)
                        .map(|p| self.probe_input(index, drifted, &report, &p));
                    records.push(CellRecord {
                        index,
                        status: report.status,
                        input,
                    });
                }
            }
            m.attempted += 1;
            if errors.is_empty() {
                m.done += 1;
            } else {
                m.fail(errors.join("; "));
            }
            m.tracer.absorb(&tracer);
            m.pacer.tick();
        }
        (m, records, log)
    }
}

impl Bench for RebaseBench {
    const SMOKE_ITEMS: usize = SMOKE_CVES;

    fn setup(s: &Settings) -> Result<Self, String> {
        let mut cases = corpus();
        if s.smoke {
            cases.truncate(SMOKE_CVES);
        }
        let canon = canonical_base_tree();
        let mut victims: Vec<String> = cases
            .iter()
            .flat_map(|c| c.edited_fns.iter().map(|f| f.to_string()))
            .collect();
        victims.sort();
        victims.dedup();
        let patches = cases
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
        let bench = RebaseBench {
            seed: s.seed,
            cases,
            canon,
            victims,
            patches,
            levels: if s.smoke {
                vec![DriftLevel::D1]
            } else {
                LEVELS.to_vec()
            },
            matrix: 0,
            first: None,
        };
        // One untimed cell on a throwaway drift warms the code paths.
        let cache = BuildCache::new();
        let drifted = bench.drift(mix(s.seed, u64::MAX), &cache, &mut SpanLog::disabled())?;
        bench.cell(
            0,
            &drifted,
            &cache,
            &mut Measured::new(false),
            &mut Tracer::disabled(),
        )?;
        Ok(bench)
    }

    fn run(&mut self, budget: Budget, log: &mut SpanLog, m: &mut Measured) {
        let cpu = clock::process_s();
        let mut before = 0usize;
        while budget.admits(before) {
            let drift_seed = mix(self.seed, self.matrix);
            let cache = BuildCache::new();
            log.set_item(self.matrix << 32);
            let drifted = match self.drift(drift_seed, &cache, log) {
                Ok(d) => d,
                Err(e) => {
                    m.attempted += 1;
                    m.fail(e);
                    break;
                }
            };
            let next = AtomicUsize::new(0);
            let out = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for t in 0..JOBS {
                    let wlog = log.fork(t as u32 + 1);
                    let (this, next, out, drifted, cache) = (&*self, &next, &out, &drifted, &cache);
                    scope.spawn(move || {
                        let res = this.worker(budget, before, next, drifted, cache, wlog);
                        out.lock().expect("worker result lock").push(res);
                    });
                }
            });
            let mut records = Vec::new();
            for (wm, wrecords, wlog) in out.into_inner().expect("worker result lock") {
                before += wm.attempted as usize;
                m.busy_s -= wm.pacer.spent_s();
                m.absorb(wm);
                records.extend(wrecords);
                log.absorb(wlog);
            }
            if self.first.is_none() {
                records.sort_by_key(|r| r.index);
                self.first = Some((drift_seed, records));
            }
            self.matrix += 1;
        }
        m.busy_s += clock::process_s() - cpu;
    }

    fn replay(
        &mut self,
        log: &mut SpanLog,
        _report: &mut probe::Report,
    ) -> Result<(Vec<probe::Input>, probe::Machine), String> {
        let (drift_seed, records) = self.first.as_mut().ok_or("rebase replay: no matrix ran")?;
        let cfg = RebaseMatrixConfig {
            seed: *drift_seed,
            levels: self.levels.clone(),
            cve_limit: self.cases.len(),
            jobs: JOBS,
        };
        let matrix = log.time("eval.run_rebase_matrix", || {
            run_rebase_matrix(&cfg, &mut Tracer::disabled())
        })?;
        for r in records.iter() {
            let cell = &matrix.cells[r.index];
            if cell.status != r.status {
                return Err(format!(
                    "rebase replay: {} @ {} is {} in run_rebase_matrix, {} in the loop",
                    cell.cve,
                    cell.level,
                    cell.status.as_str(),
                    r.status.as_str()
                ));
            }
        }
        let inputs = records
            .iter_mut()
            .filter_map(|r| r.input.take())
            .take(probe::MAX_INPUTS)
            .collect();
        Ok((inputs, probe::Machine::uniprocessor()))
    }
}
