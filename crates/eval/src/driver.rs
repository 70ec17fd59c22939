//! The end-to-end evaluation driver (paper §6.2–§6.3).
//!
//! For every corpus entry: boot the vulnerable kernel, (optionally) prove
//! the exploit works, build the hot update with `ksplice-create`, apply
//! it to the running kernel, run the correctness-checking stress test,
//! prove the exploit is dead, and reverse the update. The aggregate
//! report regenerates the paper's headline numbers, Figure 3 and
//! Table 1.
//!
//! The driver is built for corpus throughput: one [`BuildCache`] is
//! shared across every CVE so the base tree (both the distro boot image
//! and the pre build) is compiled exactly once per process and each post
//! build recompiles only the patched units, and
//! [`run_full_evaluation_jobs`] fans the corpus out over
//! `std::thread::scope` workers — each CVE gets its own [`Kernel`], each
//! worker its own [`Tracer`] merged back via [`Tracer::absorb`] after
//! join, and outcome ordering is deterministic regardless of worker
//! interleaving.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ksplice_core::{create_update_cached_traced, ApplyOptions, BuildCache, CreateOptions, Ksplice, Tracer};
use ksplice_kernel::Kernel;
use ksplice_lang::{build_tree_image_cached, Options, SourceTree};
use ksplice_object::ObjectSet;
use ksplice_patch::Patch;

use crate::corpus::{corpus, CustomReason, Cve};
use crate::exploits::run_exploit;
use crate::stats::{corpus_stats, figure3_buckets, symbol_stats, CorpusStats, SymbolStats};
use crate::stress::{load_stress_cached, run_stress};
use crate::tree::base_tree;

/// The result of running one CVE end to end.
#[derive(Debug, Clone)]
pub struct CveOutcome {
    /// CVE identifier.
    pub id: &'static str,
    /// Changed lines in the plain security patch (Figure 3's metric).
    pub patch_loc: usize,
    /// Whether the entry is one of Table 1's custom-code cases.
    pub needs_custom_code: bool,
    /// Logical lines of custom code (0 when none).
    pub custom_lines: u32,
    /// Why custom code was needed, when it was.
    pub custom_reason: Option<CustomReason>,
    /// Did the plain patch apply without programmer involvement?
    pub plain_applied: bool,
    /// Did the shippable patch (with custom code when needed) apply?
    pub applied: bool,
    /// Functions the shippable update replaced.
    pub replaced_fns: usize,
    /// The stress workload survived across the apply.
    pub stress_ok: bool,
    /// Exploit verdict pre-apply (`None` when the entry has no exploit).
    pub exploit_before: Option<bool>,
    /// Exploit verdict post-apply.
    pub exploit_after: Option<bool>,
    /// The update reversed cleanly afterwards.
    pub undo_ok: bool,
    /// stop_machine pause for the apply (paper: ~0.7 ms).
    pub pause: Duration,
    /// stop_machine attempts before the safety check passed (§5.2).
    pub attempts: u32,
    /// stop_machine attempts for the reversal (0 when the undo failed),
    /// from the same [`ksplice_core::UndoReport`] as its pause.
    pub undo_attempts: u32,
    /// Size of the helper (run-pre) module's object.
    pub helper_bytes: usize,
    /// Size of the primary (replacement-code) module's object.
    pub primary_bytes: usize,
}

/// Runs one corpus entry end to end (fresh cache, no tracing).
pub fn run_cve(case: &Cve, stress_rounds: u64) -> Result<CveOutcome, String> {
    run_cve_cached(case, stress_rounds, &BuildCache::new(), &mut Tracer::disabled())
}

/// [`run_cve`] through a shared [`BuildCache`], with cache and apply
/// counters on `tracer`.
pub fn run_cve_cached(
    case: &Cve,
    stress_rounds: u64,
    cache: &BuildCache,
    tracer: &mut Tracer,
) -> Result<CveOutcome, String> {
    let base = base_tree();
    let image = distro_image(&base, cache)?;
    baseline_stress_check(&image, cache, stress_rounds)
        .map_err(|e| format!("{}: {e}", case.id))?;
    run_cve_with(
        case,
        stress_rounds,
        &base,
        &image,
        cache,
        &ApplyOptions::default(),
        tracer,
    )
}

/// Proves the *unpatched* kernel passes the stress test. One freshly
/// booted image is as good as another, so the full evaluation runs this
/// once instead of once per CVE.
fn baseline_stress_check(
    image: &ObjectSet,
    cache: &BuildCache,
    stress_rounds: u64,
) -> Result<(), String> {
    let mut kernel = Kernel::boot_image(image).map_err(|e| format!("boot: {e}"))?;
    let entry = load_stress_cached(&mut kernel, cache)?;
    run_stress(&mut kernel, entry, stress_rounds.min(5)).map_err(|e| format!("baseline {e}"))
}

/// Builds the distro (run) kernel image through the cache, so 64 boots
/// cost one compile of the tree.
pub(crate) fn distro_image(base: &SourceTree, cache: &BuildCache) -> Result<ObjectSet, String> {
    build_tree_image_cached(base, &Options::distro(), cache)
        .map(|(set, _)| set)
        .map_err(|e| format!("boot: {e}"))
}

/// The worker body: one CVE end to end against a prebuilt boot image and
/// a shared build cache.
fn run_cve_with(
    case: &Cve,
    stress_rounds: u64,
    base: &SourceTree,
    image: &ObjectSet,
    cache: &BuildCache,
    apply_opts: &ApplyOptions,
    tracer: &mut Tracer,
) -> Result<CveOutcome, String> {
    let mut kernel = Kernel::boot_image(image).map_err(|e| format!("boot: {e}"))?;
    // Gated on cpus > 1 so the default path never re-homes threads —
    // the N = 1 corpus output stays byte-identical to the historical
    // uniprocessor driver.
    if apply_opts.smp.cpus > 1 {
        kernel.configure_smp(apply_opts.smp.clone());
    }
    let stress_entry = load_stress_cached(&mut kernel, cache)?;

    let exploit_before = run_exploit(&mut kernel, case);
    if let Some(worked) = exploit_before {
        if !worked {
            return Err(format!("{}: exploit should work pre-patch", case.id));
        }
    }

    // First, the §2 check: does the *plain* patch make it through
    // ksplice-create with no programmer involvement?
    let plain_patch = case.patch_text();
    let patch_loc = Patch::parse(&plain_patch)
        .map(|p| p.changed_line_count())
        .map_err(|e| format!("{}: {e}", case.id))?;
    let plain = create_update_cached_traced(
        case.id,
        base,
        &plain_patch,
        &CreateOptions::default(),
        cache,
        tracer,
    );
    let plain_applied = plain.is_ok();

    // The shippable update: with custom code (and the programmer's
    // data-semantics sign-off) when the corpus says it is needed.
    let (pack, _patched) = if case.needs_custom_code() {
        let opts = CreateOptions {
            accept_data_changes: true,
            ..CreateOptions::default()
        };
        create_update_cached_traced(case.id, base, &case.full_patch_text(), &opts, cache, tracer)
            .map_err(|e| format!("{}: create: {e}", case.id))?
    } else {
        plain.map_err(|e| format!("{}: create: {e}", case.id))?
    };

    let mut ks = Ksplice::new();
    let report = ks
        .apply_traced(&mut kernel, &pack, apply_opts, tracer)
        .map_err(|e| format!("{}: apply: {e}", case.id))?;
    // Both numbers come from the same ApplyReport: the pause and the
    // attempt count describe the same successful stop_machine window.
    let pause = report.pause;

    let stress_ok = run_stress(&mut kernel, stress_entry, stress_rounds).is_ok();
    let exploit_after = run_exploit(&mut kernel, case);

    let undo_report = ks.undo_any_traced(&mut kernel, case.id, apply_opts, tracer);
    let undo_ok = undo_report.is_ok();
    let undo_attempts = undo_report.map(|r| r.attempts).unwrap_or(0);

    Ok(CveOutcome {
        id: case.id,
        patch_loc,
        needs_custom_code: case.needs_custom_code(),
        custom_lines: case.custom.as_ref().map(|c| c.lines).unwrap_or(0),
        custom_reason: case.custom.as_ref().map(|c| c.reason),
        plain_applied,
        applied: true,
        replaced_fns: pack.replaced_fn_count(),
        stress_ok,
        exploit_before,
        exploit_after,
        undo_ok,
        pause,
        attempts: report.attempts,
        undo_attempts,
        helper_bytes: pack.helper_size(),
        primary_bytes: pack.primary_size(),
    })
}

/// The full evaluation: every CVE plus the aggregate statistics.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Per-CVE outcomes, in corpus order.
    pub outcomes: Vec<CveOutcome>,
    /// Kallsyms ambiguity measurements (§6.3).
    pub symbol_stats: SymbolStats,
    /// Aggregate patch-size and custom-code statistics.
    pub corpus_stats: CorpusStats,
}

impl EvalReport {
    /// Headline: CVEs applied with no new code (paper: 56 of 64).
    pub fn applied_without_new_code(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.plain_applied && !o.needs_custom_code)
            .count()
    }

    /// Headline: CVEs applied in total (paper: 64 of 64).
    pub fn applied_total(&self) -> usize {
        self.outcomes.iter().filter(|o| o.applied).count()
    }

    /// Average custom-code lines over the Table-1 entries (paper: ~17).
    pub fn average_custom_lines(&self) -> f64 {
        let custom: Vec<u32> = self
            .outcomes
            .iter()
            .filter(|o| o.needs_custom_code)
            .map(|o| o.custom_lines)
            .collect();
        custom.iter().sum::<u32>() as f64 / custom.len().max(1) as f64
    }

    /// Figure 3: number of patches per 5-line bucket.
    pub fn figure3(&self) -> Vec<(String, usize)> {
        let locs: Vec<usize> = self.outcomes.iter().map(|o| o.patch_loc).collect();
        figure3_buckets(&locs)
    }

    /// Table 1 rows, sorted paper-style (most recent first).
    pub fn table1(&self) -> Vec<(&'static str, &'static str, u32)> {
        let mut rows: Vec<(&'static str, &'static str, u32)> = self
            .outcomes
            .iter()
            .filter(|o| o.needs_custom_code)
            .map(|o| {
                let reason = match o.custom_reason {
                    Some(CustomReason::AddsFieldToStruct) => "adds field to struct",
                    _ => "changes data init",
                };
                (o.id, reason, o.custom_lines)
            })
            .collect();
        rows.sort_by(|a, b| b.0.cmp(a.0));
        rows
    }

    /// Renders the report the way the paper's evaluation section does.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== Ksplice evaluation (paper §6) ==");
        let _ = writeln!(
            s,
            "patches applied without new code: {} of {} (paper: 56 of 64)",
            self.applied_without_new_code(),
            self.outcomes.len()
        );
        let _ = writeln!(
            s,
            "patches applied in total:         {} of {} (paper: 64 of 64)",
            self.applied_total(),
            self.outcomes.len()
        );
        let _ = writeln!(
            s,
            "avg custom code lines (Table 1):  {:.1} (paper: ~17)",
            self.average_custom_lines()
        );
        let exploits: Vec<&CveOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.exploit_before.is_some())
            .collect();
        let _ = writeln!(
            s,
            "exploits defeated:                {} of {} (paper: 4 of 4)",
            exploits
                .iter()
                .filter(|o| o.exploit_before == Some(true) && o.exploit_after == Some(false))
                .count(),
            exploits.len()
        );
        let stress_fail = self.outcomes.iter().filter(|o| !o.stress_ok).count();
        let _ = writeln!(s, "stress-test failures:             {stress_fail}");
        let max_pause = self
            .outcomes
            .iter()
            .map(|o| o.pause)
            .max()
            .unwrap_or_default();
        let _ = writeln!(
            s,
            "max stop_machine pause:           {:?} (paper: ~0.7 ms)",
            max_pause
        );
        let max_attempts = self.outcomes.iter().map(|o| o.attempts).max().unwrap_or(0);
        let _ = writeln!(
            s,
            "max stop_machine attempts:        {max_attempts} (quiescence retries, §5.2)"
        );
        let _ = writeln!(s, "\n-- Figure 3: number of patches by patch length --");
        for (bucket, n) in self.figure3() {
            if n > 0 {
                let _ = writeln!(s, "{bucket:>6} lines: {}", "#".repeat(n));
            }
        }
        let _ = writeln!(s, "\n-- Table 1: patches that need new code --");
        let _ = writeln!(
            s,
            "{:<16} {:<22} {:>9}",
            "CVE ID", "Reason for failure", "New code"
        );
        for (id, reason, lines) in self.table1() {
            let _ = writeln!(s, "{id:<16} {reason:<22} {lines:>4} lines");
        }
        let _ = writeln!(
            s,
            "\n-- Symbol ambiguity (paper: 7.9% of symbols, 21.1% of units) --"
        );
        let _ = writeln!(
            s,
            "{} of {} symbols ambiguous ({:.1}%); {} of {} units affected ({:.1}%)",
            self.symbol_stats.ambiguous_symbols,
            self.symbol_stats.total_symbols,
            self.symbol_stats.ambiguous_fraction * 100.0,
            self.symbol_stats.units_with_ambiguous,
            self.symbol_stats.total_units,
            self.symbol_stats.unit_fraction * 100.0,
        );
        let _ = writeln!(
            s,
            "patches touching inlined fns: {} of 64 (paper: 20); declared inline: {} (paper: 4); ambiguous symbols: {} (paper: 5)",
            self.corpus_stats.touching_inlined.len(),
            self.corpus_stats.touching_inline_keyword.len(),
            self.corpus_stats.touching_ambiguous.len(),
        );
        s
    }
}

/// Worker count used when the caller does not specify `--jobs`: one per
/// available hardware thread.
pub fn default_eval_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs the whole corpus with [`default_eval_jobs`] workers.
/// `stress_rounds` trades coverage for time (the test suite uses a small
/// number; the bench uses more).
pub fn run_full_evaluation(stress_rounds: u64) -> Result<EvalReport, String> {
    run_full_evaluation_jobs(stress_rounds, default_eval_jobs())
}

/// [`run_full_evaluation`] with an explicit worker count (the CLI's
/// `--jobs N`). `jobs = 1` runs serially on the calling thread.
pub fn run_full_evaluation_jobs(stress_rounds: u64, jobs: usize) -> Result<EvalReport, String> {
    run_full_evaluation_traced(stress_rounds, jobs, &mut Tracer::disabled())
}

/// [`run_full_evaluation_jobs`] with cache/apply counters and histograms
/// merged onto `tracer`. Workers trace into private [`Tracer`]s absorbed
/// after join, so the merged metrics are identical for any `jobs` value;
/// outcome order always matches corpus order.
pub fn run_full_evaluation_traced(
    stress_rounds: u64,
    jobs: usize,
    tracer: &mut Tracer,
) -> Result<EvalReport, String> {
    run_full_evaluation_opts(stress_rounds, jobs, &ApplyOptions::default(), tracer)
}

/// [`run_full_evaluation_traced`] with an explicit apply-time policy
/// (the CLI's `--retry-policy` reaches every per-CVE apply and undo
/// through here).
pub fn run_full_evaluation_opts(
    stress_rounds: u64,
    jobs: usize,
    apply_opts: &ApplyOptions,
    tracer: &mut Tracer,
) -> Result<EvalReport, String> {
    let cases = corpus();
    let base = base_tree();
    let cache = BuildCache::new();
    // Compile the boot image (and warm the cache) once, up front — every
    // worker boots from these objects.
    let image = distro_image(&base, &cache)?;
    // The §6.2 sanity check that the unpatched kernel passes the stress
    // test: every per-CVE kernel boots from the identical image, so one
    // check covers them all.
    baseline_stress_check(&image, &cache, stress_rounds)?;

    let jobs = jobs.clamp(1, cases.len().max(1));
    let mut results: Vec<Option<Result<CveOutcome, String>>> = Vec::new();
    results.resize_with(cases.len(), || None);
    if jobs == 1 {
        for (case, slot) in cases.iter().zip(results.iter_mut()) {
            *slot = Some(run_cve_with(
                case,
                stress_rounds,
                &base,
                &image,
                &cache,
                apply_opts,
                tracer,
            ));
        }
    } else {
        let next = AtomicUsize::new(0);
        let trace_workers = tracer.is_enabled();
        let worker_outputs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = if trace_workers {
                            Tracer::new()
                        } else {
                            Tracer::disabled()
                        };
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= cases.len() {
                                break;
                            }
                            done.push((
                                i,
                                run_cve_with(
                                    &cases[i],
                                    stress_rounds,
                                    &base,
                                    &image,
                                    &cache,
                                    apply_opts,
                                    &mut local,
                                ),
                            ));
                        }
                        (done, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluation worker panicked"))
                .collect::<Vec<_>>()
        });
        for (done, local) in worker_outputs {
            tracer.absorb(&local);
            for (i, result) in done {
                results[i] = Some(result);
            }
        }
    }

    // Deterministic error semantics: the failure at the lowest corpus
    // index wins, exactly as the serial loop would have reported it.
    let mut outcomes = Vec::with_capacity(cases.len());
    for result in results {
        outcomes.push(result.expect("every corpus index was claimed")?);
    }

    // The stats kernel boots from the same image — the base tree is built
    // once per evaluation, not twice more after the CVE loop.
    let kernel = Kernel::boot_image(&image).map_err(|e| format!("boot: {e}"))?;
    let units = base.iter().filter(|(p, _)| p.ends_with(".kc")).count();
    Ok(EvalReport {
        symbol_stats: symbol_stats(&kernel, units),
        corpus_stats: corpus_stats(&cases, &kernel),
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_exploit_cve_end_to_end() {
        let cases = corpus();
        let prctl = cases.iter().find(|c| c.id == "CVE-2006-2451").unwrap();
        let o = run_cve(prctl, 10).unwrap();
        assert!(o.plain_applied);
        assert!(o.applied && o.stress_ok && o.undo_ok);
        assert_eq!(o.exploit_before, Some(true));
        assert_eq!(o.exploit_after, Some(false));
        assert!(o.patch_loc <= 5);
    }

    #[test]
    fn one_custom_code_cve_end_to_end() {
        let cases = corpus();
        let shadow = cases.iter().find(|c| c.id == "CVE-2005-2709").unwrap();
        let o = run_cve(shadow, 10).unwrap();
        // The plain patch for the Table-1 init-changers fails create; for
        // the shadow case the plain patch builds but lacks the migration.
        assert!(o.applied && o.stress_ok && o.undo_ok);
        assert_eq!(o.custom_lines, 48);
    }

    #[test]
    fn a_data_init_cve_needs_signoff() {
        let cases = corpus();
        let brk = cases.iter().find(|c| c.id == "CVE-2008-0007").unwrap();
        let o = run_cve(brk, 5).unwrap();
        assert!(
            !o.plain_applied,
            "init change must be refused without sign-off"
        );
        assert!(o.applied && o.stress_ok && o.undo_ok);
        assert_eq!(o.custom_lines, 34);
    }
}
