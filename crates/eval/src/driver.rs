//! The end-to-end evaluation driver (paper §6.2–§6.3).
//!
//! For every corpus entry: boot the vulnerable kernel, (optionally) prove
//! the exploit works, build the hot update with `ksplice-create`, apply
//! it to the running kernel through the lifecycle manager (pre-flight,
//! apply, watch window, commit), run the correctness-checking stress
//! test, prove the exploit is dead, and reverse the update. An exploit
//! entry then re-applies its update under a probe that demands the
//! vulnerable answer, which must roll it back to the exact text image.
//! This is the one pass over the corpus: the aggregate report
//! regenerates the paper's headline numbers, Figure 3 and Table 1, and
//! counts the lifecycle verdicts.
//!
//! The driver is built for corpus throughput: one [`BuildCache`] is
//! shared across every CVE so the base tree (both the distro boot image
//! and the pre build) is compiled exactly once per process and each post
//! build recompiles only the patched units, and [`run_full_evaluation`]
//! fans the corpus out over the shared worker pool ([`par_map`]) — each
//! CVE gets its own [`Kernel`], each worker its own [`Tracer`] merged
//! back via [`Tracer::absorb`] after join, and outcome ordering is
//! deterministic regardless of worker interleaving.

use std::fmt::Write as _;
use std::time::Duration;

use ksplice_core::{
    create_update_cached_traced, ApplyOptions, BuildCache, CreateOptions, LifecycleError, Tracer,
    UpdateManager, UpdatePack, UpdateState,
};
use ksplice_kernel::Kernel;
use ksplice_lang::{build_tree_cached, Options, SourceTree};
use ksplice_object::ObjectSet;
use ksplice_patch::Patch;

use crate::corpus::{corpus, CustomReason, Cve};
use crate::exploits::run_exploit;
use crate::lifecycle::{exploit_probe, shippable_update, still_vulnerable_probe};
use crate::pool::par_map;
use crate::stats::{corpus_stats, figure3_buckets, symbol_stats, CorpusStats, SymbolStats};
use crate::stress::{load_stress, run_stress};
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
    /// For exploit entries: re-applied under a probe demanding the
    /// vulnerable answer, the update failed quarantine and was rolled
    /// back, and the manager's rollback check found the text restored.
    /// `None` for entries with no exploit.
    pub rollback_clean: Option<bool>,
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

/// Runs one corpus entry end to end through `cache`, with cache and
/// apply counters on `tracer`.
pub fn run_cve(
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
    let entry = load_stress(&mut kernel, cache)?;
    run_stress(&mut kernel, entry, stress_rounds.min(5)).map_err(|e| format!("baseline {e}"))
}

/// Builds the distro (run) kernel image through the cache, so 64 boots
/// cost one compile of the tree.
pub(crate) fn distro_image(base: &SourceTree, cache: &BuildCache) -> Result<ObjectSet, String> {
    build_tree_cached(base, &Options::distro(), cache)
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
    kernel.configure_smp(apply_opts.smp.clone());
    let stress_entry = load_stress(&mut kernel, cache)?;

    let exploit_before = run_exploit(&mut kernel, case, cache)?;
    if exploit_before == Some(false) {
        return Err(format!("{}: exploit should work pre-patch", case.id));
    }

    // First, the §2 check: does the *plain* patch make it through
    // ksplice-create with no programmer involvement?
    let plain_patch = case.patch_text();
    let patch_loc = Patch::parse(&plain_patch)
        .map(|p| p.changed_line_count())
        .map_err(|e| format!("{}: {e}", case.id))?;
    let plain_applied = create_update_cached_traced(
        case.id,
        base,
        &plain_patch,
        &CreateOptions::default(),
        cache,
        tracer,
    )
    .is_ok();

    let (pack, _) =
        shippable_update(case, cache, tracer).map_err(|e| format!("{}: create: {e}", case.id))?;

    // The managed apply: any lifecycle error (a pre-flight rejection, a
    // failed apply or a failed watch window) fails the evaluation. The
    // exploit, when there is one, is the health probe: a committed
    // update means it was dead every round.
    let mut probe = case.exploit.is_some().then(|| exploit_probe(case));
    let mut mgr = UpdateManager::new();
    let report = mgr
        .apply_watched(&mut kernel, &pack, probe.as_mut_slice(), apply_opts, tracer)
        .map_err(|e| format!("{}: apply: {e}", case.id))?;
    // Both numbers come from the same ApplyReport: the pause and the
    // attempt count describe the same successful stop_machine window.
    let pause = report.pause;

    let stress_ok = run_stress(&mut kernel, stress_entry, stress_rounds).is_ok();
    let exploit_after = run_exploit(&mut kernel, case, cache)?;

    let undo_report = mgr.undo_any(&mut kernel, case.id, apply_opts, tracer);
    let undo_ok = undo_report.is_ok();
    let undo_attempts = undo_report.map(|r| r.attempts).unwrap_or(0);

    let rollback_clean = case
        .exploit
        .is_some()
        .then(|| failing_probe_rolls_back(&mut kernel, case, &pack, apply_opts, tracer));

    Ok(CveOutcome {
        id: case.id,
        patch_loc,
        needs_custom_code: case.needs_custom_code(),
        custom_lines: case.custom.as_ref().map(|c| c.lines).unwrap_or(0),
        custom_reason: case.custom.as_ref().map(|c| c.reason),
        plain_applied,
        replaced_fns: pack.replaced_fn_count(),
        stress_ok,
        exploit_before,
        exploit_after,
        undo_ok,
        rollback_clean,
        pause,
        attempts: report.attempts,
        undo_attempts,
        helper_bytes: pack.helper_size(),
        primary_bytes: pack.primary_size(),
    })
}

/// The failing-probe leg: re-applies `pack` on the same kernel under a
/// fresh manager and a probe that demands the *vulnerable* answer. The
/// patched kernel fails it in the first round, so quarantine must roll
/// the update back, and the manager's rollback check must find the text
/// checksum as it was just before the apply.
fn failing_probe_rolls_back(
    kernel: &mut Kernel,
    case: &Cve,
    pack: &UpdatePack,
    apply_opts: &ApplyOptions,
    tracer: &mut Tracer,
) -> bool {
    let mut probe = [still_vulnerable_probe(case)];
    let mut mgr = UpdateManager::new();
    let applied = mgr.apply_watched(kernel, pack, &mut probe, apply_opts, tracer);
    matches!(
        applied,
        Err(LifecycleError::Quarantine { restored: true, .. })
    ) && mgr.state(case.id) == Some(UpdateState::RolledBack)
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

    /// Headline: CVEs applied in total (paper: 64 of 64). Every outcome
    /// counts: a CVE whose update failed pre-flight, apply or its watch
    /// window fails the whole evaluation instead.
    pub fn applied_total(&self) -> usize {
        self.outcomes.len()
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

    /// §5.1: every CVE's helper/primary module size ratio, smallest
    /// first.
    pub fn module_size_ratios(&self) -> Vec<(&'static str, f64)> {
        let mut ratios: Vec<(&'static str, f64)> = self
            .outcomes
            .iter()
            .map(|o| (o.id, o.helper_bytes as f64 / o.primary_bytes.max(1) as f64))
            .collect();
        ratios.sort_by(|a, b| a.1.total_cmp(&b.1));
        ratios
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
        let _ = writeln!(
            s,
            "committed (pre-flight + watch):   {} of {}",
            self.applied_total(),
            self.outcomes.len()
        );
        let rollbacks: Vec<bool> = self
            .outcomes
            .iter()
            .filter_map(|o| o.rollback_clean)
            .collect();
        let _ = writeln!(
            s,
            "failing-probe rollbacks restored: {} of {}",
            rollbacks.iter().filter(|clean| **clean).count(),
            rollbacks.len()
        );
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
        let ratios = self.module_size_ratios();
        if let (Some(min), Some(max)) = (ratios.first(), ratios.last()) {
            let _ = writeln!(
                s,
                "helper larger than primary (§5.1): {} of {}; ratio min {:.2} ({}), median {:.2}, max {:.2} ({})",
                ratios.iter().filter(|(_, r)| *r > 1.0).count(),
                ratios.len(),
                min.1,
                min.0,
                ratios[ratios.len() / 2].1,
                max.1,
                max.0,
            );
        }
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

/// Runs the whole corpus over `jobs` workers (`jobs = 1` runs serially
/// on the calling thread; the CLI's `--jobs N`) under `apply_opts` (the
/// CLI's `--retry-policy` and `--cpus` reach every per-CVE apply and undo
/// through here). `stress_rounds` trades coverage for time. Cache and
/// apply counters land on `tracer`; workers trace into private
/// [`Tracer`]s absorbed after join, so the merged metrics are identical
/// for any `jobs` value, and outcome order always matches corpus order.
pub fn run_full_evaluation(
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

    // Deterministic error semantics: the failure at the lowest corpus
    // index wins, exactly as the serial loop would have reported it.
    let outcomes = par_map(cases.iter().collect(), jobs, tracer, |case, tracer| {
        run_cve_with(
            case,
            stress_rounds,
            &base,
            &image,
            &cache,
            apply_opts,
            tracer,
        )
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

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
        let o = run_cve(prctl, 10, &BuildCache::new(), &mut Tracer::disabled()).unwrap();
        assert!(o.plain_applied);
        assert!(o.stress_ok && o.undo_ok);
        assert_eq!(o.exploit_before, Some(true));
        assert_eq!(o.exploit_after, Some(false));
        assert_eq!(o.rollback_clean, Some(true));
        assert!(o.patch_loc <= 5);
    }

    #[test]
    fn one_custom_code_cve_end_to_end() {
        let cases = corpus();
        let shadow = cases.iter().find(|c| c.id == "CVE-2005-2709").unwrap();
        let o = run_cve(shadow, 10, &BuildCache::new(), &mut Tracer::disabled()).unwrap();
        // The plain patch for the Table-1 init-changers fails create; for
        // the shadow case the plain patch builds but lacks the migration.
        assert!(o.stress_ok && o.undo_ok);
        assert_eq!(o.custom_lines, 48);
    }

    #[test]
    fn a_data_init_cve_needs_signoff() {
        let cases = corpus();
        let brk = cases.iter().find(|c| c.id == "CVE-2008-0007").unwrap();
        let o = run_cve(brk, 5, &BuildCache::new(), &mut Tracer::disabled()).unwrap();
        assert!(
            !o.plain_applied,
            "init change must be refused without sign-off"
        );
        assert!(o.stress_ok && o.undo_ok);
        assert_eq!(o.custom_lines, 34);
    }
}
