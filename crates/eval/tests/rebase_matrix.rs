//! The rebase acceptance suite: the 64-CVE × 4-drift-level matrix, the
//! checksum property for auto-ported cells, and the negative paths
//! (deleted / split patched functions must refuse loudly, never port
//! into the wrong function).

use ksplice_core::{
    rebase_update, ApplyOptions, BuildCache, Ksplice, RebaseOptions, RebaseStatus, Tracer,
};
use ksplice_eval::{canonical_base_tree, corpus, run_rebase_matrix, RebaseMatrixConfig};
use ksplice_kernel::Kernel;
use ksplice_lang::{
    build_tree_image_cached, generate_drift, DriftLevel, DriftLog, FnFate, Options, SourceTree,
};

/// The full 64 × {D1..D4} sweep: deterministic, ≥80% auto-port at D1,
/// every non-ported cell classified, zero ground-truth violations.
#[test]
fn full_matrix_meets_acceptance() {
    let cfg = RebaseMatrixConfig::default();
    let a = run_rebase_matrix(&cfg, &mut Tracer::disabled()).unwrap();
    let b = run_rebase_matrix(&cfg, &mut Tracer::disabled()).unwrap();
    assert_eq!(a.render(), b.render(), "same seed must give a byte-identical report");
    assert_eq!(a.to_json(), b.to_json());

    assert_eq!(a.cells.len(), 64 * 4);
    let d1 = a.auto_port_rate(DriftLevel::D1);
    assert!(d1 >= 80.0, "D1 auto-port rate {d1:.1}% below the 80% bar\n{}", a.render());

    assert!(a.misports().is_empty(), "ground-truth violations:\n{}", a.render());
    assert!(
        a.unclassified().is_empty(),
        "every non-ported cell must carry a classified reason:\n{}",
        a.render()
    );
    for c in &a.cells {
        if c.status == RebaseStatus::AutoPorted {
            assert!(
                c.verified,
                "{} @ {}: auto-ported without passing the apply+undo gate",
                c.cve, c.level
            );
        } else {
            // Reasons must name the responsible unit (a path-shaped
            // token) — "it failed" is not a classification.
            assert!(
                c.reasons.iter().any(|r| r.contains(".kc") || r.contains(".ks")),
                "{} @ {}: no unit named in {:?}",
                c.cve,
                c.level,
                c.reasons
            );
        }
    }
    // Drift-class attribution covers the structural mutators at D4.
    let classes: Vec<&str> = a.class_stats().iter().map(|(c, _, _)| c.name()).collect();
    for required in ["context-drift", "rename-static", "delete-fn", "split-fn"] {
        assert!(classes.contains(&required), "class {required} never attributed: {classes:?}");
    }
}

fn drifted_for(level: DriftLevel, seed: u64, victims: &[String]) -> (SourceTree, DriftLog) {
    generate_drift(&canonical_base_tree(), level, seed, victims).unwrap()
}

fn all_victims() -> Vec<String> {
    let mut v: Vec<String> = corpus()
        .iter()
        .flat_map(|c| c.edited_fns.iter().map(|f| f.to_string()))
        .collect();
    v.sort();
    v.dedup();
    v
}

/// Satellite: the PR 3 checksum contract extended to rebased packs.
/// For auto-ported cells, applying the *returned* pack to a freshly
/// booted drifted kernel and undoing it restores the text image
/// byte-identical.
#[test]
fn auto_ported_packs_restore_drifted_image_on_undo() {
    let cfg = RebaseMatrixConfig::default();
    let victims = all_victims();
    let cache = BuildCache::new();
    let canon = canonical_base_tree();
    let mut exercised = 0;
    for level in [DriftLevel::D2, DriftLevel::D3] {
        let (drifted, _log) = drifted_for(level, cfg.seed, &victims);
        let (image, _) =
            build_tree_image_cached(&drifted, &Options::distro(), &cache).unwrap();
        for case in corpus().iter().take(12) {
            let patched = if case.needs_custom_code() {
                case.patched_tree_with_custom()
            } else {
                case.patched_tree()
            };
            let patch = ksplice_eval::diff_trees(
                &canon,
                &ksplice_lang::canonicalize_tree(&patched),
            );
            let opts = RebaseOptions {
                create: ksplice_core::CreateOptions {
                    accept_data_changes: case.needs_custom_code(),
                    ..Default::default()
                },
                ..RebaseOptions::default()
            };
            let (report, pack) = rebase_update(
                case.id,
                &canon,
                &patch,
                &drifted,
                &opts,
                &cache,
                &mut Tracer::disabled(),
            )
            .unwrap();
            let Some(pack) = pack else { continue };
            assert_eq!(report.status, RebaseStatus::AutoPorted);
            // Independent re-proof on a fresh kernel, not trusting the
            // pipeline's own verified flag.
            let mut kernel = Kernel::boot_image(&image).unwrap();
            let before = kernel.mem.text_checksum();
            let mut ks = Ksplice::new();
            ks.apply_traced(&mut kernel, &pack, &ApplyOptions::default(), &mut Tracer::disabled())
                .unwrap_or_else(|e| panic!("{} @ {level}: apply: {e}", case.id));
            assert_ne!(
                kernel.mem.text_checksum(),
                before,
                "{} @ {level}: apply must change the text image",
                case.id
            );
            ks.undo_any_traced(&mut kernel, case.id, &ApplyOptions::default(), &mut Tracer::disabled())
                .unwrap_or_else(|e| panic!("{} @ {level}: undo: {e}", case.id));
            assert_eq!(
                kernel.mem.text_checksum(),
                before,
                "{} @ {level}: undo must restore the drifted image byte-identical",
                case.id
            );
            exercised += 1;
        }
    }
    assert!(exercised >= 8, "only {exercised} auto-ported cells exercised");
}

/// Finds a seed whose D4 drift gives `func` the wanted fate. The delete
/// pass runs before the split pass and a victim is only consumed once,
/// so the split search needs decoys in the pool for the deletes to eat.
fn seed_with_fate(func: &str, want_deleted: bool) -> (u64, SourceTree, DriftLog) {
    let victims: Vec<String> = if want_deleted {
        vec![func.to_string()]
    } else {
        [func, "sys_open", "sock_valid", "roundup4", "note_align", "ino_ok"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    };
    for seed in 0..64 {
        let (tree, log) = drifted_for(DriftLevel::D4, seed, &victims);
        let hit = match log.fate(func) {
            FnFate::Deleted => want_deleted,
            FnFate::Split => !want_deleted,
            FnFate::Present { .. } => false,
        };
        if hit {
            return (seed, tree, log);
        }
    }
    panic!("no seed in 0..64 {} {func}", if want_deleted { "deletes" } else { "splits" });
}

fn rebase_cve(id: &str, drifted: &SourceTree) -> ksplice_core::RebaseReport {
    let canon = canonical_base_tree();
    let case = corpus().into_iter().find(|c| c.id == id).unwrap();
    let patch =
        ksplice_eval::diff_trees(&canon, &ksplice_lang::canonicalize_tree(&case.patched_tree()));
    let (report, _) = rebase_update(
        case.id,
        &canon,
        &patch,
        drifted,
        &RebaseOptions::default(),
        &BuildCache::new(),
        &mut Tracer::disabled(),
    )
    .unwrap();
    report
}

/// Satellite negative path: drift that deletes the patched function
/// must yield manual-fix-needed naming the responsible unit and
/// function — never a silent port into leftover call sites.
#[test]
fn deleted_patched_function_refuses_with_unit_named() {
    let (_seed, drifted, log) = seed_with_fate("sys_prctl", true);
    assert_eq!(log.fate("sys_prctl"), FnFate::Deleted);
    let report = rebase_cve("CVE-2006-2451", &drifted);
    assert_eq!(report.status, RebaseStatus::ManualFixNeeded, "{}", report.render());
    assert!(
        report
            .reasons
            .iter()
            .any(|r| r.contains("kernel/sys.kc") && r.contains("sys_prctl")),
        "reason must name unit and function: {:?}",
        report.reasons
    );
    assert!(report.ported_fns.is_empty(), "nothing may claim to be ported: {:?}", report.ported_fns);
}

/// Satellite negative path: drift that splits the patched function must
/// either refuse or port into the split-off body — the wrapper keeping
/// the old name must never silently swallow the patch.
#[test]
fn split_patched_function_never_patches_the_wrapper() {
    let (_seed, drifted, log) = seed_with_fate("sys_prctl", false);
    assert_eq!(log.fate("sys_prctl"), FnFate::Split);
    let body_fn = log
        .split
        .iter()
        .find(|(_, f, _)| f == "sys_prctl")
        .map(|(_, _, b)| b.clone())
        .unwrap();
    let report = rebase_cve("CVE-2006-2451", &drifted);
    match report.status {
        RebaseStatus::AutoPorted => {
            assert!(
                report.ported_fns.contains(&body_fn),
                "auto-port must land in the split body {body_fn}: {:?}",
                report.ported_fns
            );
            assert!(
                !report.ported_fns.iter().any(|f| f == "sys_prctl"),
                "the wrapper must not be patched: {:?}",
                report.ported_fns
            );
        }
        _ => {
            assert!(
                report.reasons.iter().any(|r| r.contains("sys_prctl")),
                "refusal must name the split function: {:?}",
                report.reasons
            );
        }
    }
}
