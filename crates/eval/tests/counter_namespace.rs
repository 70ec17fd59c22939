//! The counter-namespace contract: every counter the pipeline emits is
//! registered here, spelled `stage.noun_verb` (three segments only for
//! the fuzz outcome/kill families), and the retired pre-registry
//! spellings never reappear.

use ksplice_core::trace::Tracer;
use ksplice_core::{
    create_update_cached_traced, preflight, ApplyOptions, CreateOptions, HealthProbe, Ksplice,
    UpdateManager, WatchPolicy,
};
use ksplice_eval::{base_tree, run_profile, ProfileConfig};
use ksplice_kernel::Kernel;
use ksplice_lang::{BuildCache, Options};

/// Every counter name the pipeline may emit. A new counter must be added
/// here — and follow the convention — before it ships.
const KNOWN_COUNTERS: &[&str] = &[
    "apply.packs_rejected",
    "apply.relocs_fulfilled",
    "apply.stop_machine_attempts",
    "apply.trampolines_written",
    "apply.updates_committed",
    "build.cache_evictions",
    "build.cache_hits",
    "build.cache_misses",
    "build.units_compiled",
    "create.packs_built",
    "differ.fns_changed",
    "differ.units_changed",
    "eval.cases_run",
    "fleet.msgs_corrupted",
    "fleet.msgs_delivered",
    "fleet.msgs_dropped",
    "fleet.msgs_duplicated",
    "fleet.msgs_healed",
    "fleet.msgs_parked",
    "fleet.msgs_sent",
    "fleet.nodes_committed",
    "fleet.nodes_failed",
    "fleet.nodes_quarantined",
    "fleet.nodes_rolled_back",
    "fleet.packs_rejected",
    "fleet.packs_sent",
    "fleet.reports_received",
    "fleet.resends_sent",
    "fleet.rollbacks_sent",
    "fleet.rollbacks_verified",
    "fleet.stragglers_converged",
    "fleet.waves_halted",
    "fleet.waves_launched",
    "profile.aborts_observed",
    "profile.functions_migrated",
    "profile.samples_recorded",
    "rebase.auto_ported",
    "rebase.hunks_failed",
    "rebase.hunks_ported",
    "rebase.manual_needed",
    "rebase.moves_learned",
    "rebase.packs_reused",
    "rebase.renames_learned",
    "rebase.reuse_attempts",
    "rebase.updates_rejected",
    "runpre.bytes_matched",
    "runpre.nops_skipped",
    "runpre.pcrel_checks",
    "runpre.relocs_recovered",
    "runpre.symbols_recovered",
    "runpre.units_aborted",
    "runpre.units_matched",
    "undo.entangled_refusals",
    "undo.rollbacks_mismatched",
    "undo.sites_repointed",
    "undo.stop_machine_attempts",
    "undo.updates_reversed",
    "watch.probes_failed",
    "watch.rollbacks_triggered",
    "watch.updates_committed",
    "vm.icache_flush",
];

/// Pre-registry spellings, retired in favour of the `stage.noun_verb`
/// names on the right. Nothing may emit the old names again.
const RETIRED_COUNTERS: &[(&str, &str)] = &[
    ("rollback.text_mismatch", "undo.rollbacks_mismatched"),
    ("watch.auto_rollbacks", "watch.rollbacks_triggered"),
    ("watch.probe_failures", "watch.probes_failed"),
    ("preflight.rejects", "apply.packs_rejected"),
    ("build.cache_hit", "build.cache_hits"),
    ("build.cache_miss", "build.cache_misses"),
    ("build.cache_evict", "build.cache_evictions"),
    ("eval.cases", "eval.cases_run"),
];

/// Stage prefixes a counter may start with.
const STAGE_PREFIXES: &[&str] = &[
    "create", "differ", "runpre", "apply", "watch", "undo", "build", "eval", "fuzz", "profile",
    "vm", "fleet", "rebase",
];

/// `stage.noun_verb` — lowercase segments, an underscore in the tail,
/// and a third segment only for the dynamic fuzz families.
fn conforms(name: &str) -> bool {
    let parts: Vec<&str> = name.split('.').collect();
    let tail_ok = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    match parts.as_slice() {
        [stage, tail] => STAGE_PREFIXES.contains(stage) && tail_ok(tail) && tail.contains('_'),
        [stage, family, class] => {
            *stage == "fuzz" && matches!(*family, "outcome" | "kill") && tail_ok(class)
        }
        _ => false,
    }
}

const PATCH: &str = "\
--- a/fs/open.kc
+++ b/fs/open.kc
@@ -1,3 +1,9 @@
 int sys_open(int ino, int mode) {
     int fd;
+    if (ino < 0 || ino >= 64) {
+        return 0 - 22;
+    }
+    if (mode == 0) {
+        return 0 - 22;
+    }
     for (fd = 0; fd < 32; fd = fd + 1) {
";

#[test]
fn registry_is_consistent() {
    for name in KNOWN_COUNTERS {
        assert!(conforms(name), "registered counter `{name}` breaks the convention");
    }
    // The dynamic fuzz families pass too.
    assert!(conforms("fuzz.outcome.pass"));
    assert!(conforms("fuzz.kill.differ"));
    // Every retired spelling has a registered successor and is not
    // itself registered.
    for (retired, successor) in RETIRED_COUNTERS {
        assert!(
            !KNOWN_COUNTERS.contains(retired),
            "retired counter `{retired}` is registered again"
        );
        assert!(
            KNOWN_COUNTERS.contains(successor),
            "successor `{successor}` is not registered"
        );
    }
}

#[test]
fn full_lifecycle_emits_only_registered_counters() {
    let mut tracer = Tracer::new();
    let base = base_tree();
    let cache = BuildCache::new();

    // create → preflight → apply → quarantine commit.
    let (pack, _) = create_update_cached_traced(
        "cve-ns",
        &base,
        PATCH,
        &CreateOptions::default(),
        &cache,
        &mut tracer,
    )
    .unwrap();
    let mut kernel = Kernel::boot(&base, &Options::distro()).unwrap();
    let mut mgr = UpdateManager::with_watch(WatchPolicy {
        rounds: 1,
        steps_per_round: 100,
    });
    mgr.apply_watched(
        &mut kernel,
        &pack,
        &mut [],
        &ApplyOptions::default(),
        &mut tracer,
    )
    .unwrap();

    // A failing probe: quarantine rollback, so the undo counters fire.
    let mut kernel2 = Kernel::boot(&base, &Options::distro()).unwrap();
    let mut mgr2 = UpdateManager::with_watch(WatchPolicy {
        rounds: 1,
        steps_per_round: 100,
    });
    let mut probes = [HealthProbe::Custom {
        name: "always-fails".to_string(),
        check: Box::new(|_k: &mut Kernel| Err("synthetic".to_string())),
    }];
    let err = mgr2.apply_watched(
        &mut kernel2,
        &pack,
        &mut probes,
        &ApplyOptions::default(),
        &mut tracer,
    );
    assert!(err.is_err(), "failing probe must quarantine");

    // A preflight reject: an empty pack bounces at the gate.
    let bad = ksplice_core::UpdatePack {
        id: String::new(),
        ..pack.clone()
    };
    assert!(preflight(&Ksplice::new(), &kernel, &bad, &mut tracer).is_err());

    // The profiler's counters ride the same tracer.
    run_profile(
        "CVE-2005-1263",
        &ProfileConfig {
            rounds: 5,
            ..ProfileConfig::default()
        },
        &mut tracer,
    )
    .unwrap();

    let names: Vec<&str> = tracer.counters().map(|(name, _)| name).collect();
    assert!(!names.is_empty());
    for name in &names {
        assert!(
            KNOWN_COUNTERS.contains(name),
            "unregistered counter `{name}` observed"
        );
        assert!(conforms(name), "counter `{name}` breaks the convention");
    }
    // The retired spellings never surface.
    for (retired, _) in RETIRED_COUNTERS {
        assert!(
            !names.contains(retired),
            "retired counter `{retired}` observed"
        );
    }
    // Spot-check the expected families all fired.
    for expected in [
        "create.packs_built",
        "build.units_compiled",
        "runpre.units_matched",
        "apply.stop_machine_attempts",
        "apply.trampolines_written",
        "apply.packs_rejected",
        "watch.updates_committed",
        "watch.probes_failed",
        "watch.rollbacks_triggered",
        "undo.updates_reversed",
        "profile.samples_recorded",
        "profile.functions_migrated",
    ] {
        assert!(
            names.contains(&expected),
            "expected counter `{expected}` did not fire; got {names:?}"
        );
    }
}
