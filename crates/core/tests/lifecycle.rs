//! The update lifecycle manager: pre-flight gate, quarantine watch
//! window with automatic rollback, and non-LIFO undo with trampoline
//! re-pointing.

use ksplice_core::trace::{RingSink, Tracer};
use ksplice_core::{
    create_update, ApplyOptions, CreateOptions, HealthProbe, Ksplice, LifecycleError,
    PreflightError, RetryPolicy, UndoError, UpdateManager, UpdateState, WatchPolicy,
};
use ksplice_kernel::{Fault, Kernel};
use ksplice_lang::{Options, SourceTree};
use ksplice_patch::make_diff;

fn tree(files: &[(&str, &str)]) -> SourceTree {
    files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn diff_for(src: &SourceTree, path: &str, new_content: &str) -> String {
    make_diff(path, src.get(path).expect("file exists"), new_content).expect("contents differ")
}

const SYS: &str = "int max_fd = 4;\n\
int table[8];\n\
int sys_write(int fd, int v) {\n\
    if (fd > max_fd) {\n\
        return 0 - 9;\n\
    }\n\
    table[fd] = v;\n\
    return v;\n\
}\n";

const SYS_FIXED: &str = "int max_fd = 4;\n\
int table[8];\n\
int sys_write(int fd, int v) {\n\
    if (fd >= max_fd) {\n\
        return 0 - 9;\n\
    }\n\
    table[fd] = v;\n\
    return v;\n\
}\n";

#[test]
fn probe_spec_parsing() {
    let p = HealthProbe::parse("sys_write(4, 88)=-9").unwrap();
    match p {
        HealthProbe::Canary {
            name,
            fn_name,
            args,
            expected,
        } => {
            assert_eq!(name, "canary:sys_write");
            assert_eq!(fn_name, "sys_write");
            assert_eq!(args, vec![4, 88]);
            assert_eq!(expected as i64, -9);
        }
        other => panic!("unexpected probe {other:?}"),
    }
    match HealthProbe::parse("version()=3").unwrap() {
        HealthProbe::Canary { args, expected, .. } => {
            assert!(args.is_empty());
            assert_eq!(expected, 3);
        }
        other => panic!("unexpected probe {other:?}"),
    }
    assert!(HealthProbe::parse("no_equals").is_err());
    assert!(HealthProbe::parse("f(1=2").is_err());
    assert!(HealthProbe::parse("f(x)=2").is_err());
    assert!(HealthProbe::parse("=2").is_err());
}

#[test]
fn watch_window_commits_a_healthy_update() {
    let src = tree(&[("kernel/sys.kc", SYS)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let patch = diff_for(&src, "kernel/sys.kc", SYS_FIXED);
    let (pack, _) = create_update("fix", &src, &patch, &CreateOptions::default()).unwrap();

    let mut mgr = UpdateManager::new();
    let mut probes = vec![
        HealthProbe::canary("sys_write", &[3, 55], 55),
        // The patched behaviour itself: fd == 4 must now be rejected.
        HealthProbe::canary("sys_write", &[4, 88], (-9i64) as u64),
        HealthProbe::Custom {
            name: "klog-scan".to_string(),
            check: Box::new(|_k: &mut Kernel| Ok(())),
        },
    ];
    mgr.apply_watched(
        &mut kernel,
        &pack,
        &mut probes,
        &ApplyOptions::default(),
        &mut Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(mgr.state("fix"), Some(UpdateState::Committed));
    assert!(mgr.render_status().contains("committed"));
    assert_eq!(
        kernel.call_function("sys_write", &[4, 88]).unwrap() as i64,
        -9
    );
}

#[test]
fn failing_probe_triggers_checksum_verified_rollback() {
    let src = tree(&[("kernel/sys.kc", SYS)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let patch = diff_for(&src, "kernel/sys.kc", SYS_FIXED);
    let (pack, _) = create_update("fix", &src, &patch, &CreateOptions::default()).unwrap();
    let text_before = kernel.mem.text_checksum();

    let ring = RingSink::new(512);
    let events = ring.handle();
    let mut tracer = Tracer::new().with_sink(Box::new(ring));

    let mut mgr = UpdateManager::new();
    // A canary that demands the *vulnerable* answer: the patched kernel
    // returns -9, so the probe fails and quarantine must roll back.
    let mut probes = vec![HealthProbe::canary("sys_write", &[4, 88], 88)];
    let err = mgr
        .apply_watched(
            &mut kernel,
            &pack,
            &mut probes,
            &ApplyOptions::default(),
            &mut tracer,
        )
        .unwrap_err();
    match &err {
        LifecycleError::Quarantine {
            id, probe, round, ..
        } => {
            assert_eq!(id, "fix");
            assert_eq!(probe, "canary:sys_write");
            assert_eq!(*round, 1);
        }
        other => panic!("expected Quarantine, got {other}"),
    }
    assert_eq!(mgr.state("fix"), Some(UpdateState::RolledBack));
    assert!(mgr.render_status().contains("rolled-back"));
    // The automatic rollback restored the exact pre-apply text image and
    // the vulnerable behaviour.
    assert_eq!(kernel.mem.text_checksum(), text_before);
    assert_eq!(kernel.call_function("sys_write", &[4, 99]).unwrap(), 99);

    let events = events.events();
    for needle in [
        "watch.start",
        "watch.probe_failed",
        "watch.auto_rollback",
        "watch.rollback_verified",
    ] {
        assert!(
            events.iter().any(|e| e.name == needle),
            "missing event {needle}"
        );
    }
    assert!(!events.iter().any(|e| e.name == "watch.committed"));
}

#[test]
fn injected_probe_fault_forces_rollback() {
    let src = tree(&[("kernel/sys.kc", SYS)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let patch = diff_for(&src, "kernel/sys.kc", SYS_FIXED);
    let (pack, _) = create_update("fix", &src, &patch, &CreateOptions::default()).unwrap();
    kernel.arm_fault(Fault::ProbeFail { count: 1 }).unwrap();

    let mut mgr = UpdateManager::with_watch(WatchPolicy {
        rounds: 2,
        steps_per_round: 500,
    });
    // The probe itself would pass; the armed fault fails it.
    let mut probes = vec![HealthProbe::canary("sys_write", &[3, 55], 55)];
    let err = mgr
        .apply_watched(
            &mut kernel,
            &pack,
            &mut probes,
            &ApplyOptions::default(),
            &mut Tracer::disabled(),
        )
        .unwrap_err();
    match &err {
        LifecycleError::Quarantine { reason, .. } => {
            assert!(reason.contains("injected"), "{reason}");
        }
        other => panic!("expected Quarantine, got {other}"),
    }
    assert!(kernel
        .faults
        .fired()
        .iter()
        .any(|f| f.site == "probe-fail"));
    assert_eq!(kernel.call_function("sys_write", &[4, 99]).unwrap(), 99);
}

#[test]
fn preflight_rejects_conflicting_and_malformed_packs() {
    let src = tree(&[
        ("a.kc", "int f(int x) {\n    return x + 1;\n}\n"),
        ("b.kc", "int g(int x) {\n    return x + 2;\n}\n"),
    ]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let patch_a = diff_for(&src, "a.kc", "int f(int x) {\n    return x + 10;\n}\n");
    let (pack_a, _) = create_update("up-a", &src, &patch_a, &CreateOptions::default()).unwrap();

    let mut mgr = UpdateManager::new();
    mgr.apply_watched(
        &mut kernel,
        &pack_a,
        &mut [],
        &ApplyOptions::default(),
        &mut Tracer::disabled(),
    )
    .unwrap();

    // A second pack patching the same function through a *different*
    // unit is a conflict the gate must refuse before any module loads.
    let modules_before = kernel.modules.len();
    let mut pack_b = pack_a.clone();
    pack_b.id = "up-b".to_string();
    pack_b.units[0].unit = "other.kc".to_string();
    let err = mgr
        .apply_watched(
            &mut kernel,
            &pack_b,
            &mut [],
            &ApplyOptions::default(),
            &mut Tracer::disabled(),
        )
        .unwrap_err();
    match err {
        LifecycleError::Preflight(PreflightError::Conflict {
            fn_name,
            live_update,
            ..
        }) => {
            assert_eq!(fn_name, "f");
            assert_eq!(live_update, "up-a");
        }
        other => panic!("expected Conflict, got {other}"),
    }
    assert_eq!(kernel.modules.len(), modules_before, "kernel was touched");

    // Malformed shapes.
    let mut empty_id = pack_a.clone();
    empty_id.id = String::new();
    assert!(matches!(
        ksplice_core::preflight(
            mgr.ksplice(),
            &kernel,
            &empty_id,
            &mut Tracer::disabled()
        ),
        Err(PreflightError::BadPack { .. })
    ));
    let mut no_units = pack_a.clone();
    no_units.id = "nu".to_string();
    no_units.units.clear();
    assert!(matches!(
        ksplice_core::preflight(mgr.ksplice(), &kernel, &no_units, &mut Tracer::disabled()),
        Err(PreflightError::BadPack { .. })
    ));
    let mut dup_units = pack_a.clone();
    dup_units.id = "du".to_string();
    let clone = dup_units.units[0].clone();
    dup_units.units.push(clone);
    assert!(matches!(
        ksplice_core::preflight(mgr.ksplice(), &kernel, &dup_units, &mut Tracer::disabled()),
        Err(PreflightError::BadPack { .. })
    ));

    // A reloc target nothing can resolve. Fresh manager so the conflict
    // check cannot fire first.
    let mut bad_reloc = pack_a.clone();
    bad_reloc.id = "br".to_string();
    bad_reloc.units[0]
        .primary
        .symbols
        .push(ksplice_object::Symbol::undefined("no_such_symbol_xyz"));
    let sym_idx = bad_reloc.units[0].primary.symbols.len() - 1;
    if let Some(sec) = bad_reloc.units[0].primary.sections.first_mut() {
        sec.relocs.push(ksplice_object::Reloc {
            offset: 0,
            kind: ksplice_object::RelocKind::Abs64,
            symbol: sym_idx,
            addend: 0,
        });
    }
    let fresh = UpdateManager::new();
    assert!(matches!(
        ksplice_core::preflight(fresh.ksplice(), &kernel, &bad_reloc, &mut Tracer::disabled()),
        Err(PreflightError::UnknownRelocTarget { ref symbol, .. }) if symbol == "no_such_symbol_xyz"
    ));
}

/// §5.4 chain v0 → v1 → v2 on one function; reversing the *older* update
/// while the newer is live must re-point instead of refusing, and a full
/// unwind must restore the original text image.
#[test]
fn non_lifo_undo_repoints_the_chain() {
    let v0 = "int version() {\n    if (jiffies_now() < 0) {\n        return 0 - 1;\n    }\n    return 1;\n}\n";
    let v1 = v0.replace("return 1;", "return 2;");
    let v2 = v1.replace("return 2;", "return 3;");
    let src = tree(&[("m.kc", v0)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let text_baseline = kernel.mem.text_checksum();

    let mut ks = Ksplice::new();
    let patch1 = diff_for(&src, "m.kc", &v1);
    let (pack1, patched) = create_update("up1", &src, &patch1, &CreateOptions::default()).unwrap();
    ks.apply(&mut kernel, &pack1, &ApplyOptions::default())
        .unwrap();
    let patch2 = diff_for(&patched, "m.kc", &v2);
    let (pack2, _) = create_update("up2", &patched, &patch2, &CreateOptions::default()).unwrap();
    ks.apply(&mut kernel, &pack2, &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 3);

    // Reversing the older update re-points up2's chain onto the
    // original site.
    let ring = RingSink::new(256);
    let events = ring.handle();
    let mut tracer = Tracer::new().with_sink(Box::new(ring));
    let report = ks
        .undo_any_traced(&mut kernel, "up1", &ApplyOptions::default(), &mut tracer)
        .unwrap();
    assert_eq!(report.id, "up1");
    assert_eq!(report.sites_restored, 1);
    assert!(events.events().iter().any(|e| e.name == "undo.repointed"));

    // up1's module is gone; behaviour is still v2 through one hop.
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 3);
    assert!(!kernel.modules.iter().any(|m| m.name.contains("up1")));

    // Reversing the survivor restores the original kernel text exactly.
    ks.undo_any(&mut kernel, "up2", &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 1);
    assert_eq!(kernel.mem.text_checksum(), text_baseline);
}

/// Mid-stack reversal opens its window through the same `stop_machine`
/// as apply and top-of-stack undo: a missed barrier is retried (one
/// traced `undo.attempt` span per window), and a window that never
/// captures abandons with the chain and the text image untouched.
#[test]
fn non_lifo_undo_retries_missed_barriers_and_aborts_clean() {
    let v0 = "int version() {\n    if (jiffies_now() < 0) {\n        return 0 - 1;\n    }\n    return 1;\n}\n";
    let v1 = v0.replace("return 1;", "return 2;");
    let v2 = v1.replace("return 2;", "return 3;");
    let src = tree(&[("m.kc", v0)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let text_baseline = kernel.mem.text_checksum();

    let mut ks = Ksplice::new();
    let (pack1, patched) = create_update(
        "up1",
        &src,
        &diff_for(&src, "m.kc", &v1),
        &CreateOptions::default(),
    )
    .unwrap();
    ks.apply(&mut kernel, &pack1, &ApplyOptions::default())
        .unwrap();
    let patch2 = diff_for(&patched, "m.kc", &v2);
    let (pack2, _) = create_update("up2", &patched, &patch2, &CreateOptions::default()).unwrap();
    ks.apply(&mut kernel, &pack2, &ApplyOptions::default())
        .unwrap();

    // Two stalled rendezvous, then a capture: the re-point lands on the
    // third attempt.
    kernel
        .arm_fault(Fault::parse("barrier-stall:2").unwrap())
        .unwrap();
    let mut tracer = Tracer::new();
    let report = ks
        .undo_any_traced(&mut kernel, "up1", &ApplyOptions::default(), &mut tracer)
        .unwrap();
    assert_eq!(report.attempts, 3);
    let attempts = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "undo.attempt")
        .count();
    assert_eq!(attempts, 3, "one span per capture window");
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 3);

    // More stalls than attempts: the reversal abandons cleanly.
    let text_before = kernel.mem.text_checksum();
    kernel
        .arm_fault(Fault::parse("barrier-stall:2").unwrap())
        .unwrap();
    let opts = ApplyOptions::with_retry(RetryPolicy::fixed(2, 100));
    match ks.undo_any(&mut kernel, "up2", &opts).unwrap_err() {
        UndoError::NotQuiescent {
            fn_name, attempts, ..
        } => {
            assert!(fn_name.starts_with("<barrier:cpu"), "{fn_name}");
            assert_eq!(attempts, 2);
        }
        other => panic!("expected NotQuiescent, got {other}"),
    }
    assert_eq!(kernel.mem.text_checksum(), text_before);
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 3);

    // The fault is spent: the survivor reverses onto the original text.
    ks.undo_any(&mut kernel, "up2", &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 1);
    assert_eq!(kernel.mem.text_checksum(), text_baseline);
}

/// Disjoint updates (different functions) reversed in arbitrary order.
#[test]
fn non_lifo_undo_of_disjoint_updates_restores_text() {
    let src = tree(&[
        ("a.kc", "int f(int x) {\n    return x + 1;\n}\n"),
        ("b.kc", "int g(int x) {\n    return x + 2;\n}\n"),
        ("c.kc", "int h(int x) {\n    return x + 3;\n}\n"),
    ]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let text_baseline = kernel.mem.text_checksum();

    let mut ks = Ksplice::new();
    for (id, path, newc) in [
        ("ua", "a.kc", "int f(int x) {\n    return x + 10;\n}\n"),
        ("ub", "b.kc", "int g(int x) {\n    return x + 20;\n}\n"),
        ("uc", "c.kc", "int h(int x) {\n    return x + 30;\n}\n"),
    ] {
        let patch = diff_for(&src, path, newc);
        let (pack, _) = create_update(id, &src, &patch, &CreateOptions::default()).unwrap();
        ks.apply(&mut kernel, &pack, &ApplyOptions::default())
            .unwrap();
    }
    assert_eq!(kernel.call_function("f", &[1]).unwrap(), 11);

    // Middle first, then oldest, then newest.
    for id in ["ub", "ua", "uc"] {
        ks.undo_any(&mut kernel, id, &ApplyOptions::default())
            .unwrap();
    }
    assert_eq!(kernel.call_function("f", &[1]).unwrap(), 2);
    assert_eq!(kernel.call_function("g", &[1]).unwrap(), 3);
    assert_eq!(kernel.call_function("h", &[1]).unwrap(), 4);
    assert_eq!(kernel.mem.text_checksum(), text_baseline);
}

/// A later update that *calls into* code existing only in an older
/// update's module (a function that update introduced) entangles the
/// pair: the older reversal must be refused, naming the tying symbol.
#[test]
fn entangled_reversal_is_refused_with_the_tying_function() {
    // `audit` is deliberately loop-heavy so the optimiser cannot inline
    // it — the call must survive as a real cross-section reference.
    let audit = "int audit(int x) {\n    int i;\n    int s;\n    s = x;\n    \
for (i = 0; i < 3; i = i + 1) {\n        s = s + i;\n    }\n    return s;\n}\n";
    let v0 = "int policy(int x) {\n    return x + 1;\n}\n";
    // up1 introduces `audit` — it exists only in up1's primary module —
    // and makes `policy` call it.
    let v1 = format!("{audit}int policy(int x) {{\n    return audit(x) + 1;\n}}\n");
    // up2 (against v1) rewrites only `policy`; its replacement code still
    // calls `audit`, so its bindings resolve into up1's module.
    let v2 = format!("{audit}int policy(int x) {{\n    return audit(x) + 2;\n}}\n");
    let src = tree(&[("p.kc", v0)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    assert_eq!(kernel.call_function("policy", &[3]).unwrap(), 4);

    let mut ks = Ksplice::new();
    let patch1 = diff_for(&src, "p.kc", &v1);
    let (pack1, patched) = create_update("up1", &src, &patch1, &CreateOptions::default()).unwrap();
    ks.apply(&mut kernel, &pack1, &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("policy", &[3]).unwrap(), 7);

    let patch2 = diff_for(&patched, "p.kc", &v2);
    let (pack2, _) = create_update("up2", &patched, &patch2, &CreateOptions::default()).unwrap();
    ks.apply(&mut kernel, &pack2, &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("policy", &[3]).unwrap(), 8);

    let err = ks
        .undo_any(&mut kernel, "up1", &ApplyOptions::default())
        .unwrap_err();
    match &err {
        UndoError::Entangled {
            id,
            dependent,
            functions,
        } => {
            assert_eq!(id, "up1");
            assert_eq!(dependent, "up2");
            assert!(functions.iter().any(|f| f.contains("audit")), "{functions:?}");
        }
        other => panic!("expected Entangled, got {other}"),
    }
    // Nothing was disturbed; LIFO order still unwinds cleanly.
    assert_eq!(kernel.call_function("policy", &[3]).unwrap(), 8);
    ks.undo_any(&mut kernel, "up2", &ApplyOptions::default())
        .unwrap();
    ks.undo_any(&mut kernel, "up1", &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("policy", &[3]).unwrap(), 4);
}

/// The manager's undo path records the Reversed lifecycle state.
#[test]
fn manager_undo_any_updates_status() {
    let src = tree(&[("kernel/sys.kc", SYS)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let patch = diff_for(&src, "kernel/sys.kc", SYS_FIXED);
    let (pack, _) = create_update("fix", &src, &patch, &CreateOptions::default()).unwrap();

    let mut mgr = UpdateManager::new();
    mgr.apply_watched(
        &mut kernel,
        &pack,
        &mut [],
        &ApplyOptions::default(),
        &mut Tracer::disabled(),
    )
    .unwrap();
    let report = mgr
        .undo_any(
            &mut kernel,
            "fix",
            &ApplyOptions::default(),
            &mut Tracer::disabled(),
        )
        .unwrap();
    assert!(report.render().contains("site(s) restored"));
    assert_eq!(mgr.state("fix"), Some(UpdateState::Reversed));
    assert!(mgr.render_status().contains("reversed"));
}
