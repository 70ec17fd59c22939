//! End-to-end hot updates on a live simulated kernel.
//!
//! Every test follows the paper's workflow: boot a kernel from source
//! (built the way distributors ship them — monolithic sections, full
//! optimisation), construct an update with `ksplice-create` from a
//! unified diff, apply it to the *running* kernel, and observe behaviour
//! change without a reboot.

use std::collections::BTreeMap;

use ksplice_core::trace::{RingSink, Severity, Tracer};
use ksplice_core::{
    create_update, create_update_cached_traced, match_unit, ApplyError, ApplyOptions, BuildCache,
    CreateError, CreateOptions, Ksplice, MatchError,
};
use ksplice_kernel::{Kernel, ThreadState};
use ksplice_lang::{build_tree, Options, SourceTree};
use ksplice_patch::make_diff;

fn tree(files: &[(&str, &str)]) -> SourceTree {
    files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

/// Builds the patched variant of a tree and renders the unified diff.
fn diff_for(src: &SourceTree, path: &str, new_content: &str) -> String {
    make_diff(path, src.get(path).expect("file exists"), new_content).expect("contents differ")
}

fn apply_ok(kernel: &mut Kernel, ks: &mut Ksplice, src: &SourceTree, id: &str, patch: &str) {
    let (pack, _) = create_update(id, src, patch, &CreateOptions::default()).unwrap();
    ks.apply(kernel, &pack, &ApplyOptions::default()).unwrap();
}

const SYS: &str = "int max_fd = 4;\n\
int table[8];\n\
int sys_write(int fd, int v) {\n\
    if (fd > max_fd) {\n\
        return 0 - 9;\n\
    }\n\
    table[fd] = v;\n\
    return v;\n\
}\n\
int sys_read(int fd) {\n\
    if (fd > max_fd) {\n\
        return 0 - 9;\n\
    }\n\
    return table[fd];\n\
}\n";

/// The fix: `>` should be `>=` in both bounds checks (a classic
/// off-by-one giving access to table[4..8]).
const SYS_FIXED: &str = "int max_fd = 4;\n\
int table[8];\n\
int sys_write(int fd, int v) {\n\
    if (fd >= max_fd) {\n\
        return 0 - 9;\n\
    }\n\
    table[fd] = v;\n\
    return v;\n\
}\n\
int sys_read(int fd) {\n\
    if (fd >= max_fd) {\n\
        return 0 - 9;\n\
    }\n\
    return table[fd];\n\
}\n";

#[test]
fn end_to_end_apply_and_undo() {
    let src = tree(&[("kernel/sys.kc", SYS)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    // The vulnerable behaviour: fd == 4 passes the check.
    assert_eq!(kernel.call_function("sys_write", &[4, 77]).unwrap(), 77);

    let patch = diff_for(&src, "kernel/sys.kc", SYS_FIXED);
    let (pack, _) =
        create_update("cve-off-by-one", &src, &patch, &CreateOptions::default()).unwrap();
    assert_eq!(pack.replaced_fn_count(), 2);

    let mut ks = Ksplice::new();
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();

    // Fixed, live, no reboot.
    assert_eq!(
        kernel.call_function("sys_write", &[4, 88]).unwrap() as i64,
        -9
    );
    assert_eq!(kernel.call_function("sys_write", &[3, 55]).unwrap(), 55);
    assert_eq!(kernel.call_function("sys_read", &[3]).unwrap(), 55);

    // State survived: the value written before the update is still there.
    assert_eq!(kernel.call_function("sys_read", &[2]).unwrap(), 0);

    // ksplice-undo restores the vulnerable code.
    ks.undo_any(&mut kernel, "cve-off-by-one", &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("sys_write", &[4, 99]).unwrap(), 99);
}

#[test]
fn clean_apply_traces_the_pipeline_without_warnings() {
    let src = tree(&[("kernel/sys.kc", SYS)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();

    let ring = RingSink::new(512);
    let events = ring.handle();
    let mut tracer = Tracer::new().with_sink(Box::new(ring));

    let patch = diff_for(&src, "kernel/sys.kc", SYS_FIXED);
    let (pack, _) = create_update_cached_traced(
        "cve-off-by-one",
        &src,
        &patch,
        &CreateOptions::default(),
        &BuildCache::new(),
        &mut tracer,
    )
    .unwrap();
    let report = Ksplice::new()
        .apply_traced(&mut kernel, &pack, &ApplyOptions::default(), &mut tracer)
        .unwrap();

    // Every stage of the pipeline left its marker...
    for name in [
        "create.start",
        "differ.unit",
        "create.packaged",
        "apply.start",
        "runpre.unit_start",
        "runpre.unit_matched",
        "apply.stop_machine",
        "apply.committed",
    ] {
        assert_eq!(events.named(name).len(), 1, "missing event {name}");
    }
    // ...and a clean apply leaks no Warn/Error events at all.
    assert!(
        events.at_least(Severity::Warn).is_empty(),
        "unexpected warnings: {:?}",
        events.at_least(Severity::Warn)
    );
    assert_eq!(report.attempts, 1);
    assert_eq!(report.sites, 2);
    assert!(report.stage_steps.iter().any(|(s, _)| *s == "stop_machine"));
    assert_eq!(tracer.counter("runpre.units_matched"), 1);
    assert_eq!(tracer.counter("apply.trampolines_written"), 2);
    assert!(tracer.counter("runpre.bytes_matched") > 0);
}

#[test]
fn state_is_preserved_across_update() {
    let src = tree(&[(
        "net/conn.kc",
        "int active;\n\
         int open_conn() {\n\
             active = active + 1;\n\
             return active;\n\
         }\n\
         int count_conns() {\n\
             return active;\n\
         }\n",
    )]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    for _ in 0..5 {
        kernel.call_function("open_conn", &[]).unwrap();
    }
    assert_eq!(kernel.call_function("count_conns", &[]).unwrap(), 5);

    // Patch open_conn to log; `active` must keep its live value — the
    // paper's "network connections and open applications are not lost".
    let patch = diff_for(
        &src,
        "net/conn.kc",
        "int active;\n\
         int open_conn() {\n\
             active = active + 1;\n\
             printk(\"conn opened\");\n\
             return active;\n\
         }\n\
         int count_conns() {\n\
             return active;\n\
         }\n",
    );
    let mut ks = Ksplice::new();
    apply_ok(&mut kernel, &mut ks, &src, "add-logging", &patch);
    assert_eq!(kernel.call_function("open_conn", &[]).unwrap(), 6);
    assert_eq!(kernel.klog.last().unwrap(), "conn opened");
}

#[test]
fn ambiguous_static_symbols_resolved_by_run_pre_matching() {
    // Two drivers each with a file-scope `static int debug` — the
    // CVE-2005-4639 situation (§6.3): a symbol-table lookup cannot tell
    // the two `debug`s apart, run-pre matching can.
    let dst = "static int debug;\n\
        int dst_tune(int v) {\n\
            debug = debug + v;\n\
            return debug;\n\
        }\n";
    let dst_ca = "static int debug;\n\
        int ca_get_slot_info(int slot) {\n\
            debug = debug + 1;\n\
            if (slot > 4) {\n\
                return 0 - 22;\n\
            }\n\
            return debug * 100 + slot;\n\
        }\n";
    let src = tree(&[("drivers/dst.kc", dst), ("drivers/dst_ca.kc", dst_ca)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    // Make the two debug counters diverge so a wrong resolution is
    // observable.
    kernel.call_function("dst_tune", &[50]).unwrap();
    assert_eq!(kernel.call_function("ca_get_slot_info", &[1]).unwrap(), 101);

    // Patch dst_ca.kc's function (which reads ITS OWN `debug`).
    let patch = diff_for(
        &src,
        "drivers/dst_ca.kc",
        "static int debug;\n\
        int ca_get_slot_info(int slot) {\n\
            debug = debug + 1;\n\
            if (slot > 4 || slot < 0) {\n\
                return 0 - 22;\n\
            }\n\
            return debug * 100 + slot;\n\
        }\n",
    );
    let mut ks = Ksplice::new();
    apply_ok(&mut kernel, &mut ks, &src, "cve-2005-4639", &patch);
    // The replacement code must use dst_ca's debug (value 1 → 2), not
    // dst.kc's (value 50).
    assert_eq!(kernel.call_function("ca_get_slot_info", &[2]).unwrap(), 202);
    assert_eq!(
        kernel
            .call_function("ca_get_slot_info", &[-1i64 as u64])
            .unwrap() as i64,
        -22
    );
    // dst.kc's counter is untouched.
    assert_eq!(kernel.call_function("dst_tune", &[0]).unwrap(), 50);
}

#[test]
fn wrong_source_aborts_via_run_pre_mismatch() {
    // Boot one kernel but hand ksplice-create a *different* "original"
    // source — §4.2's "original source code that does not actually
    // correspond to the running kernel".
    let real = tree(&[(
        "m.kc",
        "int f(int x) {\n    if (x > 2) {\n        return 7;\n    }\n    return x;\n}\n",
    )]);
    let wrong = tree(&[(
        "m.kc",
        "int f(int x) {\n    if (x > 3) {\n        return 9;\n    }\n    return x;\n}\n",
    )]);
    let mut kernel = Kernel::boot(&real, &Options::distro()).unwrap();
    let patch = diff_for(
        &wrong,
        "m.kc",
        "int f(int x) {\n    if (x >= 3) {\n        return 9;\n    }\n    return x;\n}\n",
    );
    let (pack, _) = create_update("bad", &wrong, &patch, &CreateOptions::default()).unwrap();
    let mut ks = Ksplice::new();
    let err = ks
        .apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, ApplyError::Match(MatchError::Mismatch { .. })),
        "{err}"
    );
    // Nothing was changed; the kernel still runs the original code.
    assert_eq!(kernel.call_function("f", &[5]).unwrap(), 7);
    assert!(ks.live_updates().count() == 0);

    // The same failure with a tracer attached: the mismatch event names
    // the unit and the exact divergent byte.
    let ring = RingSink::new(256);
    let events = ring.handle();
    let mut tracer = Tracer::new().with_sink(Box::new(ring));
    let err = ks
        .apply_traced(&mut kernel, &pack, &ApplyOptions::default(), &mut tracer)
        .unwrap_err();
    let (unit, function, pre_offset, expected, actual) = match &err {
        ApplyError::Match(MatchError::Mismatch {
            unit,
            function,
            pre_offset,
            bytes: Some((expected, actual)),
            ..
        }) => (
            unit.clone(),
            function.clone(),
            *pre_offset,
            *expected,
            *actual,
        ),
        other => panic!("expected a byte-level mismatch, got {other}"),
    };
    assert_eq!(unit, "m.kc");
    assert_eq!(function, "f");
    let mismatches = events.named("runpre.mismatch");
    assert_eq!(mismatches.len(), 1);
    let e = &mismatches[0];
    assert_eq!(e.severity, Severity::Error);
    assert_eq!(e.str_field("unit"), Some("m.kc"));
    assert_eq!(e.str_field("function"), Some("f"));
    assert_eq!(e.u64_field("pre_offset"), Some(pre_offset));
    assert_eq!(e.u64_field("expected_byte"), Some(expected as u64));
    assert_eq!(e.u64_field("actual_byte"), Some(actual as u64));
    assert_eq!(events.named("apply.abort").len(), 1);
    assert_eq!(tracer.counter("runpre.units_aborted"), 1);
}

#[test]
fn different_compiler_version_aborts() {
    // The running kernel was built by "compiler v2"; ksplice-create uses
    // v1. Codegen differs (register choice, alignment), so run-pre
    // matching must abort rather than patch blindly (§4.3).
    let src = tree(&[("m.kc", "int f(int a, int b) {\n    return a * 3 + b;\n}\n")]);
    let distro_v2 = Options {
        cc_version: 2,
        ..Options::distro()
    };
    let mut kernel = Kernel::boot(&src, &distro_v2).unwrap();
    let patch = diff_for(
        &src,
        "m.kc",
        "int f(int a, int b) {\n    return a * 4 + b;\n}\n",
    );
    let (pack, _) = create_update("v-mismatch", &src, &patch, &CreateOptions::default()).unwrap();
    let mut ks = Ksplice::new();
    let err = ks
        .apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap_err();
    assert!(matches!(err, ApplyError::Match(_)), "{err}");
}

#[test]
fn matches_despite_branch_form_and_alignment_differences() {
    // The run kernel (monolithic, -O2) uses rel8 branches and aligned
    // loop heads; the pre build (function-sections) uses rel32 and no
    // alignment. Run-pre matching must reconcile both (§4.3) — this is
    // the "none of the original binary kernels had -ffunction-sections
    // enabled, but run-pre matching always succeeded" property.
    let body = "int crunch(int n) {\n\
            int i;\n\
            int acc;\n\
            acc = 0;\n\
            for (i = 0; i < n; i = i + 1) {\n\
                if (i % 3 == 0) {\n\
                    acc = acc + i;\n\
                } else {\n\
                    acc = acc - 1;\n\
                }\n\
            }\n\
            while (acc > 100) {\n\
                acc = acc - 7;\n\
            }\n\
            return acc;\n\
        }\n\
        int wrapper(int n) {\n\
            return crunch(n) + 1;\n\
        }\n";
    let src = tree(&[("m.kc", body)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let want = kernel.call_function("crunch", &[50]).unwrap();

    // Sanity: the monolithic .text really does contain short branches and
    // alignment nops that the pre build lacks (otherwise this test proves
    // nothing).
    let distro_set = build_tree(&src, &Options::distro()).unwrap();
    let mono = distro_set.get("m.kc").unwrap();
    let (_, text) = mono.section_by_name(".text").unwrap();
    let has_rel8 = text.data.iter().any(|&b| (0x40..0x48).contains(&b));
    assert!(has_rel8 || text.data.windows(2).any(|w| w == [0x0e, 8]));

    let patched = body.replace("acc = acc - 7;", "acc = acc - 9;");
    let patch = diff_for(&src, "m.kc", &patched);
    let mut ks = Ksplice::new();
    apply_ok(&mut kernel, &mut ks, &src, "tweak", &patch);
    let got = kernel.call_function("crunch", &[50]).unwrap();
    assert_ne!(got, want);
    // wrapper (unchanged) now reaches the replacement through the
    // trampoline.
    assert_eq!(kernel.call_function("wrapper", &[50]).unwrap(), got + 1);
}

#[test]
fn non_quiescent_function_aborts_then_succeeds() {
    let src = tree(&[(
        "kernel/worker.kc",
        "int work_done;\n\
         int slow_worker(int rounds) {\n\
             int i;\n\
             for (i = 0; i < rounds; i = i + 1) {\n\
                 msleep(2);\n\
             }\n\
             work_done = work_done + 1;\n\
             return 0;\n\
         }\n",
    )]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    // Park a thread asleep *inside* slow_worker.
    let tid = kernel.spawn("slow_worker", &[1000]).unwrap();
    kernel.run(200);
    assert!(matches!(
        kernel.thread(tid).unwrap().state,
        ThreadState::Sleeping(_) | ThreadState::Runnable
    ));

    let patch = diff_for(
        &src,
        "kernel/worker.kc",
        "int work_done;\n\
         int slow_worker(int rounds) {\n\
             int i;\n\
             for (i = 0; i < rounds; i = i + 1) {\n\
                 msleep(3);\n\
             }\n\
             work_done = work_done + 2;\n\
             return 0;\n\
         }\n",
    );
    let (pack, _) = create_update("w", &src, &patch, &CreateOptions::default()).unwrap();
    let mut ks = Ksplice::new();
    // Short retries cannot outlast a 1000-round sleeper.
    let opts = ApplyOptions::with_retry(ksplice_core::RetryPolicy::fixed(3, 100));
    let err = ks.apply(&mut kernel, &pack, &opts).unwrap_err();
    assert!(
        matches!(err, ApplyError::NotQuiescent { .. }),
        "expected quiescence failure, got {err}"
    );

    // Let the worker finish; the retry loop now succeeds (§5.2).
    while !matches!(kernel.thread(tid).unwrap().state, ThreadState::Exited(_)) {
        kernel.run(1_000_000);
    }
    ks.apply(&mut kernel, &pack, &opts).unwrap();
}

#[test]
fn data_init_change_needs_custom_code_then_hook_fixes_live_instance() {
    // Table 1's dominant failure class: the patch changes how a datum is
    // initialised. Plain ksplice-create refuses; with programmer-written
    // custom code (a ksplice_apply hook that migrates the live instance)
    // the update applies and both old and new state are right.
    let base = "int rate_limit = 100;\n\
        int allow(int n) {\n\
            if (n > rate_limit) {\n\
                return 0;\n\
            }\n\
            return 1;\n\
        }\n";
    let src = tree(&[("net/rate.kc", base)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    assert_eq!(kernel.call_function("allow", &[150]).unwrap(), 0);

    // The plain security patch tightens the default limit.
    let plain = base.replace("int rate_limit = 100;", "int rate_limit = 10;");
    let patch = diff_for(&src, "net/rate.kc", &plain);
    let err = create_update("cve-rate", &src, &patch, &CreateOptions::default()).unwrap_err();
    assert!(matches!(err, CreateError::DataSemantics { .. }), "{err}");

    // The programmer's version: same change plus custom code run while
    // the machine is stopped (§5.3) that rewrites the live value.
    let custom = plain.clone()
        + "int fix_live_limit() {\n\
               rate_limit = 10;\n\
               return 0;\n\
           }\n\
           ksplice_apply(fix_live_limit);\n";
    let patch = diff_for(&src, "net/rate.kc", &custom);
    let opts = CreateOptions {
        accept_data_changes: true,
        ..CreateOptions::default()
    };
    let (pack, _) = create_update("cve-rate", &src, &patch, &opts).unwrap();
    let mut ks = Ksplice::new();
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();
    // The live instance was migrated by the hook.
    assert_eq!(kernel.call_function("allow", &[50]).unwrap(), 0);
    assert_eq!(kernel.call_function("allow", &[5]).unwrap(), 1);
}

#[test]
fn shadow_data_structures_extend_structs_without_layout_change() {
    // CVE-2005-2709's class: the fix wants a new per-object field. The
    // DynAMOS-style shadow approach (§5.3/§7.1) attaches side storage
    // keyed by the object's address instead of growing the struct.
    let base = "struct sock { int port; int state; };\n\
        struct sock socks[4];\n\
        int sock_open(int i, int port) {\n\
            socks[i].port = port;\n\
            socks[i].state = 1;\n\
            return 0;\n\
        }\n\
        int sock_send(int i, int n) {\n\
            if (socks[i].state != 1) {\n\
                return 0 - 1;\n\
            }\n\
            return n;\n\
        }\n";
    let src = tree(&[("net/sock.kc", base)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    kernel.call_function("sock_open", &[0, 80]).unwrap();
    kernel.call_function("sock_open", &[1, 443]).unwrap();

    // The fix: track a per-socket byte quota (new state!) via shadows.
    let patched = "struct sock { int port; int state; };\n\
        struct sock socks[4];\n\
        int sock_open(int i, int port) {\n\
            int *quota;\n\
            socks[i].port = port;\n\
            socks[i].state = 1;\n\
            quota = ksplice_shadow_attach(&socks[i], 7, 8);\n\
            *quota = 1000;\n\
            return 0;\n\
        }\n\
        int sock_send(int i, int n) {\n\
            int *quota;\n\
            if (socks[i].state != 1) {\n\
                return 0 - 1;\n\
            }\n\
            quota = ksplice_shadow_get(&socks[i], 7);\n\
            if (quota == 0) {\n\
                return 0 - 1;\n\
            }\n\
            if (n > *quota) {\n\
                return 0 - 1;\n\
            }\n\
            *quota = *quota - n;\n\
            return n;\n\
        }\n\
        int migrate_socks() {\n\
            int i;\n\
            int *quota;\n\
            for (i = 0; i < 4; i = i + 1) {\n\
                if (socks[i].state == 1) {\n\
                    quota = ksplice_shadow_attach(&socks[i], 7, 8);\n\
                    *quota = 1000;\n\
                }\n\
            }\n\
            return 0;\n\
        }\n\
        ksplice_apply(migrate_socks);\n";
    let patch = diff_for(&src, "net/sock.kc", patched);
    let (pack, _) = create_update("cve-shadow", &src, &patch, &CreateOptions::default()).unwrap();
    let mut ks = Ksplice::new();
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();

    // Pre-existing sockets were migrated and enforce the quota.
    assert_eq!(kernel.call_function("sock_send", &[0, 600]).unwrap(), 600);
    assert_eq!(
        kernel.call_function("sock_send", &[0, 600]).unwrap() as i64,
        -1
    );
    assert_eq!(kernel.call_function("sock_send", &[1, 100]).unwrap(), 100);
}

#[test]
fn stacked_updates_and_ordered_undo() {
    // §5.4: patching a previously-patched kernel. The second create uses
    // the previously-patched source; its run-pre matching must match the
    // first update's replacement code.
    let v0 = "int version() {\n    if (jiffies_now() < 0) {\n        return 0 - 1;\n    }\n    return 1;\n}\n";
    let v1 = v0.replace("return 1;", "return 2;");
    let v2 = v1.replace("return 2;", "return 3;");
    let src = tree(&[("m.kc", v0)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 1);

    let mut ks = Ksplice::new();
    let patch1 = diff_for(&src, "m.kc", &v1);
    let (pack1, patched_src) =
        create_update("up1", &src, &patch1, &CreateOptions::default()).unwrap();
    ks.apply(&mut kernel, &pack1, &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 2);

    // Second update against the previously-patched source.
    let patch2 = diff_for(&patched_src, "m.kc", &v2);
    let (pack2, _) =
        create_update("up2", &patched_src, &patch2, &CreateOptions::default()).unwrap();
    ks.apply(&mut kernel, &pack2, &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 3);

    // Unwinding newest first steps back through each version.
    ks.undo_any(&mut kernel, "up2", &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 2);
    ks.undo_any(&mut kernel, "up1", &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("version", &[]).unwrap(), 1);
}

#[test]
fn helper_modules_are_unloaded_after_apply() {
    let src = tree(&[(
        "m.kc",
        "int f(int x) {\n    if (x > 1) {\n        return 1;\n    }\n    return 2;\n}\n",
    )]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let patch = diff_for(
        &src,
        "m.kc",
        "int f(int x) {\n    if (x > 1) {\n        return 5;\n    }\n    return 2;\n}\n",
    );
    let mut ks = Ksplice::new();
    apply_ok(&mut kernel, &mut ks, &src, "u", &patch);
    // No helper module regions or entries remain; one primary remains.
    assert!(!kernel.modules.iter().any(|m| m.name.contains("helper")));
    assert_eq!(
        kernel
            .modules
            .iter()
            .filter(|m| m.name.contains("primary"))
            .count(),
        1
    );
    assert!(!kernel
        .mem
        .regions()
        .iter()
        .any(|r| r.name.contains("helper")));
}

#[test]
fn interrupted_threads_resume_through_trampolines() {
    // A thread busy in a loop *outside* the patched function keeps
    // running across the update and picks up the new behaviour on its
    // next call — the "0.7 ms interruption, no state loss" story.
    let src = tree(&[(
        "m.kc",
        // `step` contains a loop so the optimiser cannot inline it into
        // `driver` — otherwise the diff would (correctly!) flag `driver`
        // too and the busy thread would block the update.
        "int total;\n\
         int step(int i) {\n\
             int k;\n\
             int acc;\n\
             acc = 0;\n\
             for (k = 0; k < i; k = k + 1) {\n\
                 acc = acc + 1;\n\
             }\n\
             return acc;\n\
         }\n\
         int driver(int rounds) {\n\
             int i;\n\
             for (i = 0; i < rounds; i = i + 1) {\n\
                 total = total + step(1);\n\
                 yield_cpu();\n\
             }\n\
             return total;\n\
         }\n\
         int get_total() {\n\
             return total;\n\
         }\n",
    )]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let tid = kernel.spawn("driver", &[400]).unwrap();
    kernel.run(2_000); // partially done

    let patch = diff_for(
        &src,
        "m.kc",
        &src.get("m.kc")
            .unwrap()
            .replace("return acc;", "return acc * 10;"),
    );
    let (pack, _) = create_update("boost", &src, &patch, &CreateOptions::default()).unwrap();
    let mut ks = Ksplice::new();
    // The driver sits in `driver`, not `step`; only `step` is replaced, so
    // the safety check passes while the thread is mid-loop.
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();

    while !matches!(kernel.thread(tid).unwrap().state, ThreadState::Exited(_)) {
        kernel.run(1_000_000);
    }
    let total = kernel.call_function("get_total", &[]).unwrap();
    // Some rounds at 1, the rest at 10 — strictly between the extremes.
    assert!(total > 400 && total < 4000, "total = {total}");
    assert_eq!(kernel.stop_machine_count, 1);
    assert!(kernel.last_stop_machine.is_some());
}

#[test]
fn patch_to_assembly_unit() {
    // §6.3's closing example: a patch to a pure assembly file
    // (CVE-2007-4573's ia32entry.S) flows through the same machinery.
    let entry = ".global bounds_check\nbounds_check:\ncmpi r1, 255\njg .Lbad\nmov r0, r1\nret\n.Lbad:\nmov r0, -14\nret\n";
    let src = tree(&[("arch/entry.ks", entry)]);
    let mut kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    // The bug: negative values pass the check (no zero-extension).
    assert_eq!(
        kernel
            .call_function("bounds_check", &[-5i64 as u64])
            .unwrap() as i64,
        -5
    );
    let fixed = entry.replace(
        "cmpi r1, 255\njg .Lbad\n",
        "cmpi r1, 255\njg .Lbad\ncmpi r1, 0\njl .Lbad\n",
    );
    let patch = diff_for(&src, "arch/entry.ks", &fixed);
    let (pack, _) =
        create_update("cve-2007-4573", &src, &patch, &CreateOptions::default()).unwrap();
    let mut ks = Ksplice::new();
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();
    assert_eq!(
        kernel
            .call_function("bounds_check", &[-5i64 as u64])
            .unwrap() as i64,
        -14
    );
    assert_eq!(kernel.call_function("bounds_check", &[7]).unwrap(), 7);
}

#[test]
fn match_unit_directly_reports_bindings() {
    // White-box check of the §4.3 machinery: bindings recovered from run
    // relocations hit the true addresses.
    let src = tree(&[(
        "m.kc",
        "int shared_counter;\n\
         int touch(int v) {\n\
             shared_counter = shared_counter + v;\n\
             return shared_counter;\n\
         }\n",
    )]);
    let kernel = Kernel::boot(&src, &Options::distro()).unwrap();
    let pre = build_tree(&src, &Options::pre_post()).unwrap();
    let m = match_unit(&kernel, pre.get("m.kc").unwrap(), &BTreeMap::new()).unwrap();
    let touch = m.fn_addrs.get("touch").unwrap();
    let ksym = kernel.syms.lookup_global("touch").unwrap();
    assert_eq!(touch.run_addr, ksym.addr);
    let counter_binding = m.bindings.get("shared_counter").copied().unwrap();
    let counter_sym = kernel.syms.lookup_global("shared_counter").unwrap();
    assert_eq!(counter_binding, counter_sym.addr);
}
