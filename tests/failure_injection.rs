//! Failure injection: every abort path leaves the kernel untouched.
//!
//! The rows of [`abort_stage_table`] drive `Ksplice::apply_traced` into
//! each apply abort stage a test can reach, one row per stage (two for
//! `stop_machine`: a busy stack and a failing `ksplice_apply` hook).
//! Every row checks the clean-abort contract the same way: the expected
//! `ApplyError` variant, exactly one `apply.abort` event naming the
//! stage, one `apply.rollback_verified` with `restored = true`, and a
//! text checksum, region list and module list equal to the pre-apply
//! kernel's. Each row also pins an FNV-1a digest of its JSONL event
//! stream, timestamps included, so the abort path cannot change what it
//! reports without this test noticing.
//!
//! The `load_primaries` row cannot use a fault: one armed with
//! `module-load:N` fails the *next* N loads, which are the helper loads.
//! It sabotages the primary instead, with a relocation the loader
//! rejects after it has placed the module's sections; the loader unmaps
//! them again, so the row holds the same contract as the others.
//!
//! The one stage no row reaches:
//!
//! * `sites` with no match entry (`ApplyError::MissingMatch`) — run-pre
//!   matching records every function of a matched unit, so a replaced
//!   function always has an entry.

use ksplice::core::{
    create_update, ApplyError, ApplyOptions, CreateOptions, Ksplice, Tracer, UpdatePack,
};
use ksplice::kernel::{Fault, Kernel};
use ksplice::lang::{Options, SourceTree};
use ksplice::patch::make_diff;
use ksplice_trace::{Event, RingSink, Value};

fn simple_tree() -> SourceTree {
    let mut t = SourceTree::new();
    t.insert(
        "m.kc",
        "int guard(int x) {\n    if (x > 10) {\n        return 0 - 1;\n    }\n    return x;\n}\n",
    );
    t
}

const PATCHED_GUARD: &str =
    "int guard(int x) {\n    if (x >= 10) {\n        return 0 - 1;\n    }\n    return x;\n}\n";

fn simple_pack(id: &str) -> UpdatePack {
    let tree = simple_tree();
    let patch = make_diff("m.kc", tree.get("m.kc").unwrap(), PATCHED_GUARD).unwrap();
    create_update(id, &tree, &patch, &CreateOptions::default())
        .unwrap()
        .0
}

/// The fixed `guard` update plus `extra` appended to `m.kc` (hooks).
fn hooked_pack(id: &str, extra: &str) -> UpdatePack {
    let tree = simple_tree();
    let patched = format!("{PATCHED_GUARD}{extra}");
    let patch = make_diff("m.kc", tree.get("m.kc").unwrap(), &patched).unwrap();
    create_update(id, &tree, &patch, &CreateOptions::default())
        .unwrap()
        .0
}

fn boot(tree: &SourceTree) -> Kernel {
    Kernel::boot(tree, &Options::distro()).unwrap()
}

/// FNV-1a over the event stream as a JSONL sink writes it, step-clock
/// timestamps included. The one host wall-clock field, a stop_machine
/// window's `pause_us`, is zeroed first: it differs run to run.
fn jsonl_digest(events: &[Event]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events {
        let mut e = e.clone();
        for (k, v) in &mut e.fields {
            if k == "pause_us" {
                *v = Value::U64(0);
            }
        }
        for b in e.to_json().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The region table minus thread stacks. Running a hook spawns a call
/// thread whose stack the kernel keeps pooled for the next call; like
/// the image differ, the check treats stacks as scratch space.
fn mapped_regions(kernel: &Kernel) -> Vec<ksplice::kernel::Region> {
    kernel
        .mem
        .regions()
        .iter()
        .filter(|r| !r.name.starts_with("stack:"))
        .cloned()
        .collect()
}

/// Applies `pack` and checks the clean-abort contract for `stage`.
/// Returns the error (for row-specific checks) and the event digest.
fn abort_at(
    stage: &str,
    kernel: &mut Kernel,
    pack: &UpdatePack,
    opts: &ApplyOptions,
    expected: fn(&ApplyError) -> bool,
) -> (ApplyError, u64) {
    let text_before = kernel.mem.text_checksum();
    let regions_before = mapped_regions(kernel);
    let modules_before: Vec<String> = kernel.modules.iter().map(|m| m.name.clone()).collect();
    let ring = RingSink::new(1 << 16);
    let events = ring.handle();
    let mut tracer = Tracer::new().with_sink(Box::new(ring));
    let err = Ksplice::new()
        .apply_traced(kernel, pack, opts, &mut tracer)
        .expect_err("the apply must abort");
    assert!(expected(&err), "{stage}: unexpected error {err:?}");

    let aborts = events.named("apply.abort");
    assert_eq!(aborts.len(), 1, "{stage}: one apply.abort, got {aborts:?}");
    assert_eq!(aborts[0].str_field("stage"), Some(stage), "{aborts:?}");
    let verified = events.named("apply.rollback_verified");
    assert_eq!(verified.len(), 1, "{stage}: {verified:?}");
    assert_eq!(
        verified[0].field("restored").and_then(|v| v.as_bool()),
        Some(true),
        "{stage}: {verified:?}"
    );

    assert_eq!(kernel.mem.text_checksum(), text_before, "{stage}: text");
    assert_eq!(mapped_regions(kernel), regions_before, "{stage}: regions");
    let modules: Vec<String> = kernel.modules.iter().map(|m| m.name.clone()).collect();
    assert_eq!(modules, modules_before, "{stage}: modules");
    (err, jsonl_digest(&events.events()))
}

fn load_helpers_row() -> (ApplyError, u64) {
    let mut kernel = boot(&simple_tree());
    kernel
        .arm_fault(Fault::parse("module-load:1").unwrap())
        .unwrap();
    abort_at(
        "load_helpers",
        &mut kernel,
        &simple_pack("x"),
        &ApplyOptions::default(),
        |e| matches!(e, ApplyError::Link(_)),
    )
}

fn runpre_row() -> (ApplyError, u64) {
    // A kernel that has no `guard` at all.
    let mut other = SourceTree::new();
    other.insert("n.kc", "int different() {\n    return 5;\n}\n");
    let mut kernel = boot(&other);
    abort_at(
        "runpre",
        &mut kernel,
        &simple_pack("x"),
        &ApplyOptions::default(),
        |e| matches!(e, ApplyError::Match(_)),
    )
}

fn load_primaries_row() -> (ApplyError, u64) {
    // A relocation whose symbol index lies past the symbol table: the
    // primary's sections are placed before relocation rejects it.
    let mut kernel = boot(&simple_tree());
    let mut pack = simple_pack("badreloc");
    let primary = &mut pack.units[0].primary;
    let symbol = primary.symbols.len() + 5;
    let (sec_idx, _) = primary
        .section_by_name(".text.guard")
        .expect("replacement section");
    primary.sections[sec_idx]
        .relocs
        .push(ksplice::object::Reloc {
            offset: 2,
            kind: ksplice::object::RelocKind::Abs64,
            symbol,
            addend: 0,
        });
    let out = abort_at(
        "load_primaries",
        &mut kernel,
        &pack,
        &ApplyOptions::default(),
        |e| matches!(e, ApplyError::Link(_)),
    );
    assert_eq!(kernel.call_function("guard", &[10]).unwrap(), 10);
    out
}

fn resolve_row() -> (ApplyError, u64) {
    // The replacement code has no relocation of its own (it is pure
    // register arithmetic), so the pack is sabotaged with one against a
    // symbol the running kernel does not have.
    let mut kernel = boot(&simple_tree());
    let mut pack = simple_pack("sab");
    let primary = &mut pack.units[0].primary;
    let idx = primary.add_symbol(ksplice::object::Symbol::undefined(
        "no_such_symbol_anywhere",
    ));
    let (sec_idx, _) = primary
        .section_by_name(".text.guard")
        .expect("replacement section");
    primary.sections[sec_idx]
        .relocs
        .push(ksplice::object::Reloc {
            offset: 2,
            kind: ksplice::object::RelocKind::Abs64,
            symbol: idx,
            addend: 0,
        });
    let out = abort_at(
        "resolve",
        &mut kernel,
        &pack,
        &ApplyOptions::default(),
        |e| matches!(e, ApplyError::Unresolved { .. }),
    );
    assert_eq!(kernel.call_function("guard", &[10]).unwrap(), 10);
    out
}

fn resolve_hooks_row() -> (ApplyError, u64) {
    // The hook entry is re-pointed at a native (`kmalloc`): the loader
    // resolves natives, the hook resolver does not.
    let mut kernel = boot(&simple_tree());
    let mut pack = hooked_pack(
        "hookref",
        "int ok_hook() {\n    return 0;\n}\nksplice_pre_apply(ok_hook);\n",
    );
    let primary = &mut pack.units[0].primary;
    let idx = primary.add_symbol(ksplice::object::Symbol::undefined("kmalloc"));
    let (sec_idx, _) = primary
        .section_by_name(".ksplice.pre_apply")
        .expect("hook section");
    for r in &mut primary.sections[sec_idx].relocs {
        r.symbol = idx;
    }
    abort_at(
        "resolve_hooks",
        &mut kernel,
        &pack,
        &ApplyOptions::default(),
        |e| matches!(e, ApplyError::Unresolved { .. }),
    )
}

fn sites_row() -> (ApplyError, u64) {
    // An assembly function shorter than the 5-byte trampoline.
    let mut tree = simple_tree();
    tree.insert("a.ks", ".global tiny\ntiny:\n    ret\n");
    let mut kernel = boot(&tree);
    let patch = make_diff(
        "a.ks",
        tree.get("a.ks").unwrap(),
        ".global tiny\ntiny:\n    mov r0, 1\n    ret\n",
    )
    .unwrap();
    let (pack, _) = create_update("tiny", &tree, &patch, &CreateOptions::default()).unwrap();
    abort_at("sites", &mut kernel, &pack, &ApplyOptions::default(), |e| {
        matches!(e, ApplyError::TooShort { .. })
    })
}

fn pre_apply_hooks_row() -> (ApplyError, u64) {
    let mut kernel = boot(&simple_tree());
    let pack = hooked_pack(
        "prehook",
        "int refuse() {\n    return 3;\n}\nksplice_pre_apply(refuse);\n",
    );
    abort_at(
        "pre_apply_hooks",
        &mut kernel,
        &pack,
        &ApplyOptions::default(),
        |e| {
            matches!(
                e,
                ApplyError::Hook {
                    kind: "ksplice_pre_apply",
                    ..
                }
            )
        },
    )
}

fn stop_machine_busy_row() -> (ApplyError, u64) {
    let opts = ApplyOptions::default();
    let mut kernel = boot(&simple_tree());
    let windows = opts.retry.max_attempts;
    kernel.arm_fault(Fault::StackBusy { windows }).unwrap();
    let out = abort_at(
        "stop_machine",
        &mut kernel,
        &simple_pack("busy"),
        &opts,
        |e| matches!(e, ApplyError::NotQuiescent { .. }),
    );
    match &out.0 {
        ApplyError::NotQuiescent { attempts, .. } => assert_eq!(*attempts, windows),
        other => panic!("{other:?}"),
    }
    out
}

fn stop_machine_hook_row() -> (ApplyError, u64) {
    let mut kernel = boot(&simple_tree());
    // Custom code whose apply hook reports failure.
    let pack = hooked_pack(
        "hooked",
        "int bad_hook() {\n    return 7;\n}\nksplice_apply(bad_hook);\n",
    );
    let out = abort_at(
        "stop_machine",
        &mut kernel,
        &pack,
        &ApplyOptions::default(),
        |e| {
            matches!(
                e,
                ApplyError::Hook {
                    kind: "ksplice_apply",
                    ..
                }
            )
        },
    );
    // The trampoline was rolled back: old behaviour intact.
    assert_eq!(kernel.call_function("guard", &[10]).unwrap(), 10);
    out
}

#[test]
fn abort_stage_table() {
    type Row = (&'static str, fn() -> (ApplyError, u64), u64);
    let rows: [Row; 9] = [
        ("load_helpers", load_helpers_row, 0xe062e093ee1ce1ba),
        ("runpre", runpre_row, 0x7f21bbd6bb0f6503),
        ("load_primaries", load_primaries_row, 0x161d840b6612109c),
        ("resolve", resolve_row, 0xae6c5c1dbc58b9b8),
        ("resolve_hooks", resolve_hooks_row, 0xd5dec295261eeb34),
        ("sites", sites_row, 0xaa2cea777304dba5),
        ("pre_apply_hooks", pre_apply_hooks_row, 0xdb88a4d228b28218),
        (
            "stop_machine (busy)",
            stop_machine_busy_row,
            0xda698732a78044bc,
        ),
        (
            "stop_machine (hook)",
            stop_machine_hook_row,
            0xe70f477075ade0bb,
        ),
    ];
    let mut moved = Vec::new();
    for (name, row, pinned) in rows {
        let (_, digest) = row();
        if digest != pinned {
            moved.push(format!("{name}: {digest:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "event-stream digests moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn corrupted_pack_bytes_rejected() {
    let pack = simple_pack("x");
    let bytes = pack.to_bytes();
    assert!(UpdatePack::parse(&bytes).is_ok());
    // Header corruption.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(UpdatePack::parse(&bad).is_err());
    // Every truncation fails cleanly.
    for cut in [1, bytes.len() / 2, bytes.len() - 1] {
        assert!(UpdatePack::parse(&bytes[..cut]).is_err());
    }
}

#[test]
fn apply_to_unrelated_kernel_aborts_without_damage() {
    runpre_row();
}

#[test]
fn failing_apply_hook_rolls_back_trampolines() {
    stop_machine_hook_row();
}

#[test]
fn undo_is_idempotent_and_ordered() {
    let tree = simple_tree();
    let mut kernel = Kernel::boot(&tree, &Options::distro()).unwrap();
    let pack = simple_pack("only");
    let mut ks = Ksplice::new();
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();
    ks.undo_any(&mut kernel, "only", &ApplyOptions::default())
        .unwrap();
    // Second undo fails cleanly.
    assert!(ks
        .undo_any(&mut kernel, "only", &ApplyOptions::default())
        .is_err());
    // Unknown id fails cleanly.
    assert!(ks
        .undo_any(&mut kernel, "nope", &ApplyOptions::default())
        .is_err());
    // The kernel still works and can be re-patched.
    assert_eq!(kernel.call_function("guard", &[10]).unwrap(), 10);
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("guard", &[10]).unwrap() as i64, -1);
}

#[test]
fn unresolvable_replacement_reference_aborts() {
    resolve_row();
}

#[test]
fn corrupted_run_text_detected_by_matching() {
    let tree = simple_tree();
    let mut kernel = Kernel::boot(&tree, &Options::distro()).unwrap();
    // A rootkit-style in-place modification of the running function.
    let addr = kernel.syms.lookup_global("guard").unwrap().addr;
    let mut byte = kernel.mem.peek(addr + 9, 1).unwrap()[0];
    byte ^= 0x01;
    kernel.mem.poke(addr + 9, &[byte]).unwrap();
    let pack = simple_pack("tamper");
    let err = Ksplice::new()
        .apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap_err();
    assert!(matches!(err, ApplyError::Match(_)), "{err}");
}
