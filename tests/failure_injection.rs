//! Failure injection: every abort path leaves the kernel untouched.

use ksplice::core::{create_update, ApplyError, ApplyOptions, CreateOptions, Ksplice, UpdatePack};
use ksplice::kernel::Kernel;
use ksplice::lang::{Options, SourceTree};
use ksplice::patch::make_diff;

fn simple_tree() -> SourceTree {
    let mut t = SourceTree::new();
    t.insert(
        "m.kc",
        "int guard(int x) {\n    if (x > 10) {\n        return 0 - 1;\n    }\n    return x;\n}\n",
    );
    t
}

fn simple_pack(id: &str) -> UpdatePack {
    let tree = simple_tree();
    let patch = make_diff(
        "m.kc",
        tree.get("m.kc").unwrap(),
        "int guard(int x) {\n    if (x >= 10) {\n        return 0 - 1;\n    }\n    return x;\n}\n",
    )
    .unwrap();
    create_update(id, &tree, &patch, &CreateOptions::default())
        .unwrap()
        .0
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
    let pack = simple_pack("x");
    // A kernel that has no `guard` at all.
    let mut other = SourceTree::new();
    other.insert("n.kc", "int different() {\n    return 5;\n}\n");
    let mut kernel = Kernel::boot(&other, &Options::distro()).unwrap();
    let before_regions = kernel.mem.regions().len();
    let err = Ksplice::new()
        .apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap_err();
    assert!(matches!(err, ApplyError::Match(_)), "{err}");
    // All helper/primary regions rolled back.
    assert_eq!(kernel.mem.regions().len(), before_regions);
    assert!(kernel.modules.iter().all(|m| !m.name.contains("ksplice")));
}

#[test]
fn failing_apply_hook_rolls_back_trampolines() {
    let tree = simple_tree();
    let mut kernel = Kernel::boot(&tree, &Options::distro()).unwrap();
    // Custom code whose apply hook reports failure.
    let patched =
        "int guard(int x) {\n    if (x >= 10) {\n        return 0 - 1;\n    }\n    return x;\n}\n\
int bad_hook() {\n    return 7;\n}\n\
ksplice_apply(bad_hook);\n";
    let patch = make_diff("m.kc", tree.get("m.kc").unwrap(), patched).unwrap();
    let (pack, _) = create_update("hooked", &tree, &patch, &CreateOptions::default()).unwrap();
    let err = Ksplice::new()
        .apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap_err();
    assert!(matches!(err, ApplyError::Hook { .. }), "{err}");
    // The trampoline was rolled back: old behaviour intact.
    assert_eq!(kernel.call_function("guard", &[10]).unwrap(), 10);
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
    // The patch makes the replacement call a function that exists in the
    // post tree build... but we sabotage the pack so the symbol cannot
    // resolve in the running kernel.
    let tree = simple_tree();
    let mut kernel = Kernel::boot(&tree, &Options::distro()).unwrap();
    let mut pack = simple_pack("sab");
    // Inject a relocation against a nonexistent symbol into the
    // replacement code (the function itself has none — it is pure
    // register arithmetic — so add one).
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
    let err = Ksplice::new()
        .apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, ApplyError::Unresolved { .. } | ApplyError::Link(_)),
        "{err}"
    );
    assert_eq!(kernel.call_function("guard", &[10]).unwrap(), 10);
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
