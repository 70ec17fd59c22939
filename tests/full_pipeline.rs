//! Cross-crate integration: the whole system through the facade crate.

use ksplice::core::{create_update, ApplyOptions, CreateOptions, Ksplice};
use ksplice::eval::{base_tree, corpus, load_stress, spawn_stress};
use ksplice::kernel::{Kernel, ThreadState};
use ksplice::lang::{BuildCache, Options, SourceTree};
use ksplice::patch::make_diff;

#[test]
fn update_applies_while_stress_workload_is_running() {
    // The paper's operational claim: updates land on a *busy* kernel with
    // only a sub-millisecond pause; running work continues unharmed.
    let mut kernel = Kernel::boot(&base_tree(), &Options::distro()).unwrap();
    let stress = load_stress(&mut kernel, &BuildCache::new()).unwrap();
    let tid = spawn_stress(&mut kernel, stress, 60).unwrap();
    kernel.run(20_000); // mid-workload

    let case = corpus()
        .into_iter()
        .find(|c| c.id == "CVE-2005-4639")
        .unwrap();
    let (pack, _) = create_update(
        case.id,
        &base_tree(),
        &case.patch_text(),
        &CreateOptions::default(),
    )
    .unwrap();
    let mut ks = Ksplice::new();
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();

    // The workload finishes cleanly on the patched kernel.
    while !matches!(kernel.thread(tid).unwrap().state, ThreadState::Exited(_)) {
        kernel.run(10_000_000);
    }
    assert_eq!(kernel.thread(tid).unwrap().state, ThreadState::Exited(0));
    assert!(kernel.oopses.is_empty(), "{:?}", kernel.oopses);
}

#[test]
fn multi_unit_patch_replaces_functions_in_both_units() {
    let base = base_tree();
    let mut kernel = Kernel::boot(&base, &Options::distro()).unwrap();
    // One patch touching two subsystems at once.
    let d1 = make_diff(
        "drivers/dst.kc",
        base.get("drivers/dst.kc").unwrap(),
        &base
            .get("drivers/dst.kc")
            .unwrap()
            .replace("freq > 2150", "freq > 2100"),
    )
    .unwrap();
    let d2 = make_diff(
        "net/igmp.kc",
        base.get("net/igmp.kc").unwrap(),
        &base
            .get("net/igmp.kc")
            .unwrap()
            .replace("return 0 - 105;", "return 0 - 12;"),
    )
    .unwrap();
    let patch = format!("{d1}{d2}");
    let (pack, _) = create_update("multi", &base, &patch, &CreateOptions::default()).unwrap();
    assert_eq!(pack.units.len(), 2);
    let mut ks = Ksplice::new();
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();
    assert_eq!(
        kernel.call_function("dst_attach", &[2120]).unwrap() as i64,
        -22
    );
    ks.undo_any(&mut kernel, "multi", &ApplyOptions::default())
        .unwrap();
    assert!(kernel.call_function("dst_attach", &[2120]).unwrap() as i64 > 0);
}

#[test]
fn patched_kernel_survives_many_syscall_rounds() {
    let mut kernel = Kernel::boot(&base_tree(), &Options::distro()).unwrap();
    let stress = load_stress(&mut kernel, &BuildCache::new()).unwrap();
    let case = corpus()
        .into_iter()
        .find(|c| c.id == "CVE-2008-0600")
        .unwrap(); // the big fs rework
    let (pack, _) = create_update(
        case.id,
        &base_tree(),
        &case.patch_text(),
        &CreateOptions::default(),
    )
    .unwrap();
    Ksplice::new()
        .apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();
    ksplice::eval::run_stress(&mut kernel, stress, 40).unwrap();
}

#[test]
fn readme_style_minimal_flow() {
    let mut tree = SourceTree::new();
    tree.insert(
        "m.kc",
        "int greet() {\n    printk(\"hello from v1\");\n    return 1;\n}\n",
    );
    let mut kernel = Kernel::boot(&tree, &Options::distro()).unwrap();
    kernel.call_function("greet", &[]).unwrap();
    let patch = make_diff(
        "m.kc",
        tree.get("m.kc").unwrap(),
        "int greet() {\n    printk(\"hello from v2\");\n    return 2;\n}\n",
    )
    .unwrap();
    let (pack, _) = create_update("v2", &tree, &patch, &CreateOptions::default()).unwrap();
    Ksplice::new()
        .apply(&mut kernel, &pack, &ApplyOptions::default())
        .unwrap();
    assert_eq!(kernel.call_function("greet", &[]).unwrap(), 2);
    assert_eq!(kernel.klog, vec!["hello from v1", "hello from v2"]);
}
