//! Quickstart: hot-patch a running kernel from a unified diff.
//!
//! Run with: `cargo run --example quickstart`
//!
//! This walks the paper's §5 command sequence — create an update from a
//! source patch, apply it to the running kernel — against a small live
//! kernel, printing each step.

use ksplice::core::{create_update, ApplyOptions, CreateOptions, Ksplice};
use ksplice::kernel::Kernel;
use ksplice::lang::{Options, SourceTree};
use ksplice::patch::make_diff;

fn main() {
    // A one-file "kernel" with an off-by-one bounds check.
    let src = "int limit = 8;\n\
int table[8];\n\
int store(int i, int v) {\n\
    if (i > limit) {\n\
        return 0 - 22;\n\
    }\n\
    table[i & 7] = v;\n\
    return v;\n\
}\n";
    let mut tree = SourceTree::new();
    tree.insert("kernel/store.kc", src);

    println!("[1/4] booting the kernel (distro build: -O2, monolithic sections)...");
    let mut kernel = Kernel::boot(&tree, &Options::distro()).expect("boot");
    println!(
        "      store(8, 1) = {} (should have been rejected!)",
        kernel.call_function("store", &[8, 1]).unwrap() as i64
    );

    println!("[2/4] ksplice-create: building pre and post trees and diffing object code...");
    let fixed = src.replace("if (i > limit)", "if (i >= limit)");
    let patch = make_diff("kernel/store.kc", src, &fixed).expect("diff");
    print!("{patch}");
    let (pack, _patched_tree) =
        create_update("off-by-one", &tree, &patch, &CreateOptions::default()).expect("create");
    println!(
        "      -> {} function(s) to replace, helper {}B / primary {}B",
        pack.replaced_fn_count(),
        pack.helper_size(),
        pack.primary_size()
    );

    println!("[3/4] ksplice-apply: run-pre matching, safety check, trampolines...");
    let mut ks = Ksplice::new();
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .expect("apply");
    println!(
        "      applied; stop_machine pause: {:?}",
        kernel.last_stop_machine.unwrap()
    );
    println!(
        "      store(8, 1) = {} (fixed, no reboot)",
        kernel.call_function("store", &[8, 1]).unwrap() as i64
    );
    println!(
        "      store(3, 9) = {} (still works)",
        kernel.call_function("store", &[3, 9]).unwrap() as i64
    );

    println!("[4/4] ksplice-undo: restoring the original code...");
    ks.undo_any(&mut kernel, "off-by-one", &ApplyOptions::default())
        .expect("undo");
    println!(
        "      store(8, 1) = {} (vulnerable again)",
        kernel.call_function("store", &[8, 1]).unwrap() as i64
    );
    println!("Done!");
}
