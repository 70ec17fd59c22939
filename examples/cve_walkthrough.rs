//! CVE walkthrough: defeat a live exploit with a hot update.
//!
//! Run with: `cargo run --example cve_walkthrough`
//!
//! Reproduces the paper's exploit verification (§6.3): boot the
//! evaluation kernel, demonstrate the CVE-2006-2451 analog (a leftover
//! prctl debug hook grants root), hot-patch it while a stress workload
//! runs, and show the exploit is dead — all without rebooting.

use ksplice::core::{create_update, ApplyOptions, CreateOptions, Ksplice};
use ksplice::eval::{base_tree, corpus, load_stress, run_exploit, run_stress};
use ksplice::kernel::Kernel;
use ksplice::lang::{BuildCache, Options};

fn main() {
    let case = corpus()
        .into_iter()
        .find(|c| c.id == "CVE-2006-2451")
        .expect("corpus entry");
    println!("== {} — {} ==\n", case.id, case.summary);

    println!("[1/5] booting the vulnerable kernel...");
    let mut kernel = Kernel::boot(&base_tree(), &Options::distro()).expect("boot");
    // One build cache: each workload module compiles once, however often
    // it loads.
    let cache = BuildCache::new();
    let stress = load_stress(&mut kernel, &cache).expect("stress module");

    println!("[2/5] running the exploit as an unprivileged task...");
    let worked = run_exploit(&mut kernel, &case, &cache).expect("exploit runs") == Some(true);
    println!(
        "      uid 1000 -> uid 0 via prctl(99): {}",
        if worked { "EXPLOIT SUCCEEDS" } else { "failed" }
    );
    assert!(worked, "the base kernel must be vulnerable");

    println!("[3/5] creating and applying the hot update...");
    let (pack, _) = create_update(
        case.id,
        &base_tree(),
        &case.patch_text(),
        &CreateOptions::default(),
    )
    .expect("create");
    let mut ks = Ksplice::new();
    ks.apply(&mut kernel, &pack, &ApplyOptions::default())
        .expect("apply");
    println!(
        "      {} function(s) replaced; pause {:?}",
        pack.replaced_fn_count(),
        kernel.last_stop_machine.unwrap()
    );

    println!(
        "[4/5] stress-testing the patched kernel ({} syscall rounds)...",
        25
    );
    run_stress(&mut kernel, stress, 25).expect("stress must pass");
    println!("      all invariants hold; {} oopses", kernel.oopses.len());

    println!("[5/5] re-running the exploit...");
    let worked = run_exploit(&mut kernel, &case, &cache).expect("exploit runs") == Some(true);
    println!(
        "      uid 1000 -> uid 0 via prctl(99): {}",
        if worked {
            "still succeeds!?"
        } else {
            "DEFEATED"
        }
    );
    assert!(!worked);
    println!("\nDone — the vulnerability was closed without a reboot.");
}
