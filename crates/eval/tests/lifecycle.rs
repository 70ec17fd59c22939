//! Non-LIFO reversal acceptance: stacked updates reverse in random
//! orders with the kernel image restored byte-for-byte. (The corpus-wide
//! lifecycle claims, pre-flight, the watch window and the failing-probe
//! rollback, are asserted by `full_corpus.rs`, whose one pass applies
//! every CVE through the lifecycle manager.)

use ksplice_eval::{non_lifo_reversal_sweep, DISJOINT_STACK};

#[test]
fn random_non_lifo_reversal_orders_restore_the_image() {
    // Distinct seeds exercise distinct reversal orders over the stack of
    // three disjoint updates; each must restore the image byte-for-byte
    // (asserted inside the sweep via both checksums).
    let mut seen = std::collections::BTreeSet::new();
    for seed in 1..=6u64 {
        let order = non_lifo_reversal_sweep(seed).unwrap();
        assert_eq!(order.len(), DISJOINT_STACK.len());
        seen.insert(order);
    }
    assert!(
        seen.len() > 1,
        "six seeds should produce more than one distinct order"
    );
}
