//! Fleet edges at the intersection of transport partitions and
//! kernel-version drift:
//!
//! 1. **Whole-rollout partition** — a node cut off before the first
//!    delivery and healed only long after every contact attempt in its
//!    schedule has lapsed still converges: the orchestrator degrades it
//!    to the straggler drip instead of reading silence as health, and
//!    the parked traffic re-enters on heal.
//! 2. **Drifted stratum needs a rebased pack** — a packset built only
//!    for 2.6.16 run-pre-mismatches on the 2.6.17 stratum (same-unit
//!    drift) and the rollout contains; substituting that stratum's slot
//!    with a pack ported by `ksplice_core::rebase_update` converges the
//!    whole fleet, version 2 included.

use ksplice_core::{rebase_update, RebaseOptions, RebaseStatus};
use ksplice_eval::diff_trees;
use ksplice_fleet::{
    build_packset, default_canaries, patched_tree, version_tree, Fleet, FleetConfig, Outcome,
    PackSet, Partition, RolloutOrchestrator, RolloutPolicy, SimTransport, VERSION_NAMES,
};
use ksplice_trace::Tracer;

fn resident_fleet(nodes: u32, seed: u64) -> Fleet {
    Fleet::new(FleetConfig {
        nodes,
        seed,
        resident: true,
        ..FleetConfig::default()
    })
    .expect("fleet boots")
}

#[test]
fn node_partitioned_across_the_whole_rollout_converges_after_heal() {
    let run = || {
        let mut fleet = resident_fleet(12, 0xdead_beef);
        let packset = build_packset(
            "cve-2006-2451",
            VERSION_NAMES.len(),
            &[],
            fleet.context().cache(),
        )
        .expect("packset builds");
        let mut transport = SimTransport::new(41);
        // Node 5 is unreachable from tick 0 until well past the point
        // where every other node has committed and node 5's contact
        // schedule has exhausted into the straggler drip.
        transport.add_partition(Partition::parse("5..5@0..400").unwrap());
        let mut tracer = Tracer::new();
        let orch = RolloutOrchestrator::new(RolloutPolicy::default(), packset, &fleet);
        let report = orch.run(&mut fleet, &mut transport, &mut tracer);

        assert_eq!(report.outcome, Outcome::Committed, "{}", report.render());
        assert_eq!(report.uncontacted, 0, "{}", report.render());
        let committed: usize = report.waves.iter().map(|w| w.committed).sum();
        assert_eq!(committed, 12, "{}", report.render());
        assert!(
            report.stragglers_converged >= 1,
            "the partitioned node must re-converge via the drip\n{}",
            report.render()
        );
        assert!(
            report.transport.parked > 0 && report.transport.healed > 0,
            "the partition must actually bite: {:?}",
            report.transport
        );
        // The partitioned node itself holds the update — convergence was
        // not satisfied by the other eleven.
        let node = fleet.node(5);
        assert!(
            node.committed().contains(&"cve-2006-2451"),
            "node 5 (version {}) missing the update after heal",
            node.version
        );
        assert_eq!(
            tracer.counter("fleet.stragglers_converged"),
            u64::from(report.stragglers_converged)
        );
        report.render()
    };
    assert_eq!(run(), run(), "partition replay must be deterministic");
}

#[test]
fn drifted_stratum_converges_only_via_a_rebased_pack() {
    // --- Phase A: the stale packset (2.6.16 build only) contains. ---
    let mut fleet = resident_fleet(24, 0x2617);
    let stale =
        build_packset("cve-2006-2451", 1, &[], fleet.context().cache()).expect("stale packset");
    let mut transport = SimTransport::new(7);
    let mut tracer = Tracer::new();
    let policy = RolloutPolicy {
        canary: 6,
        ..RolloutPolicy::default()
    };
    let orch = RolloutOrchestrator::new(policy.clone(), stale, &fleet);
    let report = orch.run(&mut fleet, &mut transport, &mut tracer);
    assert_eq!(
        report.outcome,
        Outcome::Contained,
        "a 2.6.16-only pack must mismatch the 2.6.17 stratum\n{}",
        report.render()
    );

    // --- Phase B: rebase the same update onto the 2.6.17 tree. ---
    let cache = fleet.context().cache();
    let pre0 = version_tree(0);
    let patch_text = diff_trees(&pre0, &patched_tree(&pre0, false));
    let drifted = version_tree(2);
    let mut rebase_tracer = Tracer::new();
    let (rebase_report, pack) = rebase_update(
        "cve-2006-2451",
        &pre0,
        &patch_text,
        &drifted,
        &RebaseOptions::default(),
        cache,
        &mut rebase_tracer,
    )
    .expect("rebase pipeline runs");
    assert_eq!(
        rebase_report.status,
        RebaseStatus::AutoPorted,
        "{}",
        rebase_report.render()
    );
    assert!(rebase_report.verified, "{}", rebase_report.render());
    // The drift lives in do_syscall, not the patched function: the port
    // must land in sys_prctl and nowhere else.
    assert_eq!(rebase_report.ported_fns, vec!["sys_prctl".to_string()]);
    let rebased = pack.expect("auto-ported rebase yields a pack").to_bytes();

    // --- Phase C: per-version packset with the rebased 2.6.17 slot. ---
    let native = build_packset("cve-2006-2451", 2, &[], cache).expect("native packset");
    let packset = PackSet::from_packs(
        "cve-2006-2451",
        default_canaries(),
        vec![
            native.for_version(0).0.to_vec(),
            native.for_version(1).0.to_vec(),
            rebased,
        ],
    );
    let mut fleet = resident_fleet(24, 0x2617);
    let mut transport = SimTransport::new(7);
    let mut tracer = Tracer::new();
    let orch = RolloutOrchestrator::new(policy, packset, &fleet);
    let report = orch.run(&mut fleet, &mut transport, &mut tracer);

    assert_eq!(report.outcome, Outcome::Committed, "{}", report.render());
    let committed: usize = report.waves.iter().map(|w| w.committed).sum();
    assert_eq!(committed, 24, "{}", report.render());
    // The 2.6.17 stratum — the one the stale packset could not reach —
    // is exactly where the rebased pack had to land.
    let mut v2 = 0;
    for id in 0..fleet.len() as u32 {
        let node = fleet.node(id);
        assert!(
            node.committed().contains(&"cve-2006-2451"),
            "node {id} (version {}) missing the update",
            node.version
        );
        if node.version == 2 {
            v2 += 1;
        }
    }
    assert!(v2 > 0, "fleet must actually contain a 2.6.17 stratum");
}
