//! Deterministic fleet chaos: a poisoned pack under an injected
//! transport partition is confined to its canary cohort, and every
//! affected kernel is restored byte-identical.
//!
//! Two containment shapes are pinned:
//!
//! 1. **Canary containment** — the poison trips the quarantine canary on
//!    every version, so wave 0 absorbs the whole blast radius even while
//!    half the canary cohort is partitioned away mid-rollout.
//! 2. **Mass rollback** — with the poison only in the 2.6.17 build, a
//!    canary cohort too small to sample every version gates clean, the
//!    next wave trips the threshold, and every node that committed in
//!    the meantime is rolled back checksum-clean.

use ksplice_fleet::{
    build_packset, Fleet, FleetConfig, NetFaults, Outcome, Partition, RolloutOrchestrator,
    RolloutPolicy, SimTransport, VERSION_NAMES,
};
use ksplice_trace::Tracer;

/// Loaded multi-vCPU fleet (satellite: waves run against kernels with
/// live workload threads on several CPUs), resident so the tests can
/// checksum node text afterwards.
fn loaded_fleet(nodes: u32, seed: u64) -> Fleet {
    Fleet::new(FleetConfig {
        nodes,
        cpus: 2,
        load_threads: 2,
        seed,
        resident: true,
        ..FleetConfig::default()
    })
    .expect("fleet boots")
}

#[test]
fn poisoned_pack_is_confined_to_the_canary_cohort() {
    let run = || {
        let mut fleet = loaded_fleet(24, 0xf1ee_7001);
        // Poison every version's build: the pack applies cleanly but
        // breaks PR_SET_DUMPABLE, which the shipped canary probes catch.
        let poisoned: Vec<usize> = (0..VERSION_NAMES.len()).collect();
        let packset = build_packset(
            "bad-update",
            VERSION_NAMES.len(),
            &poisoned,
            fleet.context().cache(),
        )
        .expect("packset builds");
        let faults = NetFaults::parse("drop:100,dup:80,delay:1..3").unwrap();
        let mut transport = SimTransport::with_faults(91, faults);
        // Partition part of the fleet (canaries included) mid-rollout;
        // parked messages re-enter on heal.
        transport.add_partition(Partition::parse("0..11@2..90").unwrap());
        let mut tracer = Tracer::new();
        let policy = RolloutPolicy {
            canary: 6,
            ..RolloutPolicy::default()
        };
        let orch = RolloutOrchestrator::new(policy, packset, &fleet);
        let canary = orch.planned_waves()[0].clone();
        let report = orch.run(&mut fleet, &mut transport, &mut tracer);

        assert_eq!(report.outcome, Outcome::Contained, "{}", report.render());
        assert_eq!(report.halted_wave, Some(0), "{}", report.render());
        assert_eq!(
            report.waves[0].quarantined, 6,
            "every canary must quarantine\n{}",
            report.render()
        );
        assert_eq!(
            report.uncontacted, 18,
            "the blast radius must stop at the canary\n{}",
            report.render()
        );
        // Every canary kernel self-rolled-back and is byte-identical to
        // its settled baseline; nothing is left committed anywhere.
        let mut contacted = 0;
        for id in 0..fleet.len() as u32 {
            let node = fleet.node(id);
            assert!(node.committed().is_empty(), "node {id} kept the poison");
            if let Some(text) = node.resident_text_checksum() {
                contacted += 1;
                assert_eq!(
                    text, node.baseline_text,
                    "node {id} text differs from baseline after containment"
                );
            }
        }
        assert_eq!(
            contacted,
            canary.len(),
            "only canary nodes should ever have materialized"
        );
        assert_eq!(tracer.counter("fleet.nodes_quarantined"), 6);
        assert_eq!(tracer.counter("fleet.waves_halted"), 1);
        assert!(
            report.transport.parked > 0 && report.transport.healed > 0,
            "the partition must actually bite: {:?}",
            report.transport
        );
        report.render()
    };
    // The whole chaotic run — faults, partition, quarantines — replays
    // byte-for-byte from its seeds.
    assert_eq!(run(), run(), "chaos must be deterministic");
}

#[test]
fn missed_canary_triggers_checksum_verified_mass_rollback() {
    // Version-specific poison (2.6.17, version 2 of 3). Cohorts are
    // stratified round-robin across versions, so a canary of 2 samples
    // versions 0 and 1 only: the poison is first met in wave 1, after
    // the canary committed real nodes, and the halt must reverse them
    // all.
    let policy = RolloutPolicy {
        canary: 2,
        ..RolloutPolicy::default()
    };
    let mut fleet = loaded_fleet(24, 0xf1ee_7001);
    let packset = build_packset("bad-on-2617", 3, &[2], fleet.context().cache()).unwrap();
    let mut transport = SimTransport::new(17);
    let mut tracer = Tracer::new();
    let orch = RolloutOrchestrator::new(policy, packset, &fleet);
    let waves = orch.planned_waves();
    let has_v2 = |ids: &[u32]| ids.iter().any(|&id| fleet.node(id).version == 2);
    assert!(!has_v2(&waves[0]) && has_v2(&waves[1]), "{waves:?}");
    let report = orch.run(&mut fleet, &mut transport, &mut tracer);

    assert_eq!(report.outcome, Outcome::Contained, "{}", report.render());
    assert_eq!(report.halted_wave, Some(1), "{}", report.render());
    assert_eq!(
        report.waves[0].committed, 2,
        "the canary wave commits clean\n{}",
        report.render()
    );
    assert!(
        report.rolled_back >= 2,
        "halt must reverse the already-committed nodes\n{}",
        report.render()
    );
    assert_eq!(
        report.rollback_clean, report.rolled_back,
        "every rollback must verify checksum-clean\n{}",
        report.render()
    );
    for id in 0..fleet.len() as u32 {
        let node = fleet.node(id);
        assert!(node.committed().is_empty(), "node {id} kept the update");
        if let Some(text) = node.resident_text_checksum() {
            assert_eq!(text, node.baseline_text, "node {id} not restored");
        }
    }
    assert!(tracer.counter("fleet.rollbacks_verified") > 0);
}
