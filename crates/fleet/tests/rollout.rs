//! End-to-end staged rollouts over the simulated fleet: clean commit,
//! convergence under transport faults, cross-version containment, and
//! report determinism.

use ksplice_fleet::{
    build_packset, Endpoint, Envelope, Fleet, FleetConfig, NetFaults, Outcome, Payload,
    RolloutOrchestrator, RolloutPolicy, SimTransport, Transport, TransportStats, Verdict,
    VERSION_NAMES,
};
use ksplice_lang::{fnv1a, FNV_OFFSET};
use ksplice_trace::Tracer;

fn small_fleet(nodes: u32, resident: bool) -> Fleet {
    Fleet::new(FleetConfig {
        nodes,
        resident,
        ..FleetConfig::default()
    })
    .expect("fleet boots")
}

#[test]
fn a_fleet_of_zero_nodes_is_refused() {
    let err = Fleet::new(FleetConfig {
        nodes: 0,
        ..FleetConfig::default()
    })
    .err()
    .expect("zero nodes must be refused");
    assert!(err.contains("at least one node"), "{err}");
}

#[test]
fn a_fleet_outside_the_base_versions_is_refused() {
    for versions in [0, VERSION_NAMES.len() + 1] {
        let err = Fleet::new(FleetConfig {
            versions,
            ..FleetConfig::default()
        })
        .err()
        .expect("a version count outside 1..=3 must be refused");
        assert!(err.contains("base versions"), "{err}");
    }
}

#[test]
fn clean_rollout_commits_the_whole_fleet() {
    let mut fleet = small_fleet(24, true);
    let packset = build_packset(
        "cve-2006-2451",
        VERSION_NAMES.len(),
        &[],
        fleet.context().cache(),
    )
    .expect("packset builds");
    let mut transport = SimTransport::new(11);
    let mut tracer = Tracer::new();
    let orch = RolloutOrchestrator::new(RolloutPolicy::default(), packset, &fleet);
    let report = orch.run(&mut fleet, &mut transport, &mut tracer);

    assert_eq!(report.outcome, Outcome::Committed, "{}", report.render());
    assert_eq!(report.uncontacted, 0);
    assert_eq!(report.halted_wave, None);
    let committed: usize = report.waves.iter().map(|w| w.committed).sum();
    assert_eq!(committed, 24);
    // Wave sizes grow geometrically from the canary.
    let sizes: Vec<usize> = report.waves.iter().map(|w| w.members).collect();
    assert_eq!(sizes, vec![4, 16, 4]);
    // Every node (all three base versions) holds the update.
    for id in 0..24 {
        let node = fleet.node(id);
        assert!(
            node.committed.iter().any(|u| u == "cve-2006-2451"),
            "node {id} (version {}) missing the update",
            node.version
        );
    }
    assert_eq!(tracer.counter("fleet.nodes_committed"), 24);
    assert_eq!(tracer.counter("fleet.waves_launched"), 3);
    assert_eq!(tracer.counter("fleet.waves_halted"), 0);
}

#[test]
fn rollout_converges_under_transport_faults() {
    let mut fleet = small_fleet(18, false);
    let packset = build_packset(
        "cve-2006-2451",
        VERSION_NAMES.len(),
        &[],
        fleet.context().cache(),
    )
    .expect("packset builds");
    let faults = NetFaults::parse("drop:150,dup:100,corrupt:40,delay:1..3").unwrap();
    let mut transport = SimTransport::with_faults(23, faults);
    let mut tracer = Tracer::new();
    let orch = RolloutOrchestrator::new(RolloutPolicy::default(), packset, &fleet);
    let report = orch.run(&mut fleet, &mut transport, &mut tracer);

    assert_eq!(report.outcome, Outcome::Committed, "{}", report.render());
    let committed: usize = report.waves.iter().map(|w| w.committed).sum();
    assert_eq!(committed, 18);
    assert!(
        report.transport.dropped > 0,
        "fault plan should have dropped something: {:?}",
        report.transport
    );
    let resends: u64 = report.waves.iter().map(|w| w.resends).sum();
    assert!(resends > 0, "drops must force resends\n{}", report.render());
}

#[test]
fn corrupted_packs_are_rejected_and_redelivered() {
    let mut fleet = small_fleet(8, false);
    let packset = build_packset(
        "cve-2006-2451",
        VERSION_NAMES.len(),
        &[],
        fleet.context().cache(),
    )
    .expect("packset builds");
    // Corrupt every other pack: every node still converges because the
    // checksum check downgrades corruption to a retryable rejection.
    let faults = NetFaults::parse("corrupt:500,delay:1..2").unwrap();
    let mut transport = SimTransport::with_faults(5, faults);
    let mut tracer = Tracer::new();
    let policy = RolloutPolicy {
        canary: 2,
        ..RolloutPolicy::default()
    };
    let orch = RolloutOrchestrator::new(policy, packset, &fleet);
    let report = orch.run(&mut fleet, &mut transport, &mut tracer);

    assert_eq!(report.outcome, Outcome::Committed, "{}", report.render());
    assert!(report.transport.corrupted > 0);
    assert!(tracer.counter("fleet.packs_rejected") > 0);
    // No corrupted pack was ever applied: rejects outnumber nothing —
    // every node committed exactly once.
    assert_eq!(tracer.counter("fleet.nodes_committed"), 8);
}

#[test]
fn version_specific_pack_halts_at_a_stratified_canary() {
    // A packset built only for 2.6.16: its run-pre matching mismatches
    // on drifted 2.6.17 kernels (the paper's same-unit drift). The
    // stratified canary samples every version, so the rollout halts in
    // wave 0 instead of spraying a third of the fleet with failures.
    let mut fleet = small_fleet(24, true);
    let packset =
        build_packset("cve-2006-2451", 1, &[], fleet.context().cache()).expect("packset builds");
    let mut transport = SimTransport::new(31);
    let mut tracer = Tracer::new();
    let policy = RolloutPolicy {
        canary: 6,
        ..RolloutPolicy::default()
    };
    let orch = RolloutOrchestrator::new(policy, packset, &fleet);
    let canary = orch.planned_waves()[0].clone();
    let canary_versions: Vec<usize> = canary
        .iter()
        .map(|&id| fleet.node(id).version)
        .collect();
    assert!(
        canary_versions.contains(&2),
        "stratified canary must sample version 2.6.17: {canary_versions:?}"
    );
    let report = orch.run(&mut fleet, &mut transport, &mut tracer);

    assert_eq!(report.outcome, Outcome::Contained, "{}", report.render());
    assert_eq!(report.halted_wave, Some(0));
    assert!(report.waves[0].failed > 0, "{}", report.render());
    assert_eq!(report.uncontacted, 18, "only the canary was contacted");
    // Canaries that committed (2.6.16 / 2.6.16-hw) were mass-rolled-back
    // checksum-clean; mismatched ones never changed.
    assert_eq!(report.rollback_clean, report.rolled_back);
    for &id in &canary {
        let node = fleet.node(id);
        assert!(node.committed.is_empty(), "node {id} still patched");
        assert_eq!(
            node.resident_text_checksum(),
            Some(node.baseline_text),
            "node {id} text drifted from its baseline"
        );
    }
}

#[test]
fn same_seed_rollouts_render_byte_identical_reports() {
    let run = |transport_seed: u64| {
        let mut fleet = small_fleet(16, false);
        let packset = build_packset(
            "cve-2006-2451",
            VERSION_NAMES.len(),
            &[],
            fleet.context().cache(),
        )
        .expect("packset builds");
        let faults = NetFaults::parse("drop:120,dup:90,delay:1..3").unwrap();
        let mut transport = SimTransport::with_faults(transport_seed, faults);
        let mut tracer = Tracer::new();
        let orch = RolloutOrchestrator::new(RolloutPolicy::default(), packset, &fleet);
        let report = orch.run(&mut fleet, &mut transport, &mut tracer);
        report.render()
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a, b, "same seeds must replay byte-for-byte");
    assert_ne!(a, run(78), "different transport seed, different run");
}

#[test]
fn worker_count_does_not_change_the_outcome() {
    let run = |jobs: usize| {
        let mut fleet = small_fleet(12, false);
        let packset = build_packset(
            "cve-2006-2451",
            VERSION_NAMES.len(),
            &[],
            fleet.context().cache(),
        )
        .expect("packset builds");
        let mut transport = SimTransport::new(3);
        let mut tracer = Tracer::new();
        let policy = RolloutPolicy {
            jobs,
            ..RolloutPolicy::default()
        };
        let orch = RolloutOrchestrator::new(policy, packset, &fleet);
        orch.run(&mut fleet, &mut transport, &mut tracer).render()
    };
    assert_eq!(run(1), run(8), "sharding is an implementation detail");
}

/// A transport that records every node report it hands the orchestrator,
/// in delivery order.
struct Recording {
    inner: SimTransport,
    reports: Vec<(u32, Verdict)>,
}

impl Transport for Recording {
    fn send(&mut self, env: Envelope) {
        self.inner.send(env)
    }

    fn poll(&mut self, now: u64) -> Vec<Envelope> {
        let out = self.inner.poll(now);
        for env in &out {
            if let (Endpoint::Node(id), Payload::Report { verdict, .. }) = (env.from, &env.payload)
            {
                self.reports.push((id, verdict.clone()));
            }
        }
        out
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// The node-level outcome of one fixed-seed rollout over loaded 2-vCPU
/// nodes, pinned across commits: every report's verdict (with the
/// apply's stop_machine attempts and pause steps), then each node's
/// committed set, boot baseline text checksum, and its resident
/// kernel's whole-image checksum, step clock and tick count. Changing
/// how a node kernel comes to life (boot, SMP setup, load threads,
/// settle) must not move a single step of this.
#[test]
fn loaded_smp_rollout_matches_the_pinned_digest() {
    let mut fleet = Fleet::new(FleetConfig {
        nodes: 12,
        cpus: 2,
        load_threads: 2,
        resident: true,
        seed: 0x5eed_f1ee,
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    let packset = build_packset(
        "cve-2006-2451",
        VERSION_NAMES.len(),
        &[],
        fleet.context().cache(),
    )
    .expect("packset builds");
    let faults = NetFaults::parse("drop:100,dup:100,delay:1..2").unwrap();
    let mut transport = Recording {
        inner: SimTransport::with_faults(41, faults),
        reports: Vec::new(),
    };
    let orch = RolloutOrchestrator::new(RolloutPolicy::default(), packset, &fleet);
    let report = orch.run(&mut fleet, &mut transport, &mut Tracer::disabled());
    assert_eq!(report.outcome, Outcome::Committed, "{}", report.render());

    let mut text = String::new();
    for (id, verdict) in &transport.reports {
        let detail = match verdict {
            Verdict::Committed {
                attempts,
                pause_steps,
            } => format!("{attempts}/{pause_steps}"),
            _ => String::new(),
        };
        text.push_str(&format!("{id}:{}:{detail};", verdict.name()));
    }
    for id in 0..fleet.len() as u32 {
        let node = fleet.node(id);
        let kernel = node.resident_kernel().expect("resident fleet");
        text.push_str(&format!(
            "node{id}:{}:{:#x}:{:#x}:{}:{};",
            node.committed.join(","),
            node.baseline_text,
            kernel.mem.image_checksum(),
            kernel.steps,
            kernel.ticks
        ));
    }
    let digest = fnv1a(FNV_OFFSET, text.as_bytes());
    assert_eq!(
        digest, 0xd5b7_a716_6140_a009,
        "rollout digest moved ({digest:#018x}):\n{text}"
    );
}

/// The decode work of one fixed-seed rollout over 64 loaded 2-vCPU
/// nodes at one worker, pinned across commits: basic blocks decoded,
/// summed over every resident node kernel. Forks take what another fork
/// of their version's snapshot already decoded, so this counts each
/// block of unchanged text once per version, plus what each node decodes
/// of the text its update changed or loaded. At one worker the count is
/// deterministic; at more it depends on which worker decodes first.
#[test]
fn loaded_smp_rollout_decodes_the_pinned_block_count() {
    let mut fleet = Fleet::new(FleetConfig {
        nodes: 64,
        cpus: 2,
        load_threads: 2,
        resident: true,
        seed: 0x5eed_f1ee,
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    let packset = build_packset(
        "cve-2006-2451",
        VERSION_NAMES.len(),
        &[],
        fleet.context().cache(),
    )
    .expect("packset builds");
    let policy = RolloutPolicy {
        jobs: 1,
        ..RolloutPolicy::default()
    };
    let orch = RolloutOrchestrator::new(policy, packset, &fleet);
    let mut transport = SimTransport::new(41);
    let report = orch.run(&mut fleet, &mut transport, &mut Tracer::disabled());
    assert_eq!(report.outcome, Outcome::Committed, "{}", report.render());
    let decoded: u64 = (0..fleet.len() as u32)
        .map(|id| {
            let kernel = fleet.node(id).resident_kernel().expect("resident fleet");
            kernel.vm_stats.blocks_decoded
        })
        .sum();
    assert_eq!(decoded, 2_767, "the rollout decoded {decoded} blocks");
}

/// Runs one rollout of the CVE-2006-2451 fix over a lightly faulty
/// transport and asserts that every node commits.
fn assert_every_node_commits(cfg: FleetConfig, policy: RolloutPolicy) {
    let mut fleet = Fleet::new(cfg).expect("fleet boots");
    let packset = build_packset(
        "cve-2006-2451",
        VERSION_NAMES.len(),
        &[],
        fleet.context().cache(),
    )
    .expect("packset builds");
    let faults = NetFaults::parse("drop:20,dup:10,delay:1..2").unwrap();
    let mut transport = SimTransport::with_faults(0xbe9c_4001, faults);
    let nodes = fleet.len();
    // The outcome does not depend on the job count, so a fixed one keeps
    // the test's cost the same on every host.
    let policy = RolloutPolicy { jobs: 2, ..policy };
    let orch = RolloutOrchestrator::new(policy, packset, &fleet);
    let report = orch.run(&mut fleet, &mut transport, &mut Tracer::disabled());
    assert_eq!(report.outcome, Outcome::Committed, "{}", report.render());
    let committed: usize = report.waves.iter().map(|w| w.committed).sum();
    assert_eq!(
        committed,
        nodes,
        "every node must commit\n{}",
        report.render()
    );
}

#[test]
fn ten_thousand_node_rollout_commits_every_node() {
    assert_every_node_commits(
        FleetConfig {
            nodes: 10_000,
            ..FleetConfig::default()
        },
        RolloutPolicy {
            canary: 8,
            growth: 8,
            max_ticks: 100_000,
            ..RolloutPolicy::default()
        },
    );
}

#[test]
fn loaded_two_vcpu_rollout_commits_every_node() {
    // Waves against kernels with live workload threads contending the
    // quiescence check on every node.
    assert_every_node_commits(
        FleetConfig {
            nodes: 192,
            cpus: 2,
            load_threads: 2,
            ..FleetConfig::default()
        },
        RolloutPolicy::default(),
    );
}
