//! `fleet`: staged rollouts of the CVE-2006-2451 fix over a fleet of
//! loaded 2-vCPU nodes and a faulty transport.
//!
//! Each rollout builds a fresh fleet (three base versions, two load
//! threads per node), then `RolloutOrchestrator::run` drives canary and
//! geometric waves over a `SimTransport` that drops, duplicates and
//! delays messages. The transport is wrapped by a timer that sees every
//! message: a node's latency runs from the first `Deliver` the
//! orchestrator sends it to the moment the orchestrator polls its
//! commit report. Throughput is committed nodes per CPU second of `run`.

use ksplice_core::{ApplyOptions, BuildCache, SmpConfig};
use ksplice_eval::diff_trees;
use ksplice_fleet::{
    build_packset, patched_tree, version_tree, Endpoint, Envelope, Fleet, FleetConfig, NetFaults,
    Outcome, PackSet, Payload, RolloutOrchestrator, RolloutPolicy, SimTransport, Transport,
    TransportStats, Verdict, VERSION_NAMES,
};

use super::{mix, Bench, Budget, Measured, Settings, JOBS};
use crate::clock;
use crate::probe;
use crate::spans::SpanLog;

/// The update rolled out.
const UPDATE: &str = "cve-2006-2451";

/// Nodes per rollout.
const NODES: u32 = 1_000;

/// Nodes of the single smoke rollout.
const SMOKE_NODES: u32 = 48;

/// Nodes of the fresh fleet the replay delivers to one at a time.
const DELIVER_PROBE_NODES: u32 = 24;

/// vCPUs and background load threads per node.
const NODE_CPUS: u32 = 2;
const LOAD_THREADS: u32 = 2;

/// The transport's fault plan.
const FAULTS: &str = "drop:20,dup:10,delay:1..2";

/// A transport wrapper that times the fabric and each node's update, on
/// the process CPU clock (node handling runs on the worker threads).
struct Timed<'a> {
    inner: SimTransport,
    log: &'a mut SpanLog,
    first_deliver: Vec<Option<f64>>,
    committed: Vec<bool>,
    /// `(clock::wall_s, CPU ms)` per committed node.
    latencies: Vec<(f64, f64)>,
}

impl Transport for Timed<'_> {
    fn send(&mut self, env: Envelope) {
        if let (Endpoint::Node(id), Payload::Deliver { .. }) = (env.to, &env.payload) {
            self.first_deliver[id as usize].get_or_insert_with(clock::process_s);
        }
        self.log.time("transport.send", || self.inner.send(env));
    }

    fn poll(&mut self, now: u64) -> Vec<Envelope> {
        let out = self.log.time("transport.poll", || self.inner.poll(now));
        let at = clock::process_s();
        for env in &out {
            let (Endpoint::Node(id), Payload::Report { verdict, .. }) = (env.from, &env.payload)
            else {
                continue;
            };
            let id = id as usize;
            if matches!(verdict, Verdict::Committed { .. } | Verdict::AlreadyApplied)
                && !self.committed[id]
            {
                self.committed[id] = true;
                if let Some(sent) = self.first_deliver[id] {
                    self.latencies.push((clock::wall_s(), (at - sent) * 1e3));
                }
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

/// The `fleet` workload.
pub struct FleetBench {
    seed: u64,
    nodes: u32,
    packset: PackSet,
    rollout: u64,
}

impl FleetBench {
    fn config(&self, rollout: u64) -> FleetConfig {
        FleetConfig {
            nodes: self.nodes,
            versions: VERSION_NAMES.len(),
            cpus: NODE_CPUS,
            load_threads: LOAD_THREADS,
            seed: mix(self.seed, rollout),
            ..FleetConfig::default()
        }
    }

    fn policy() -> RolloutPolicy {
        RolloutPolicy {
            canary: 8,
            growth: 8,
            jobs: JOBS,
            max_ticks: 100_000,
            ..RolloutPolicy::default()
        }
    }
}

impl Bench for FleetBench {
    const SMOKE_ITEMS: usize = 1;

    fn setup(s: &Settings) -> Result<Self, String> {
        let packset = build_packset(UPDATE, VERSION_NAMES.len(), &[], &BuildCache::new())?;
        let bench = FleetBench {
            seed: s.seed,
            nodes: if s.smoke { SMOKE_NODES } else { NODES },
            packset,
            rollout: 0,
        };
        // Boot images per version, as every rollout's fleet will.
        Fleet::new(bench.config(u64::MAX))?;
        Ok(bench)
    }

    fn run(&mut self, budget: Budget, log: &mut SpanLog, m: &mut Measured) {
        let faults = NetFaults::parse(FAULTS).expect("fault plan parses");
        let mut n = 0;
        while budget.admits(n) {
            n += 1;
            let r = self.rollout;
            self.rollout += 1;
            log.set_item(r);
            m.attempted += u64::from(self.nodes);
            let span = log.open("fleet.rollout");
            let fleet = log.time("fleet.new", || Fleet::new(self.config(r)));
            let mut fleet = match fleet {
                Ok(f) => f,
                Err(e) => {
                    log.close(span);
                    m.failed += u64::from(self.nodes);
                    m.note(format!("rollout {r}: {e}"));
                    continue;
                }
            };
            let orch = RolloutOrchestrator::new(Self::policy(), self.packset.clone(), &fleet);
            let mut tracer = m.item_tracer();
            let run = log.open("fleet.orchestrator_run");
            let mut transport = Timed {
                inner: SimTransport::with_faults(mix(self.seed, r | 1 << 63), faults.clone()),
                log: &mut *log,
                first_deliver: vec![None; self.nodes as usize],
                committed: vec![false; self.nodes as usize],
                latencies: Vec::new(),
            };
            let cpu = clock::process_s();
            let report = orch.run(&mut fleet, &mut transport, &mut tracer);
            m.busy_s += clock::process_s() - cpu;
            let latencies = std::mem::take(&mut transport.latencies);
            drop(transport);
            log.close(run);
            log.close(span);
            m.tracer.absorb(&tracer);

            let committed: u64 = report.waves.iter().map(|w| w.committed as u64).sum();
            m.done += committed;
            m.latencies.extend(latencies);
            if report.outcome != Outcome::Committed || committed != u64::from(self.nodes) {
                // Each uncommitted node failed; a rollout that ends other
                // than `Committed` fails even if every node committed.
                m.failed += u64::from(self.nodes).saturating_sub(committed).max(1);
                m.note(format!(
                    "rollout {r}: {} with {committed}/{} committed",
                    report.outcome.name(),
                    self.nodes
                ));
            }
            m.count("fleet.rollouts", 1.0);
            m.count("fleet.ticks", report.ticks as f64);
            m.count(
                "fleet.resends",
                report.waves.iter().map(|w| w.resends as f64).sum(),
            );
            m.count("transport.sent", report.transport.sent as f64);
            m.count("transport.dropped", report.transport.dropped as f64);
            m.count("transport.duplicated", report.transport.duplicated as f64);
            m.pacer.tick();
        }
    }

    fn replay(
        &mut self,
        log: &mut SpanLog,
        report: &mut probe::Report,
    ) -> Result<(Vec<probe::Input>, probe::Machine), String> {
        // One node's update without the orchestrator or the transport:
        // a single `Deliver` per node of a fresh fleet, handled on one
        // worker and timed on the process CPU clock (the worker is a
        // thread of its own).
        let mut fleet = log.time("fleet.new", || {
            Fleet::new(FleetConfig {
                nodes: DELIVER_PROBE_NODES,
                ..self.config(u64::MAX - 1)
            })
        })?;
        for id in 0..DELIVER_PROBE_NODES {
            let (pack, checksum) = self.packset.for_version(fleet.node(id).version);
            let deliver = Payload::Deliver {
                update: self.packset.update_id.clone(),
                pack: pack.to_vec(),
                checksum,
                canaries: self.packset.canaries.clone(),
            };
            let cpu = clock::process_s();
            let replies = log.time("fleet.handle_batch", || {
                fleet.handle_batch(vec![(id, vec![deliver])], 1)
            });
            report.push("fleet.node_deliver_ms", (clock::process_s() - cpu) * 1e3);
            let committed = replies.iter().flat_map(|(_, msgs)| msgs).any(|p| {
                matches!(
                    p,
                    Payload::Report {
                        verdict: Verdict::Committed { .. },
                        ..
                    }
                )
            });
            if !committed {
                return Err(format!(
                    "fleet replay: node {id} did not commit: {replies:?}"
                ));
            }
        }
        let inputs = (0..self.packset.versions())
            .map(|v| {
                let pre = version_tree(v);
                let patch = diff_trees(&pre, &patched_tree(&pre, false));
                probe::Input {
                    id: UPDATE.to_string(),
                    pre,
                    patch,
                    opts: Default::default(),
                    expect: Some(self.packset.for_version(v).0.to_vec()),
                }
            })
            .collect();
        let machine = probe::Machine {
            cpus: NODE_CPUS,
            load_threads: LOAD_THREADS,
            apply: ApplyOptions {
                retry: FleetConfig::default().retry,
                smp: SmpConfig::with_cpus(NODE_CPUS),
            },
        };
        Ok((inputs, machine))
    }
}
