//! Pack distribution over a pluggable, fault-injectable transport.
//!
//! Production Ksplice (Uptrack) ships update tarballs to millions of
//! machines over networks that drop, delay, duplicate and partition.
//! The orchestrator therefore talks to its fleet only through the
//! [`Transport`] trait — an addressed, tick-clocked message fabric — and
//! the in-process [`SimTransport`] implementation injects exactly those
//! network faults from a seed, in the style of
//! `crates/kernel/src/fault.rs`: every fault decision is a pure function
//! of the seed, so a chaotic rollout replays byte-for-byte.

use std::collections::BTreeMap;
use std::fmt;

use ksplice_lang::FuzzRng;

/// A fleet node id. Node ids are dense: node `i` is `nodes[i]`.
pub type NodeId = u32;

/// Message endpoints: the single orchestrator, or one fleet node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The rollout orchestrator.
    Orchestrator,
    /// One simulated kernel node.
    Node(NodeId),
}

/// A node's terminal answer for one delivered update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Applied, survived its quarantine watch window, committed.
    Committed {
        /// stop_machine attempts the apply took.
        attempts: u32,
        /// Pause of the successful capture window, in VM steps.
        pause_steps: u64,
    },
    /// The update was already live on this node (a duplicate delivery).
    AlreadyApplied,
    /// A watch-window canary failed; the node auto-rolled-back.
    Quarantined {
        /// The canary that failed.
        probe: String,
        /// Whether the node's text checksum matches its pre-apply image.
        restored: bool,
    },
    /// The apply itself failed (run-pre mismatch, quiescence abandon…).
    ApplyFailed {
        /// Why, for the report.
        reason: String,
        /// Whether the node's text is byte-identical to pre-apply.
        restored: bool,
    },
    /// A rollback order completed.
    RolledBack {
        /// Whether the node's text checksum matches the recorded
        /// pre-apply image — the mass-rollback verification bit.
        restored: bool,
    },
    /// The node refused the message (bad checksum, unparsable pack).
    /// The orchestrator treats this as a delivery failure and resends.
    Rejected {
        /// Why, for the report.
        reason: String,
    },
}

impl Verdict {
    /// Short wire/report name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Committed { .. } => "committed",
            Verdict::AlreadyApplied => "already-applied",
            Verdict::Quarantined { .. } => "quarantined",
            Verdict::ApplyFailed { .. } => "apply-failed",
            Verdict::RolledBack { .. } => "rolled-back",
            Verdict::Rejected { .. } => "rejected",
        }
    }
}

/// What a message carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Orchestrator → node: apply this pack.
    Deliver {
        /// Update id.
        update: String,
        /// The serialized [`ksplice_core::UpdatePack`] built for the
        /// node's base version.
        pack: Vec<u8>,
        /// FNV-1a checksum of `pack`; the node verifies before parsing,
        /// so transport corruption is detected, not applied.
        checksum: u64,
        /// Canary probe specs (`fn(args)=expected`) the node runs
        /// during its quarantine watch window.
        canaries: Vec<String>,
    },
    /// Orchestrator → node: reverse this update, checksum-verified.
    Rollback {
        /// Update id to reverse.
        update: String,
    },
    /// Node → orchestrator: the outcome of a Deliver or Rollback.
    Report {
        /// Update id the verdict is about.
        update: String,
        /// What happened.
        verdict: Verdict,
    },
}

/// An addressed message in flight.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender.
    pub from: Endpoint,
    /// Receiver.
    pub to: Endpoint,
    /// Content.
    pub payload: Payload,
}

/// Seeded network-fault plan for [`SimTransport`], the `NetFaults`
/// counterpart of the kernel's `FaultPlan`. Rates are per-mille per
/// message; delays are uniform in `[delay_min, delay_max]` ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaults {
    /// Per-mille of messages silently dropped.
    pub drop_pm: u32,
    /// Per-mille of messages delivered twice (at independent delays).
    pub dup_pm: u32,
    /// Per-mille of pack-carrying messages with one payload byte
    /// flipped (caught by the node's checksum verification).
    pub corrupt_pm: u32,
    /// Minimum delivery delay, in ticks (≥ 1).
    pub delay_min: u64,
    /// Maximum delivery delay, in ticks.
    pub delay_max: u64,
}

impl Default for NetFaults {
    fn default() -> NetFaults {
        NetFaults {
            drop_pm: 0,
            dup_pm: 0,
            corrupt_pm: 0,
            delay_min: 1,
            delay_max: 1,
        }
    }
}

impl NetFaults {
    /// Parses a comma-separated spec: `drop:PM`, `dup:PM`,
    /// `corrupt:PM`, `delay:MIN..MAX` with `1 <= MIN <= MAX` (e.g.
    /// `drop:50,dup:20,corrupt:10,delay:1..4`).
    pub fn parse(spec: &str) -> Result<NetFaults, String> {
        let mut f = NetFaults::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, val) = part
                .split_once(':')
                .ok_or_else(|| format!("bad fault `{part}` (expected key:value)"))?;
            match key {
                "drop" => f.drop_pm = parse_pm(val)?,
                "dup" => f.dup_pm = parse_pm(val)?,
                "corrupt" => f.corrupt_pm = parse_pm(val)?,
                "delay" => {
                    let (lo, hi) = val
                        .split_once("..")
                        .ok_or_else(|| format!("bad delay `{val}` (expected MIN..MAX)"))?;
                    f.delay_min = lo.parse().map_err(|_| format!("bad delay min `{lo}`"))?;
                    f.delay_max = hi.parse().map_err(|_| format!("bad delay max `{hi}`"))?;
                    if f.delay_min == 0 || f.delay_max < f.delay_min {
                        return Err(format!("bad delay `{val}` (expected 1 <= MIN <= MAX)"));
                    }
                }
                other => return Err(format!("unknown net fault `{other}`")),
            }
        }
        Ok(f)
    }
}

impl fmt::Display for NetFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drop:{},dup:{},corrupt:{},delay:{}..{}",
            self.drop_pm, self.dup_pm, self.corrupt_pm, self.delay_min, self.delay_max
        )
    }
}

fn parse_pm(val: &str) -> Result<u32, String> {
    let pm: u32 = val
        .parse()
        .map_err(|_| format!("bad per-mille `{val}`"))?;
    if pm > 1000 {
        return Err(format!("per-mille `{val}` exceeds 1000"));
    }
    Ok(pm)
}

/// A scripted network partition: node ids in `[first, last]` are
/// unreachable (both directions) while `from_tick <= now < heal_tick`.
/// Messages to or from partitioned nodes are *parked*, not dropped, and
/// re-enter the fabric when the partition heals — partitioned nodes
/// catch up instead of silently diverging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// First partitioned node id (inclusive).
    pub first: NodeId,
    /// Last partitioned node id (inclusive).
    pub last: NodeId,
    /// Tick the partition starts.
    pub from_tick: u64,
    /// Tick the partition heals.
    pub heal_tick: u64,
}

impl Partition {
    /// Parses `FIRST..LAST@FROM..HEAL`, e.g. `0..3@5..400`.
    pub fn parse(spec: &str) -> Result<Partition, String> {
        let (nodes, ticks) = spec
            .split_once('@')
            .ok_or_else(|| format!("bad partition `{spec}` (expected A..B@FROM..HEAL)"))?;
        let (a, b) = nodes
            .split_once("..")
            .ok_or_else(|| format!("bad partition nodes `{nodes}`"))?;
        let (from, heal) = ticks
            .split_once("..")
            .ok_or_else(|| format!("bad partition ticks `{ticks}`"))?;
        let p = Partition {
            first: a.parse().map_err(|_| format!("bad node id `{a}`"))?,
            last: b.parse().map_err(|_| format!("bad node id `{b}`"))?,
            from_tick: from.parse().map_err(|_| format!("bad tick `{from}`"))?,
            heal_tick: heal.parse().map_err(|_| format!("bad tick `{heal}`"))?,
        };
        if p.first > p.last || p.from_tick >= p.heal_tick {
            return Err(format!("empty partition `{spec}`"));
        }
        Ok(p)
    }

    fn blocks(&self, endpoint: Endpoint, now: u64) -> bool {
        match endpoint {
            Endpoint::Orchestrator => false,
            Endpoint::Node(id) => {
                id >= self.first && id <= self.last && now >= self.from_tick && now < self.heal_tick
            }
        }
    }
}

/// Delivery statistics, folded into the rollout report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages handed to [`Transport::send`].
    pub sent: u64,
    /// Messages delivered to their endpoint.
    pub delivered: u64,
    /// Messages silently dropped by fault injection.
    pub dropped: u64,
    /// Extra copies injected by duplication faults.
    pub duplicated: u64,
    /// Pack payloads corrupted in flight.
    pub corrupted: u64,
    /// Messages parked at a partition boundary.
    pub parked: u64,
    /// Parked messages released by a partition heal.
    pub healed: u64,
}

/// The pack-distribution fabric the orchestrator speaks to. Delivery is
/// clocked: the orchestrator calls [`Transport::poll`] once per tick and
/// receives everything due.
pub trait Transport {
    /// Queues a message for delivery.
    fn send(&mut self, env: Envelope);
    /// Delivers every message due at `now` (monotone across calls).
    fn poll(&mut self, now: u64) -> Vec<Envelope>;
    /// Messages still queued or parked.
    fn in_flight(&self) -> usize;
    /// Delivery statistics so far.
    fn stats(&self) -> TransportStats;
}

/// The in-process transport: deterministic delivery order, seeded fault
/// injection, scripted partitions with parked-message heal.
#[derive(Debug)]
pub struct SimTransport {
    rng: FuzzRng,
    faults: NetFaults,
    partitions: Vec<Partition>,
    /// In-flight messages keyed `(due_tick, seq)` — FIFO per tick.
    queue: BTreeMap<(u64, u64), Envelope>,
    /// Messages held at a partition boundary, in arrival order.
    parked: Vec<Envelope>,
    seq: u64,
    now: u64,
    stats: TransportStats,
}

impl SimTransport {
    /// A fault-free transport (1-tick delivery) from a seed.
    pub fn new(seed: u64) -> SimTransport {
        SimTransport::with_faults(seed, NetFaults::default())
    }

    /// A transport with the given fault plan.
    pub fn with_faults(seed: u64, faults: NetFaults) -> SimTransport {
        SimTransport {
            // Splash the seed so adjacent seeds (which `| 1` alone would
            // alias) produce unrelated fault streams.
            rng: FuzzRng::from_state(
                (seed ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0x2545_f491_4f6c_dd1d) | 1,
            ),
            faults,
            partitions: Vec::new(),
            queue: BTreeMap::new(),
            parked: Vec::new(),
            seq: 0,
            now: 0,
            stats: TransportStats::default(),
        }
    }

    /// Scripts a partition window.
    pub fn add_partition(&mut self, p: Partition) {
        self.partitions.push(p);
    }

    fn roll_pm(&mut self, pm: u32) -> bool {
        pm > 0 && self.rng.below(1000) < pm as u64
    }

    fn delay(&mut self) -> u64 {
        let span = self.faults.delay_max - self.faults.delay_min + 1;
        self.faults.delay_min + self.rng.below(span)
    }

    fn blocked(&self, endpoint: Endpoint, now: u64) -> bool {
        self.partitions.iter().any(|p| p.blocks(endpoint, now))
    }

    fn enqueue(&mut self, env: Envelope) {
        let due = self.now + self.delay();
        self.queue.insert((due, self.seq), env);
        self.seq += 1;
    }
}

impl Transport for SimTransport {
    fn send(&mut self, env: Envelope) {
        self.stats.sent += 1;
        if self.roll_pm(self.faults.drop_pm) {
            self.stats.dropped += 1;
            return;
        }
        let mut env = env;
        if let Payload::Deliver { pack, .. } = &mut env.payload {
            if !pack.is_empty() && self.roll_pm(self.faults.corrupt_pm) {
                let at = self.rng.below(pack.len() as u64) as usize;
                pack[at] ^= 0x5a;
                self.stats.corrupted += 1;
            }
        }
        if self.roll_pm(self.faults.dup_pm) {
            self.stats.duplicated += 1;
            self.enqueue(env.clone());
        }
        self.enqueue(env);
    }

    fn poll(&mut self, now: u64) -> Vec<Envelope> {
        self.now = self.now.max(now);
        // Heal first: parked messages whose endpoints are reachable
        // again re-enter the fabric with a fresh delivery delay.
        let parked = std::mem::take(&mut self.parked);
        for env in parked {
            if self.blocked(env.from, now) || self.blocked(env.to, now) {
                self.parked.push(env);
            } else {
                self.stats.healed += 1;
                self.enqueue(env);
            }
        }
        let due: Vec<(u64, u64)> = self
            .queue
            .range(..=(now, u64::MAX))
            .map(|(k, _)| *k)
            .collect();
        let mut out = Vec::new();
        for key in due {
            let env = self.queue.remove(&key).expect("queued");
            // Partition check happens at delivery time, both directions:
            // a reply from a freshly partitioned node parks too.
            if self.blocked(env.from, now) || self.blocked(env.to, now) {
                self.stats.parked += 1;
                self.parked.push(env);
            } else {
                self.stats.delivered += 1;
                out.push(env);
            }
        }
        out
    }

    fn in_flight(&self) -> usize {
        self.queue.len() + self.parked.len()
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(to: NodeId, tag: &str) -> Envelope {
        Envelope {
            from: Endpoint::Orchestrator,
            to: Endpoint::Node(to),
            payload: Payload::Rollback {
                update: tag.to_string(),
            },
        }
    }

    #[test]
    fn faults_parse_round_trip() {
        let f = NetFaults::parse("drop:50,dup:20,corrupt:10,delay:1..4").unwrap();
        assert_eq!(NetFaults::parse(&f.to_string()).unwrap(), f);
        assert!(NetFaults::parse("drop:1001").is_err());
        assert!(NetFaults::parse("warp:1").is_err());
        assert!(NetFaults::parse("delay:5..1").is_err());
        assert!(NetFaults::parse("delay:0..3").is_err());
        let p = Partition::parse("0..3@5..400").unwrap();
        assert_eq!((p.first, p.last, p.from_tick, p.heal_tick), (0, 3, 5, 400));
        assert!(Partition::parse("3..0@5..400").is_err());
    }

    #[test]
    fn fault_free_delivery_is_fifo_next_tick() {
        let mut t = SimTransport::new(7);
        t.send(env(0, "a"));
        t.send(env(1, "b"));
        assert!(t.poll(0).is_empty());
        let got = t.poll(1);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].to, Endpoint::Node(0));
        assert_eq!(got[1].to, Endpoint::Node(1));
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn partition_parks_and_heals() {
        let mut t = SimTransport::new(7);
        t.add_partition(Partition {
            first: 0,
            last: 0,
            from_tick: 0,
            heal_tick: 10,
        });
        t.send(env(0, "a"));
        assert!(t.poll(1).is_empty());
        assert_eq!(t.stats().parked, 1);
        assert_eq!(t.in_flight(), 1);
        // Still parked mid-partition.
        assert!(t.poll(5).is_empty());
        // On heal the message re-enters with a fresh delay.
        assert!(t.poll(10).is_empty());
        let got = t.poll(11);
        assert_eq!(got.len(), 1);
        assert_eq!(t.stats().healed, 1);
    }

    #[test]
    fn same_seed_same_fates() {
        let f = NetFaults::parse("drop:300,dup:200,delay:1..5").unwrap();
        let run = |seed: u64| {
            let mut t = SimTransport::with_faults(seed, f.clone());
            for i in 0..200 {
                t.send(env(i % 8, "x"));
            }
            let mut order = Vec::new();
            for tick in 0..16 {
                for e in t.poll(tick) {
                    order.push((tick, e.to));
                }
            }
            (order, t.stats())
        };
        assert_eq!(run(42), run(42));
        let (_, stats) = run(42);
        assert!(stats.dropped > 0 && stats.duplicated > 0);
        assert_ne!(run(42).0, run(43).0);
    }
}
