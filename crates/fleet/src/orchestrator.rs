//! Staged-wave rollout with canary containment and mass rollback.
//!
//! The wave state machine (documented in `docs/FLEET.md`):
//!
//! ```text
//!   Waves(0)  --all members terminal, failure ≤ threshold-->  Waves(1) …
//!      |                                                         |
//!      | failure rate > halt threshold                           | last wave clean
//!      v                                                         v
//!   RollingBack  --every committed node verified restored-->  Done(Contained)
//!                                                 Done(Committed)
//! ```
//!
//! Wave membership is a seeded shuffle, optionally stratified so the
//! canary cohort samples every base version — a pack that is safe on one
//! version and poisonous on another (the *Beyond Crash-to-Patch* shape)
//! is then caught before it leaves the canary. A wave gates only when
//! **every** member holds a terminal verdict: a partitioned canary blocks
//! expansion until the partition heals and its report arrives, so silence
//! is never read as health.
//!
//! Delivery runs over the fault-injectable [`Transport`]: unacknowledged
//! sends are re-sent every `RESEND_TICKS`; nodes still silent after
//! `SEND_ATTEMPTS` sends become *stragglers* and keep receiving a resend
//! every `STRAGGLER_TICKS` so they re-converge when the network heals
//! rather than diverging forever. A halt orders rollback not just
//! to nodes that reported `Committed` but to every member still in
//! flight — a node whose commit report was dropped is reversed anyway
//! (rollback is idempotent and sticky node-side).

use std::collections::BTreeMap;

use ksplice_lang::FuzzRng;
use ksplice_trace::{Severity, Stage, Tracer, Value};

use crate::node::{Fleet, PackSet};
use crate::transport::{
    Endpoint, Envelope, NodeId, Payload, Transport, TransportStats, Verdict,
};

/// Knobs of one staged rollout.
#[derive(Debug, Clone)]
pub struct RolloutPolicy {
    /// Canary cohort size (wave 0).
    pub canary: u32,
    /// Wave growth factor: wave *k* holds `canary · growth^k` nodes.
    pub growth: u32,
    /// Halt threshold, per mille: a wave whose
    /// `(quarantined + failed) / members` exceeds this triggers fleet
    /// rollback instead of expansion.
    pub halt_per_mille: u32,
    /// Give up (outcome `Exhausted`) after this many ticks.
    pub max_ticks: u64,
    /// Worker threads sharding node message handling.
    pub jobs: usize,
}

impl Default for RolloutPolicy {
    fn default() -> RolloutPolicy {
        RolloutPolicy {
            canary: 4,
            growth: 4,
            halt_per_mille: 200,
            max_ticks: 10_000,
            jobs: 4,
        }
    }
}

/// Sends of one message (the first plus resends) before its node becomes
/// a straggler.
const SEND_ATTEMPTS: u32 = 5;
/// Ticks between resends of an unacknowledged message.
const RESEND_TICKS: u64 = 8;
/// Slow resend cadence (ticks) once a node exhausts [`SEND_ATTEMPTS`] —
/// the straggler drip that lets partitioned nodes re-converge.
const STRAGGLER_TICKS: u64 = 32;

/// How a rollout ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every wave gated clean; the whole fleet committed the update.
    Committed,
    /// A wave crossed the halt threshold; every node that had (or may
    /// have) committed was rolled back and the rest of the fleet was
    /// never contacted.
    Contained,
    /// `max_ticks` elapsed before the rollout or rollback converged.
    Exhausted,
}

impl Outcome {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Committed => "committed",
            Outcome::Contained => "contained",
            Outcome::Exhausted => "exhausted",
        }
    }
}

/// Per-wave accounting in the final report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveRow {
    /// Wave index (0 = canary).
    pub wave: usize,
    /// Member count.
    pub members: usize,
    /// Members that committed (incl. duplicate-ack `AlreadyApplied`).
    pub committed: usize,
    /// Members quarantined by a canary probe (auto-rolled-back locally).
    pub quarantined: usize,
    /// Members whose apply failed outright.
    pub failed: usize,
    /// Deliver resends this wave's members needed.
    pub resends: u64,
    /// Tick the wave launched.
    pub launched_tick: u64,
    /// Tick the wave gated (all members terminal), if it did.
    pub gated_tick: Option<u64>,
}

/// The deterministic outcome of [`RolloutOrchestrator::run`]. Contains
/// no wall-clock quantities, so two same-seed rollouts render
/// byte-identically — CI diffs exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutReport {
    /// Update id rolled out.
    pub update: String,
    /// Terminal state.
    pub outcome: Outcome,
    /// Fleet size.
    pub nodes: u32,
    /// Per-wave rows, launch order.
    pub waves: Vec<WaveRow>,
    /// The wave that crossed the halt threshold, if any.
    pub halted_wave: Option<usize>,
    /// Nodes ordered to roll back after a halt.
    pub rolled_back: u32,
    /// Rollback acks whose text checksum matched the node's recorded
    /// pre-apply image — must equal `rolled_back` for a clean halt.
    pub rollback_clean: u32,
    /// Nodes that exhausted the resend schedule but still reached a
    /// terminal verdict via the straggler drip.
    pub stragglers_converged: u32,
    /// Nodes never contacted at all (waves beyond the halt) — the
    /// containment headcount.
    pub uncontacted: u32,
    /// Ticks the rollout ran.
    pub ticks: u64,
    /// Transport-level delivery statistics.
    pub transport: TransportStats,
}

impl RolloutReport {
    /// Multi-line human rendering; wall-clock-free and deterministic.
    pub fn render(&self) -> String {
        let mut out = format!(
            "rollout {}: {} across {} node(s) in {} tick(s)\n",
            self.update,
            self.outcome.name(),
            self.nodes,
            self.ticks
        );
        for w in &self.waves {
            let gated = match w.gated_tick {
                Some(t) => format!("gated @{t}"),
                None => "never gated".to_string(),
            };
            out.push_str(&format!(
                "  wave {:>2}: {:>5} member(s)  {:>5} committed  {:>4} quarantined  {:>4} failed  {:>4} resend(s)  launched @{} {}\n",
                w.wave, w.members, w.committed, w.quarantined, w.failed, w.resends,
                w.launched_tick, gated
            ));
        }
        if let Some(wave) = self.halted_wave {
            out.push_str(&format!(
                "  HALT at wave {wave}: {} node(s) ordered to roll back, {} verified byte-identical, {} never contacted\n",
                self.rolled_back, self.rollback_clean, self.uncontacted
            ));
        }
        let t = &self.transport;
        out.push_str(&format!(
            "  transport: {} sent, {} delivered, {} dropped, {} duplicated, {} corrupted, {} parked, {} healed\n",
            t.sent, t.delivered, t.dropped, t.duplicated, t.corrupted, t.parked, t.healed
        ));
        if self.stragglers_converged > 0 {
            out.push_str(&format!(
                "  stragglers re-converged: {}\n",
                self.stragglers_converged
            ));
        }
        out
    }
}

/// One node's contact state within a campaign (deliver or rollback).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Contact {
    /// Not yet sent to.
    Pending,
    /// Sent; awaiting a terminal report.
    InFlight {
        /// Sends so far.
        attempt: u32,
        /// Tick to resend at if still unacknowledged.
        next_send: u64,
        /// Whether the resend schedule is exhausted (slow drip mode).
        straggler: bool,
    },
    /// Terminal verdict received.
    Done(Verdict),
}

impl Contact {
    fn is_done(&self) -> bool {
        matches!(self, Contact::Done(_))
    }

    fn committed(&self) -> bool {
        matches!(
            self,
            Contact::Done(Verdict::Committed { .. }) | Contact::Done(Verdict::AlreadyApplied)
        )
    }
}

/// The committed, quarantined and failed members among `ids`, by their
/// deliver contact; a member not yet terminal counts in none.
fn tally(members: &[Member], ids: &[NodeId]) -> (usize, usize, usize) {
    let (mut committed, mut quarantined, mut failed) = (0, 0, 0);
    for &id in ids {
        match &members[id as usize].deliver {
            c if c.committed() => committed += 1,
            Contact::Done(Verdict::Quarantined { .. }) => quarantined += 1,
            Contact::Done(_) => failed += 1,
            Contact::Pending | Contact::InFlight { .. } => {}
        }
    }
    (committed, quarantined, failed)
}

/// Orchestrator-side record for one node.
#[derive(Debug, Clone)]
struct Member {
    wave: usize,
    deliver: Contact,
    rollback: Option<Contact>,
    resends: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RolloutPhase {
    Waves(usize),
    RollingBack,
    Done(Outcome),
}

/// Drives one update across a [`Fleet`] in staged waves over a
/// [`Transport`]. See the module docs for the state machine.
pub struct RolloutOrchestrator {
    policy: RolloutPolicy,
    packset: PackSet,
    node_versions: Vec<usize>,
    waves: Vec<Vec<NodeId>>,
    members: Vec<Member>,
    rows: Vec<WaveRow>,
    phase: RolloutPhase,
    halted_wave: Option<usize>,
    stragglers_converged: u32,
    now: u64,
}

impl RolloutOrchestrator {
    /// Plans the waves for `fleet` (seeded shuffle + version
    /// stratification) without sending anything yet.
    pub fn new(policy: RolloutPolicy, packset: PackSet, fleet: &Fleet) -> RolloutOrchestrator {
        let node_versions = fleet.versions();
        let waves = plan_waves(&policy, &node_versions, fleet.cfg.seed);
        let mut members: Vec<Member> = node_versions
            .iter()
            .map(|_| Member {
                wave: usize::MAX,
                deliver: Contact::Pending,
                rollback: None,
                resends: 0,
            })
            .collect();
        for (w, wave) in waves.iter().enumerate() {
            for &id in wave {
                members[id as usize].wave = w;
            }
        }
        RolloutOrchestrator {
            policy,
            packset,
            node_versions,
            waves,
            members,
            rows: Vec::new(),
            phase: RolloutPhase::Waves(0),
            halted_wave: None,
            stragglers_converged: 0,
            now: 0,
        }
    }

    /// The planned cohorts, wave order (useful to tests and dry runs).
    pub fn planned_waves(&self) -> &[Vec<NodeId>] {
        &self.waves
    }

    /// Runs the rollout to a terminal state (or tick exhaustion),
    /// returning the deterministic report. Counters and events land in
    /// `tracer` under the `fleet` stage.
    pub fn run(
        mut self,
        fleet: &mut Fleet,
        transport: &mut dyn Transport,
        tracer: &mut Tracer,
    ) -> RolloutReport {
        self.launch_wave(0, transport, tracer);
        for tick in 0..self.policy.max_ticks {
            self.now = tick;
            tracer.set_now(tick);
            let inbox = transport.poll(tick);
            let mut node_batch: BTreeMap<NodeId, Vec<Payload>> = BTreeMap::new();
            for env in inbox {
                match env.to {
                    Endpoint::Orchestrator => {
                        if let (Endpoint::Node(id), Payload::Report { update, verdict }) =
                            (env.from, env.payload)
                        {
                            if update == self.packset.update_id {
                                self.on_report(id, verdict, transport, tracer);
                            }
                        }
                    }
                    Endpoint::Node(id) => {
                        node_batch.entry(id).or_default().push(env.payload);
                    }
                }
            }
            if !node_batch.is_empty() {
                let replies =
                    fleet.handle_batch(node_batch.into_iter().collect(), self.policy.jobs);
                for (id, payloads) in replies {
                    for payload in payloads {
                        transport.send(Envelope {
                            from: Endpoint::Node(id),
                            to: Endpoint::Orchestrator,
                            payload,
                        });
                    }
                }
            }
            self.drive(transport, tracer);
            self.gate(transport, tracer);
            if let RolloutPhase::Done(outcome) = self.phase {
                return self.report(fleet, transport, outcome, tracer);
            }
        }
        self.report(fleet, transport, Outcome::Exhausted, tracer)
    }

    /// Marks wave `w` live and queues its first deliveries.
    fn launch_wave(&mut self, w: usize, transport: &mut dyn Transport, tracer: &mut Tracer) {
        tracer.count("fleet.waves_launched", 1);
        tracer.emit(
            Stage::Fleet,
            Severity::Info,
            "wave_launch",
            vec![
                ("wave", Value::U64(w as u64)),
                ("members", Value::U64(self.waves[w].len() as u64)),
            ],
        );
        self.rows.push(WaveRow {
            wave: w,
            members: self.waves[w].len(),
            committed: 0,
            quarantined: 0,
            failed: 0,
            resends: 0,
            launched_tick: self.now,
            gated_tick: None,
        });
        let ids = self.waves[w].clone();
        for id in ids {
            self.send_deliver(id, transport, tracer);
        }
    }

    fn send_deliver(&mut self, id: NodeId, transport: &mut dyn Transport, tracer: &mut Tracer) {
        let version = self.node_versions[id as usize].min(self.packset.versions() - 1);
        let (pack, checksum) = self.packset.for_version(version);
        transport.send(Envelope {
            from: Endpoint::Orchestrator,
            to: Endpoint::Node(id),
            payload: Payload::Deliver {
                update: self.packset.update_id.clone(),
                pack: pack.to_vec(),
                checksum,
                canaries: self.packset.canaries.clone(),
            },
        });
        tracer.count("fleet.packs_sent", 1);
        self.bump_contact(id, false);
    }

    fn send_rollback(&mut self, id: NodeId, transport: &mut dyn Transport, tracer: &mut Tracer) {
        transport.send(Envelope {
            from: Endpoint::Orchestrator,
            to: Endpoint::Node(id),
            payload: Payload::Rollback {
                update: self.packset.update_id.clone(),
            },
        });
        tracer.count("fleet.rollbacks_sent", 1);
        self.bump_contact(id, true);
    }

    /// Advances a node's contact state after a send: Pending becomes
    /// in-flight, a resend schedules the next attempt, an exhausted
    /// schedule degrades to the straggler drip.
    fn bump_contact(&mut self, id: NodeId, rollback: bool) {
        let now = self.now;
        let member = &mut self.members[id as usize];
        let contact = if rollback {
            member.rollback.get_or_insert(Contact::Pending)
        } else {
            &mut member.deliver
        };
        let (attempt, is_resend) = match *contact {
            Contact::Pending => (1, false),
            Contact::InFlight { attempt, .. } => (attempt + 1, true),
            Contact::Done(_) => return,
        };
        let straggler = attempt >= SEND_ATTEMPTS;
        let delay = if straggler {
            STRAGGLER_TICKS
        } else {
            RESEND_TICKS
        };
        *contact = Contact::InFlight {
            attempt,
            next_send: now + delay,
            straggler,
        };
        if is_resend {
            member.resends += 1;
        }
    }

    /// A report arrived. Terminal verdicts settle the node's campaign;
    /// `Rejected` re-arms the resend clock; a late `Committed` during
    /// rollback triggers an immediate rollback order.
    fn on_report(
        &mut self,
        id: NodeId,
        verdict: Verdict,
        transport: &mut dyn Transport,
        tracer: &mut Tracer,
    ) {
        tracer.count("fleet.reports_received", 1);
        if (id as usize) >= self.members.len() || self.members[id as usize].wave == usize::MAX {
            return; // stray report from a node outside the plan
        }
        let rolling_back = self.phase == RolloutPhase::RollingBack;
        let is_rollback_report = matches!(verdict, Verdict::RolledBack { .. });
        let member = &mut self.members[id as usize];
        let contact = if is_rollback_report {
            member.rollback.get_or_insert(Contact::Pending)
        } else {
            &mut member.deliver
        };
        if contact.is_done() {
            return; // duplicate terminal report
        }
        let was_straggler = matches!(contact, Contact::InFlight { straggler: true, .. });
        match &verdict {
            Verdict::Rejected { reason } => {
                // Delivery-level failure (corrupt pack): re-arm to resend
                // promptly rather than waiting out the current backoff.
                tracer.count("fleet.packs_rejected", 1);
                tracer.emit(
                    Stage::Fleet,
                    Severity::Warn,
                    "pack_rejected",
                    vec![
                        ("node", Value::U64(id as u64)),
                        ("reason", Value::Str(reason.clone())),
                    ],
                );
                if let Contact::InFlight { next_send, .. } = contact {
                    *next_send = self.now + 1;
                }
                return;
            }
            Verdict::Committed { .. } | Verdict::AlreadyApplied => {
                *contact = Contact::Done(verdict.clone());
                tracer.count("fleet.nodes_committed", 1);
            }
            Verdict::Quarantined { probe, restored } => {
                *contact = Contact::Done(verdict.clone());
                tracer.count("fleet.nodes_quarantined", 1);
                tracer.emit(
                    Stage::Fleet,
                    Severity::Warn,
                    "node_quarantined",
                    vec![
                        ("node", Value::U64(id as u64)),
                        ("probe", Value::Str(probe.clone())),
                        ("restored", Value::Bool(*restored)),
                    ],
                );
            }
            Verdict::ApplyFailed { reason, .. } => {
                *contact = Contact::Done(verdict.clone());
                tracer.count("fleet.nodes_failed", 1);
                tracer.emit(
                    Stage::Fleet,
                    Severity::Warn,
                    "node_apply_failed",
                    vec![
                        ("node", Value::U64(id as u64)),
                        ("reason", Value::Str(reason.clone())),
                    ],
                );
            }
            Verdict::RolledBack { restored } => {
                *contact = Contact::Done(verdict.clone());
                tracer.count("fleet.nodes_rolled_back", 1);
                if *restored {
                    tracer.count("fleet.rollbacks_verified", 1);
                }
            }
        }
        if was_straggler {
            self.stragglers_converged += 1;
            tracer.count("fleet.stragglers_converged", 1);
        }
        // A node that committed after the halt decision still gets
        // reversed: order rollback the moment its late report lands.
        if rolling_back
            && !is_rollback_report
            && self.members[id as usize].deliver.committed()
            && self.members[id as usize].rollback.is_none()
        {
            self.send_rollback(id, transport, tracer);
        }
    }

    /// Resend pass: every in-flight contact past its resend tick goes
    /// again. During rollback, Deliver resends stop (the wave is halted)
    /// and only Rollback contacts are driven.
    fn drive(&mut self, transport: &mut dyn Transport, tracer: &mut Tracer) {
        let rolling_back = self.phase == RolloutPhase::RollingBack;
        for id in 0..self.members.len() as NodeId {
            let member = &self.members[id as usize];
            if member.wave == usize::MAX {
                continue;
            }
            let due = |c: &Contact| match c {
                Contact::InFlight { next_send, .. } => self.now >= *next_send,
                _ => false,
            };
            if rolling_back {
                if member.rollback.as_ref().is_some_and(due) {
                    tracer.count("fleet.resends_sent", 1);
                    self.send_rollback(id, transport, tracer);
                }
            } else if due(&member.deliver) {
                tracer.count("fleet.resends_sent", 1);
                self.send_deliver(id, transport, tracer);
            }
        }
    }

    /// Wave gate / rollback-completion check.
    fn gate(&mut self, transport: &mut dyn Transport, tracer: &mut Tracer) {
        match self.phase {
            RolloutPhase::Waves(w) => {
                let members = self.waves[w].clone();
                if !members
                    .iter()
                    .all(|&id| self.members[id as usize].deliver.is_done())
                {
                    return;
                }
                let (committed, quarantined, failed) = tally(&self.members, &members);
                self.rows[w].gated_tick = Some(self.now);
                let per_mille = ((quarantined + failed) * 1000 / members.len()) as u32;
                tracer.emit(
                    Stage::Fleet,
                    Severity::Info,
                    "wave_gate",
                    vec![
                        ("wave", Value::U64(w as u64)),
                        ("committed", Value::U64(committed as u64)),
                        ("quarantined", Value::U64(quarantined as u64)),
                        ("failed", Value::U64(failed as u64)),
                        ("failure_per_mille", Value::U64(per_mille as u64)),
                    ],
                );
                if per_mille > self.policy.halt_per_mille {
                    tracer.count("fleet.waves_halted", 1);
                    tracer.emit(
                        Stage::Fleet,
                        Severity::Error,
                        "wave_halt",
                        vec![
                            ("wave", Value::U64(w as u64)),
                            ("failure_per_mille", Value::U64(per_mille as u64)),
                            ("threshold", Value::U64(self.policy.halt_per_mille as u64)),
                        ],
                    );
                    self.halted_wave = Some(w);
                    self.phase = RolloutPhase::RollingBack;
                    // Order rollback for every contacted node that
                    // committed — or may yet commit (in flight): a node
                    // whose commit report was dropped is reversed anyway,
                    // since rollback is idempotent and sticky node-side.
                    for id in 0..self.members.len() as NodeId {
                        let m = &self.members[id as usize];
                        if m.wave == usize::MAX {
                            continue;
                        }
                        if m.deliver.committed()
                            || matches!(m.deliver, Contact::InFlight { .. })
                        {
                            self.send_rollback(id, transport, tracer);
                        }
                    }
                    self.check_rollback_done(transport, tracer);
                } else if w + 1 < self.waves.len() {
                    self.phase = RolloutPhase::Waves(w + 1);
                    self.launch_wave(w + 1, transport, tracer);
                } else {
                    self.finish(Outcome::Committed, tracer);
                }
            }
            RolloutPhase::RollingBack => self.check_rollback_done(transport, tracer),
            RolloutPhase::Done(_) => {}
        }
    }

    fn check_rollback_done(&mut self, transport: &dyn Transport, tracer: &mut Tracer) {
        // Every ordered rollback must be terminal, and no in-flight
        // message may still turn into a late commit.
        let all_acked = self
            .members
            .iter()
            .all(|m| m.rollback.as_ref().is_none_or(Contact::is_done));
        if all_acked && transport.in_flight() == 0 {
            self.finish(Outcome::Contained, tracer);
        }
    }

    fn finish(&mut self, outcome: Outcome, tracer: &mut Tracer) {
        self.phase = RolloutPhase::Done(outcome);
        tracer.emit(
            Stage::Fleet,
            Severity::Info,
            "rollout_done",
            vec![("outcome", Value::Str(outcome.name().to_string()))],
        );
    }

    /// Final tally. Rows are recomputed from member state so a wave that
    /// never gated (exhaustion) still reports its partial progress.
    fn report(
        mut self,
        fleet: &Fleet,
        transport: &dyn Transport,
        outcome: Outcome,
        tracer: &mut Tracer,
    ) -> RolloutReport {
        for row in &mut self.rows {
            let wave = &self.waves[row.wave];
            (row.committed, row.quarantined, row.failed) = tally(&self.members, wave);
            row.resends = wave
                .iter()
                .map(|&id| self.members[id as usize].resends)
                .sum();
        }
        let uncontacted = self
            .members
            .iter()
            .filter(|m| m.deliver == Contact::Pending)
            .count() as u32;
        let rolled_back = self.members.iter().filter(|m| m.rollback.is_some()).count() as u32;
        let rollback_clean = self
            .members
            .iter()
            .filter(|m| {
                matches!(
                    m.rollback,
                    Some(Contact::Done(Verdict::RolledBack { restored: true }))
                )
            })
            .count() as u32;
        let stats = transport.stats();
        for (name, n) in [
            ("fleet.msgs_sent", stats.sent),
            ("fleet.msgs_delivered", stats.delivered),
            ("fleet.msgs_dropped", stats.dropped),
            ("fleet.msgs_duplicated", stats.duplicated),
            ("fleet.msgs_corrupted", stats.corrupted),
            ("fleet.msgs_parked", stats.parked),
            ("fleet.msgs_healed", stats.healed),
        ] {
            tracer.count(name, n);
        }
        RolloutReport {
            update: self.packset.update_id.clone(),
            outcome,
            nodes: fleet.len() as u32,
            waves: self.rows,
            halted_wave: self.halted_wave,
            rolled_back,
            rollback_clean,
            stragglers_converged: self.stragglers_converged,
            uncontacted,
            ticks: self.now + 1,
            transport: stats,
        }
    }
}

/// Seeded Fisher-Yates shuffle of `0..n`, version stratification, then
/// geometric cohort slicing.
fn plan_waves(policy: &RolloutPolicy, versions: &[usize], seed: u64) -> Vec<Vec<NodeId>> {
    let n = versions.len();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rng = FuzzRng::from_state((seed ^ 0x77a9_5e1f_0c3d_2b47) | 1);
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    // Regroup round-robin across versions, preserving shuffled order
    // within each version, so every cohort prefix samples all versions
    // (the canary especially).
    let nv = versions.iter().copied().max().unwrap_or(0) + 1;
    let mut by_version: Vec<Vec<NodeId>> = vec![Vec::new(); nv];
    for &id in &order {
        by_version[versions[id as usize]].push(id);
    }
    let mut interleaved = Vec::with_capacity(n);
    let mut cursors = vec![0usize; nv];
    while interleaved.len() < n {
        for (v, cursor) in cursors.iter_mut().enumerate() {
            if *cursor < by_version[v].len() {
                interleaved.push(by_version[v][*cursor]);
                *cursor += 1;
            }
        }
    }
    let mut waves = Vec::new();
    let mut start = 0usize;
    let mut size = policy.canary.max(1) as usize;
    while start < n {
        let end = (start + size).min(n);
        waves.push(interleaved[start..end].to_vec());
        start = end;
        size = size.saturating_mul(policy.growth.max(2) as usize);
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(canary: u32) -> RolloutPolicy {
        RolloutPolicy {
            canary,
            ..RolloutPolicy::default()
        }
    }

    #[test]
    fn waves_grow_geometrically_and_cover_everyone() {
        let versions: Vec<usize> = (0..100).map(|i| i % 3).collect();
        let waves = plan_waves(&policy(4), &versions, 7);
        let sizes: Vec<usize> = waves.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 16, 64, 16]);
        let mut all: Vec<NodeId> = waves.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn stratified_canary_samples_every_version() {
        let versions: Vec<usize> = (0..90).map(|i| i % 3).collect();
        let waves = plan_waves(&policy(6), &versions, 99);
        let canary_versions: Vec<usize> =
            waves[0].iter().map(|&id| versions[id as usize]).collect();
        for v in 0..3 {
            assert!(
                canary_versions.contains(&v),
                "canary {canary_versions:?} misses version {v}"
            );
        }
    }

    #[test]
    fn plan_is_seeded() {
        let versions: Vec<usize> = (0..64).map(|i| i % 3).collect();
        assert_eq!(
            plan_waves(&policy(4), &versions, 1),
            plan_waves(&policy(4), &versions, 1)
        );
        assert_ne!(
            plan_waves(&policy(4), &versions, 1),
            plan_waves(&policy(4), &versions, 2)
        );
    }
}
