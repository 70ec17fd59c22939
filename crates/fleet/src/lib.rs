//! Fleet-scale rollout: thousands of simulated kernels, staged canary
//! waves, and a fault-injectable pack transport.
//!
//! The paper's production deployment (Uptrack) pushes rebootless updates
//! to whole fleets of heterogeneous kernels. This crate closes that gap
//! for the simulation: [`Fleet`] materializes kernels on demand from
//! per-version cached images (optionally multi-vCPU and under sustained
//! syscall load), [`SimTransport`] carries packs across a network that
//! drops, delays, duplicates, corrupts and partitions — all seeded — and
//! [`RolloutOrchestrator`] drives the staged rollout: canary cohort →
//! health-gated expansion → fleet-wide commit, with automatic wave halt
//! and checksum-verified mass rollback when the quarantine failure rate
//! crosses the policy threshold.
//!
//! Everything is deterministic from `(fleet seed, transport seed,
//! policy)`: two same-seed rollouts render byte-identical
//! [`RolloutReport`]s, which is what the chaos CI diffs.

#![deny(missing_docs)]

pub mod node;
pub mod orchestrator;
pub mod transport;

pub use node::{
    build_packset, default_canaries, patched_tree, version_tree, Fleet, FleetConfig, FleetContext,
    FleetNode, PackSet, VERSION_NAMES,
};
pub use orchestrator::{Outcome, RolloutOrchestrator, RolloutPolicy, RolloutReport, WaveRow};
pub use transport::{
    Endpoint, Envelope, NetFaults, NodeId, Partition, Payload, SimTransport, Transport,
    TransportStats, Verdict,
};
