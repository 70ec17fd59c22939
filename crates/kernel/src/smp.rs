//! The SMP substrate: virtual CPUs, per-CPU run queues, seeded
//! interleaved scheduling.
//!
//! The paper's hardest problem (§5) is capturing a *multiprocessor*
//! machine quiescent: `stop_machine` must rendezvous every CPU before a
//! trampoline byte may be written, and the §5.2 stack check races
//! against threads genuinely executing on other CPUs. A uniprocessor
//! simulation never exercises that race — every abort it produces is
//! synthetic.
//!
//! This module models N virtual CPUs the way `stop_machine` sees them,
//! while keeping the whole kernel deterministic:
//!
//! * Each vCPU owns a FIFO **run queue** of thread ids. Threads are
//!   homed on a vCPU at spawn time (round-robin by tid) and never
//!   migrate.
//! * The scheduler is an **interleaved deterministic simulation**: one
//!   host thread plays all vCPUs, visiting them in a seeded
//!   round-robin order each scheduling round and running the chosen
//!   thread for one quantum. The interleaving is a pure function of
//!   ([`SmpConfig::sched_seed`], the workload), so a failing schedule
//!   replays exactly.
//! * [`crate::Kernel::stop_machine`] performs a **barrier
//!   rendezvous** at N ≥ 2: every vCPU's current thread runs up to one
//!   more quantum (the model of "finish what you're doing and park in
//!   the stop handler") before the machine is considered captured.
//!   Those instructions are the real, measurable capture cost — and
//!   they genuinely move threads in and out of patch-target functions
//!   between retry attempts.
//!
//! `cpus = 1` (the default) is **bit-exact** with the historical
//! uniprocessor scheduler: same step counts, same fault-PRNG draws,
//! same trace timestamps. Everything multi-CPU is opt-in via
//! [`SmpConfig`].
//!
//! See `docs/CONCURRENCY.md` for the full model, the barrier protocol
//! state diagram, and the determinism guarantees.

use std::collections::VecDeque;

use crate::kernel::QUANTUM;

/// Configuration of the simulated SMP substrate.
///
/// The default — one vCPU, the historical [`QUANTUM`], a fixed seed —
/// reproduces the uniprocessor kernel exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmpConfig {
    /// Number of virtual CPUs (clamped to ≥ 1). 1 selects the
    /// historical sequential scheduler unchanged.
    pub cpus: u32,
    /// Scheduler quantum: instructions per slice before preemption.
    pub quantum: u64,
    /// Seed for the round-rotation draw that picks which vCPU leads
    /// each scheduling round (only consulted at `cpus > 1`).
    pub sched_seed: u64,
}

impl Default for SmpConfig {
    fn default() -> SmpConfig {
        SmpConfig {
            cpus: 1,
            quantum: QUANTUM,
            sched_seed: DEFAULT_SCHED_SEED,
        }
    }
}

/// The default scheduler seed: an arbitrary fixed constant, so default
/// SMP runs replay without the caller picking a seed.
pub const DEFAULT_SCHED_SEED: u64 = 0x5eed_c0de_ca11_ab1e;

impl SmpConfig {
    /// A config with `n` vCPUs and default quantum/seed.
    pub fn with_cpus(n: u32) -> SmpConfig {
        SmpConfig {
            cpus: n.max(1),
            ..SmpConfig::default()
        }
    }

    /// The same topology with a different scheduling seed.
    pub fn with_seed(mut self, seed: u64) -> SmpConfig {
        self.sched_seed = seed;
        self
    }

    /// The same topology with a different quantum (clamped to ≥ 1).
    pub fn with_quantum(mut self, quantum: u64) -> SmpConfig {
        self.quantum = quantum.max(1);
        self
    }
}

/// One virtual CPU.
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    /// CPU id, `0..cpus`.
    pub id: u32,
    /// Run queue of tids homed here, in rotation order: the front is
    /// next to be considered, a thread that just ran sits at the back.
    pub runq: VecDeque<u64>,
    /// Instructions this vCPU has executed.
    pub cycles: u64,
    /// The tid most recently scheduled on this vCPU, if any.
    pub current: Option<u64>,
}

impl Cpu {
    /// A fresh idle CPU.
    pub fn new(id: u32) -> Cpu {
        Cpu {
            id,
            ..Cpu::default()
        }
    }
}

/// Why a [`crate::Kernel::stop_machine`] capture failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopMachineError {
    /// vCPU `cpu` never checked in at the rendezvous barrier within the
    /// timeout. In the simulation an honest rendezvous always succeeds
    /// within one quantum per CPU, so this only fires through an armed
    /// `barrier-stall` fault (see [`crate::Fault::BarrierStall`]).
    BarrierTimeout {
        /// The vCPU that failed to check in.
        cpu: u32,
    },
}

impl std::fmt::Display for StopMachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopMachineError::BarrierTimeout { cpu } => {
                write!(f, "stop_machine barrier timeout: cpu {cpu} never checked in")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_uniprocessor() {
        let cfg = SmpConfig::default();
        assert_eq!(cfg.cpus, 1);
        assert_eq!(cfg.quantum, QUANTUM);
    }

    #[test]
    fn cpus_clamp_to_one() {
        assert_eq!(SmpConfig::with_cpus(0).cpus, 1);
        assert_eq!(SmpConfig::with_cpus(4).cpus, 4);
        assert_eq!(SmpConfig::default().with_quantum(0).quantum, 1);
    }
}
