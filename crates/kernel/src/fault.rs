//! Deterministic, seeded fault injection for the hot-update pipeline.
//!
//! The paper's safety story (§5) is about what happens when things go
//! *wrong*: a function that never becomes quiescent, run bytes that do
//! not match the pre build, a module load that fails mid-sequence. This
//! module lets a test (or the `ksplice demo --fault ...` dev flag) arm
//! perturbations at named pipeline sites and then watch the pipeline
//! either succeed cleanly or abort cleanly — never half-apply.
//!
//! Everything is deterministic: faults fire a caller-chosen number of
//! times, and any randomness (byte picks, step jitter) comes from a
//! seeded xorshift64* generator owned by the plan, so a failing chaos
//! schedule replays exactly from its seed.
//!
//! Sites and what they force:
//!
//! * [`Fault::StackBusy`] — the §5.2 stack safety check reports a
//!   synthetic busy thread for the next *n* stop_machine windows, as if
//!   a sleeping thread kept the target function on its stack. Forces
//!   `NotQuiescent` retries (and abandonment when *n* reaches the retry
//!   policy's attempt budget).
//! * [`Fault::ModuleLoad`] — the next *n* module loads fail with an
//!   out-of-memory link error, as if `vmalloc` failed mid-apply. Forces
//!   the load-helpers / load-primaries rollback paths.
//! * [`Fault::CorruptText`] — flips one byte of mapped kernel text
//!   (seed-chosen when no address is given), the "wrong kernel / wrong
//!   compiler / unexpected modification" scenario §4 exists to catch.
//!   Forces a run-pre `Mismatch` abort when the flipped byte lies in a
//!   matched function.
//! * [`Fault::StepJitter`] — perturbs every `Kernel::run` budget by a
//!   seeded amount up to ±`max_steps`, so retry delays never land on
//!   the exact schedule the caller asked for. Stresses the retry loop's
//!   timing assumptions without changing its outcome invariants.
//! * [`Fault::ProbeFail`] — the next *n* watch-window health probes
//!   report failure regardless of what the probed kernel actually
//!   returns, as if a canary regressed after apply. Forces the update
//!   lifecycle manager's automatic-rollback path.
//! * [`Fault::BarrierStall`] — the next *n* `stop_machine` barrier
//!   rendezvous fail: a seed-chosen vCPU never checks in, as if an
//!   interrupt-disabled spin kept it from the stop handler. Forces the
//!   barrier-timeout abort path (retryable, like `NotQuiescent`).

use std::fmt;

/// One armed perturbation (see the module docs for the forced outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Report a synthetic busy thread from the next `windows`
    /// stop_machine stack checks.
    StackBusy {
        /// How many consecutive stop_machine windows fail the check.
        windows: u32,
    },
    /// Fail the next `count` module loads with an out-of-memory error.
    ModuleLoad {
        /// How many consecutive loads fail.
        count: u32,
    },
    /// Flip one byte of mapped kernel text. `addr` pins the byte;
    /// `None` lets the plan's seeded generator pick an executable
    /// region byte.
    CorruptText {
        /// Address of the byte to flip, or `None` for a seeded pick.
        addr: Option<u64>,
    },
    /// Perturb every `Kernel::run` step budget by up to `max_steps`
    /// in either direction (budgets never drop below 1).
    StepJitter {
        /// Maximum absolute perturbation per `run` call.
        max_steps: u64,
    },
    /// Fail the next `count` watch-window health probes.
    ProbeFail {
        /// How many consecutive probes report failure.
        count: u32,
    },
    /// Fail the next `count` `stop_machine` barrier rendezvous: a
    /// seed-chosen vCPU never checks in.
    BarrierStall {
        /// How many consecutive rendezvous time out.
        count: u32,
    },
}

impl Fault {
    /// Parses the CLI / chaos-schedule spelling of a fault:
    ///
    /// * `stack-busy:N` — fail the next N stack checks
    /// * `module-load:N` — fail the next N module loads
    /// * `corrupt-text` / `corrupt-text:0xADDR` — flip a text byte
    /// * `step-jitter:N` — jitter run budgets by up to ±N steps
    /// * `probe-fail:N` — fail the next N watch-window health probes
    /// * `barrier-stall:N` — time out the next N stop_machine barriers
    pub fn parse(spec: &str) -> Result<Fault, String> {
        let (site, arg) = match spec.split_once(':') {
            Some((s, a)) => (s, Some(a)),
            None => (spec, None),
        };
        let num = |what: &str| -> Result<u64, String> {
            let a = arg.ok_or_else(|| format!("fault `{site}` needs `{site}:<{what}>`"))?;
            let (digits, radix) = match a.strip_prefix("0x") {
                Some(hex) => (hex, 16),
                None => (a, 10),
            };
            u64::from_str_radix(digits, radix).map_err(|_| format!("bad {what} `{a}` in `{spec}`"))
        };
        match site {
            "stack-busy" => Ok(Fault::StackBusy {
                windows: num("windows")? as u32,
            }),
            "module-load" => Ok(Fault::ModuleLoad {
                count: num("count")? as u32,
            }),
            "corrupt-text" => Ok(Fault::CorruptText {
                addr: arg.map(|_| num("addr")).transpose()?,
            }),
            "step-jitter" => Ok(Fault::StepJitter {
                max_steps: num("steps")?,
            }),
            "probe-fail" => Ok(Fault::ProbeFail {
                count: num("count")? as u32,
            }),
            "barrier-stall" => Ok(Fault::BarrierStall {
                count: num("count")? as u32,
            }),
            other => Err(format!(
                "unknown fault site `{other}` (expected stack-busy, module-load, corrupt-text, step-jitter, probe-fail or barrier-stall)"
            )),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::StackBusy { windows } => write!(f, "stack-busy:{windows}"),
            Fault::ModuleLoad { count } => write!(f, "module-load:{count}"),
            Fault::CorruptText { addr: Some(a) } => write!(f, "corrupt-text:{a:#x}"),
            Fault::CorruptText { addr: None } => write!(f, "corrupt-text"),
            Fault::StepJitter { max_steps } => write!(f, "step-jitter:{max_steps}"),
            Fault::ProbeFail { count } => write!(f, "probe-fail:{count}"),
            Fault::BarrierStall { count } => write!(f, "barrier-stall:{count}"),
        }
    }
}

/// A record of one fault that actually fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// The site that fired, in [`Fault::parse`] spelling.
    pub site: &'static str,
    /// Site-specific detail: the busy window index, the failed module
    /// name, the flipped address, or the jittered budget.
    pub detail: String,
}

/// The armed fault state of one [`crate::Kernel`].
///
/// A fresh plan is inert: every `should_*` probe answers "no fault" at
/// zero cost on the hot path. Arming is additive; [`FaultPlan::disarm`]
/// clears everything armed but keeps the fired log.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: u64,
    stack_busy_windows: u32,
    module_load_failures: u32,
    step_jitter_max: u64,
    probe_failures: u32,
    barrier_stalls: u32,
    fired: Vec<FiredFault>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new(0x9e37_79b9_7f4a_7c15)
    }
}

impl FaultPlan {
    /// An inert plan whose seeded generator starts from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: seed.max(1),
            stack_busy_windows: 0,
            module_load_failures: 0,
            step_jitter_max: 0,
            probe_failures: 0,
            barrier_stalls: 0,
            fired: Vec::new(),
        }
    }

    /// Re-seeds the plan's generator (chaos schedules do this so every
    /// schedule replays from its own seed regardless of arming order).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = seed.max(1);
    }

    /// True when nothing is armed.
    pub fn is_inert(&self) -> bool {
        self.stack_busy_windows == 0
            && self.module_load_failures == 0
            && self.step_jitter_max == 0
            && self.probe_failures == 0
            && self.barrier_stalls == 0
    }

    /// Clears everything armed; the fired log survives.
    pub fn disarm(&mut self) {
        self.stack_busy_windows = 0;
        self.module_load_failures = 0;
        self.step_jitter_max = 0;
        self.probe_failures = 0;
        self.barrier_stalls = 0;
    }

    /// Every fault that fired so far, in firing order.
    pub fn fired(&self) -> &[FiredFault] {
        &self.fired
    }

    /// xorshift64* step — the same generator the rest of the repo's
    /// deterministic tests use.
    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub(crate) fn arm_stack_busy(&mut self, windows: u32) {
        self.stack_busy_windows += windows;
    }

    pub(crate) fn arm_module_load(&mut self, count: u32) {
        self.module_load_failures += count;
    }

    pub(crate) fn arm_step_jitter(&mut self, max_steps: u64) {
        self.step_jitter_max = self.step_jitter_max.max(max_steps);
    }

    pub(crate) fn arm_probe_fail(&mut self, count: u32) {
        self.probe_failures += count;
    }

    pub(crate) fn arm_barrier_stall(&mut self, count: u32) {
        self.barrier_stalls += count;
    }

    /// How many stack-busy windows remain armed. The kernel's physical
    /// fault realization (`park_fault_vcpu`) uses this to decide when
    /// to release its parked vCPU without burning a window.
    pub fn stack_busy_pending(&self) -> u32 {
        self.stack_busy_windows
    }

    /// Consulted by `Kernel::stop_machine` after the rendezvous.
    /// Returns the seed-chosen vCPU (`0..ncpus`) that failed to check
    /// in, burning one armed stall; `None` when nothing is armed.
    pub fn barrier_stall(&mut self, ncpus: u32) -> Option<u32> {
        if self.barrier_stalls == 0 {
            return None;
        }
        self.barrier_stalls -= 1;
        let cpu = (self.next() % ncpus.max(1) as u64) as u32;
        self.fired.push(FiredFault {
            site: "barrier-stall",
            detail: format!("cpu{cpu}"),
        });
        Some(cpu)
    }

    /// Consulted by the update lifecycle manager before each health
    /// probe. Returns true (and burns one armed failure) when the probe
    /// named `probe` must report failure.
    pub fn probe_fails(&mut self, probe: &str) -> bool {
        if self.probe_failures == 0 {
            return false;
        }
        self.probe_failures -= 1;
        self.fired.push(FiredFault {
            site: "probe-fail",
            detail: probe.to_string(),
        });
        true
    }

    /// Consulted by the §5.2 stack safety check. Returns the synthetic
    /// busy report `(tid 0, fn_name)` and burns one armed window, or
    /// `None` when no stack-busy fault is armed.
    pub fn stack_check_busy(&mut self, ranges: &[(u64, u64, String)]) -> Option<(u64, String)> {
        if self.stack_busy_windows == 0 {
            return None;
        }
        self.stack_busy_windows -= 1;
        let name = ranges
            .first()
            .map(|(_, _, n)| n.clone())
            .unwrap_or_else(|| "<fault-injected>".to_string());
        self.fired.push(FiredFault {
            site: "stack-busy",
            detail: name.clone(),
        });
        Some((0, name))
    }

    /// Consulted by the module loader. Returns true (and burns one
    /// armed failure) when the load of `module` must fail.
    pub fn module_load_fails(&mut self, module: &str) -> bool {
        if self.module_load_failures == 0 {
            return false;
        }
        self.module_load_failures -= 1;
        self.fired.push(FiredFault {
            site: "module-load",
            detail: module.to_string(),
        });
        true
    }

    /// Consulted by `Kernel::run`. Returns the (possibly perturbed)
    /// step budget; inert plans return `budget` unchanged.
    pub fn jitter_budget(&mut self, budget: u64) -> u64 {
        if self.step_jitter_max == 0 || budget == 0 {
            return budget;
        }
        let span = 2 * self.step_jitter_max + 1;
        let offset = (self.next() % span) as i64 - self.step_jitter_max as i64;
        let jittered = (budget as i64 + offset).max(1) as u64;
        self.fired.push(FiredFault {
            site: "step-jitter",
            detail: format!("{budget}->{jittered}"),
        });
        jittered
    }

    /// Picks the text byte a seeded [`Fault::CorruptText`] flips:
    /// a seeded choice among the bytes of `exec_ranges`.
    pub(crate) fn pick_text_byte(&mut self, exec_ranges: &[(u64, u64)]) -> Option<u64> {
        let total: u64 = exec_ranges.iter().map(|(_, len)| len).sum();
        if total == 0 {
            return None;
        }
        let mut at = self.next() % total;
        for (start, len) in exec_ranges {
            if at < *len {
                return Some(start + at);
            }
            at -= len;
        }
        None
    }

    pub(crate) fn record(&mut self, site: &'static str, detail: String) {
        self.fired.push(FiredFault { site, detail });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for spec in [
            "stack-busy:3",
            "module-load:1",
            "corrupt-text",
            "step-jitter:500",
            "probe-fail:2",
            "barrier-stall:1",
        ] {
            let f = Fault::parse(spec).unwrap();
            assert_eq!(f.to_string(), spec);
        }
        assert_eq!(
            Fault::parse("corrupt-text:0xf0001000").unwrap(),
            Fault::CorruptText {
                addr: Some(0xf000_1000)
            }
        );
        assert!(Fault::parse("stack-busy").is_err());
        assert!(Fault::parse("stack-busy:x").is_err());
        assert!(Fault::parse("quantum-bitflip:1").is_err());
    }

    #[test]
    fn stack_busy_burns_armed_windows() {
        let mut plan = FaultPlan::new(7);
        plan.arm_stack_busy(2);
        let ranges = vec![(0x1000u64, 16u64, "target_fn".to_string())];
        assert_eq!(
            plan.stack_check_busy(&ranges),
            Some((0, "target_fn".to_string()))
        );
        assert!(plan.stack_check_busy(&ranges).is_some());
        assert_eq!(plan.stack_check_busy(&ranges), None);
        assert_eq!(plan.fired().len(), 2);
        assert!(plan.is_inert());
    }

    #[test]
    fn module_load_failures_are_counted() {
        let mut plan = FaultPlan::new(7);
        plan.arm_module_load(1);
        assert!(plan.module_load_fails("m1"));
        assert!(!plan.module_load_fails("m2"));
        assert_eq!(plan.fired()[0].detail, "m1");
    }

    #[test]
    fn probe_failures_burn_one_per_probe() {
        let mut plan = FaultPlan::new(7);
        plan.arm_probe_fail(2);
        assert!(!plan.is_inert());
        assert!(plan.probe_fails("canary:sys_getuid"));
        assert!(plan.probe_fails("exploit"));
        assert!(!plan.probe_fails("canary:sys_getuid"));
        assert_eq!(plan.fired().len(), 2);
        assert_eq!(plan.fired()[0].site, "probe-fail");
        assert_eq!(plan.fired()[0].detail, "canary:sys_getuid");
        assert!(plan.is_inert());
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut a = FaultPlan::new(42);
        a.arm_step_jitter(100);
        let mut b = FaultPlan::new(42);
        b.arm_step_jitter(100);
        for _ in 0..50 {
            let x = a.jitter_budget(1_000);
            assert_eq!(x, b.jitter_budget(1_000));
            assert!((900..=1_100).contains(&x));
        }
        // A different seed produces a different schedule.
        let mut c = FaultPlan::new(43);
        c.arm_step_jitter(100);
        let a_seq: Vec<u64> = (0..8).map(|_| a.jitter_budget(1_000)).collect();
        let c_seq: Vec<u64> = (0..8).map(|_| c.jitter_budget(1_000)).collect();
        assert_ne!(a_seq, c_seq);
    }

    #[test]
    fn barrier_stalls_burn_and_pick_a_cpu() {
        let mut plan = FaultPlan::new(7);
        plan.arm_barrier_stall(2);
        assert!(!plan.is_inert());
        let a = plan.barrier_stall(4).unwrap();
        let b = plan.barrier_stall(4).unwrap();
        assert!(a < 4 && b < 4);
        assert_eq!(plan.barrier_stall(4), None);
        assert!(plan.is_inert());
        assert_eq!(plan.fired().len(), 2);
        assert_eq!(plan.fired()[0].site, "barrier-stall");
        // Deterministic: same seed, same picks.
        let mut again = FaultPlan::new(7);
        again.arm_barrier_stall(2);
        assert_eq!(again.barrier_stall(4), Some(a));
        assert_eq!(again.barrier_stall(4), Some(b));
    }

    #[test]
    fn seeded_text_pick_lands_inside_a_range() {
        let mut plan = FaultPlan::new(9);
        let ranges = vec![(0x100u64, 8u64), (0x200u64, 4u64)];
        for _ in 0..32 {
            let addr = plan.pick_text_byte(&ranges).unwrap();
            assert!(
                (0x100..0x108).contains(&addr) || (0x200..0x204).contains(&addr),
                "{addr:#x}"
            );
        }
        assert!(plan.pick_text_byte(&[]).is_none());
    }
}
