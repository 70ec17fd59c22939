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
//! times, and any randomness (byte picks, step jitter, stalled vCPUs)
//! comes from a seeded xorshift64* generator owned by the plan, so a
//! failing chaos schedule replays exactly from its seed.
//!
//! Each site is one row of [`SITES`], which says what the site forces.
//! Parsing and printing a [`Fault`] render from that table, every fault
//! but a text corruption is armed through [`FaultPlan::arm`], and every
//! counted site fires through [`FaultPlan::fire`].

use std::fmt;

use ksplice_lang::FuzzRng;

/// A fault-injection site: the index of its row in [`SITES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Consulted by the §5.2 stack check in each stop_machine window.
    StackBusy,
    /// Consulted by `Kernel::insmod_with` on every module load.
    ModuleLoad,
    /// Acts once, as `Kernel::arm_fault` arms it.
    CorruptText,
    /// Consulted by `Kernel::run` on every call.
    StepJitter,
    /// Consulted before every watch-window health probe.
    ProbeFail,
    /// Consulted by `Kernel::stop_machine` after the rendezvous.
    BarrierStall,
}

/// What follows a site's name in its spelling. A count or bound is at
/// most `u32::MAX` and is named in errors by its string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteArg {
    /// `:N` firings; arming again adds to those left, saturating.
    Count(&'static str),
    /// `:N`, a bound; arming again keeps the larger.
    Max(&'static str),
    /// Nothing, or `:ADDR` in `0x` hex or decimal.
    Addr,
}

/// The fault table: each site, its spelling (the `--fault` syntax and
/// the [`FiredFault::site`] it logs) and its argument, in [`Site`]
/// order. [`Fault::parse`], `Display for Fault`, the unknown-site error
/// and the CLI usage all render from it.
pub const SITES: [(Site, &str, SiteArg); 6] = [
    // The stack check finds the target busy for the next N windows, as
    // if a sleeping thread kept it on its stack: `NotQuiescent` retries,
    // and abandonment once N reaches the retry policy's attempts. At one
    // vCPU the check reports a synthetic thread 0; at two or more a real
    // thread is parked at the target's entry (`Kernel::park_fault_vcpu`)
    // until the windows run out.
    (Site::StackBusy, "stack-busy", SiteArg::Count("windows")),
    // The next N module loads fail with an out-of-memory link error, as
    // if `vmalloc` failed mid-apply: the load-helpers and
    // load-primaries rollback paths.
    (Site::ModuleLoad, "module-load", SiteArg::Count("count")),
    // Inverts one byte of mapped kernel text as it is armed, at ADDR or
    // at a seeded pick among the executable bytes: the "wrong kernel or
    // unexpected modification" case §4 exists to catch, a run-pre
    // `Mismatch` abort when the byte lies in a matched function.
    (Site::CorruptText, "corrupt-text", SiteArg::Addr),
    // Moves every `Kernel::run` budget by a seeded amount of up to ±N
    // steps (never below 1), so retry delays never land on the exact
    // schedule the caller asked for.
    (Site::StepJitter, "step-jitter", SiteArg::Max("steps")),
    // The next N watch-window health probes fail whatever the kernel
    // answers, as if a canary regressed after apply: the lifecycle
    // manager's automatic rollback.
    (Site::ProbeFail, "probe-fail", SiteArg::Count("count")),
    // The next N stop_machine rendezvous time out: a seed-chosen vCPU
    // never checks in, as if an interrupt-disabled spin kept it from
    // the stop handler. A retryable abort, like `NotQuiescent`.
    (Site::BarrierStall, "barrier-stall", SiteArg::Count("count")),
];

impl Site {
    /// The site's spelling.
    pub fn name(self) -> &'static str {
        SITES[self as usize].1
    }

    /// The site's argument.
    fn arg(self) -> SiteArg {
        SITES[self as usize].2
    }

    /// The site's entry in a usage line: `name:N` or `name[:0xADDR]`.
    pub fn usage(self) -> String {
        match self.arg() {
            SiteArg::Addr => format!("{}[:0xADDR]", self.name()),
            SiteArg::Count(_) | SiteArg::Max(_) => format!("{}:N", self.name()),
        }
    }

    /// The fault arming this site with `arg`, which [`Fault::parse`]
    /// checked against the site's row.
    fn fault(self, arg: Option<u64>) -> Fault {
        let n = arg.unwrap_or(0);
        let count = n as u32;
        match self {
            Site::StackBusy => Fault::StackBusy { windows: count },
            Site::ModuleLoad => Fault::ModuleLoad { count },
            Site::CorruptText => Fault::CorruptText { addr: arg },
            Site::StepJitter => Fault::StepJitter { max_steps: n },
            Site::ProbeFail => Fault::ProbeFail { count },
            Site::BarrierStall => Fault::BarrierStall { count },
        }
    }
}

/// One armed perturbation: a [`Site`] and its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// [`Site::StackBusy`].
    StackBusy {
        /// How many consecutive stop_machine windows fail the check.
        windows: u32,
    },
    /// [`Site::ModuleLoad`].
    ModuleLoad {
        /// How many consecutive loads fail.
        count: u32,
    },
    /// [`Site::CorruptText`].
    CorruptText {
        /// Address of the byte to flip, or `None` for a seeded pick.
        addr: Option<u64>,
    },
    /// [`Site::StepJitter`].
    StepJitter {
        /// Maximum absolute perturbation per `run` call.
        max_steps: u64,
    },
    /// [`Site::ProbeFail`].
    ProbeFail {
        /// How many consecutive probes report failure.
        count: u32,
    },
    /// [`Site::BarrierStall`].
    BarrierStall {
        /// How many consecutive rendezvous time out.
        count: u32,
    },
}

impl Fault {
    /// Parses the CLI / chaos-schedule spelling of a fault: a site's
    /// name from [`SITES`], then its argument as [`Site::usage`] spells
    /// it.
    pub fn parse(spec: &str) -> Result<Fault, String> {
        let (name, arg) = match spec.split_once(':') {
            Some((s, a)) => (s, Some(a)),
            None => (spec, None),
        };
        let Some(&(site, _, kind)) = SITES.iter().find(|row| row.1 == name) else {
            let [rest @ .., last] = SITES.map(|row| row.1);
            return Err(format!(
                "unknown fault site `{name}` (expected {} or {last})",
                rest.join(", ")
            ));
        };
        let num = |what: &str| -> Result<u64, String> {
            let a = arg.ok_or_else(|| format!("fault `{name}` needs `{name}:<{what}>`"))?;
            let (digits, radix) = match a.strip_prefix("0x") {
                Some(hex) => (hex, 16),
                None => (a, 10),
            };
            u64::from_str_radix(digits, radix).map_err(|_| format!("bad {what} `{a}` in `{spec}`"))
        };
        let arg = match kind {
            SiteArg::Addr => arg.map(|_| num("addr")).transpose()?,
            SiteArg::Count(what) | SiteArg::Max(what) => {
                let n = num(what)?;
                if n > u64::from(u32::MAX) {
                    return Err(format!("{what} out of range in `{spec}`"));
                }
                Some(n)
            }
        };
        Ok(site.fault(arg))
    }

    /// The site this fault arms and its argument, `None` only for a
    /// seeded text corruption.
    fn parts(self) -> (Site, Option<u64>) {
        match self {
            Fault::StackBusy { windows } => (Site::StackBusy, Some(windows.into())),
            Fault::ModuleLoad { count } => (Site::ModuleLoad, Some(count.into())),
            Fault::CorruptText { addr } => (Site::CorruptText, addr),
            Fault::StepJitter { max_steps } => (Site::StepJitter, Some(max_steps)),
            Fault::ProbeFail { count } => (Site::ProbeFail, Some(count.into())),
            Fault::BarrierStall { count } => (Site::BarrierStall, Some(count.into())),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (site, arg) = self.parts();
        f.write_str(site.name())?;
        match (site.arg(), arg) {
            (_, None) => Ok(()),
            (SiteArg::Addr, Some(addr)) => write!(f, ":{addr:#x}"),
            (_, Some(n)) => write!(f, ":{n}"),
        }
    }
}

/// A record of one fault that actually fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// The site that fired, in [`Fault::parse`] spelling.
    pub site: &'static str,
    /// Site-specific detail: the busy function, the failed module or
    /// probe, the flipped address, the jittered budget or the stalled
    /// vCPU.
    pub detail: String,
}

/// The armed fault state of one [`crate::Kernel`].
///
/// A fresh plan is inert: every consultation answers "no fault" with
/// one compare on the hot path. Arming accumulates;
/// [`FaultPlan::disarm`] clears everything armed but keeps the fired
/// log.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: FuzzRng,
    /// One armed value per site, indexed by [`Site`]: the firings left
    /// at a count, the bound at a maximum (a text corruption arms
    /// nothing).
    armed: [u64; SITES.len()],
    fired: Vec<FiredFault>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new(0x9e37_79b9_7f4a_7c15)
    }
}

impl FaultPlan {
    /// An inert plan whose seeded generator starts from `seed`
    /// ([`FuzzRng::new`]: seed 0 replays the default plan's schedule).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: FuzzRng::new(seed),
            armed: [0; SITES.len()],
            fired: Vec::new(),
        }
    }

    /// Re-seeds the plan's generator (chaos schedules do this so every
    /// schedule replays from its own seed regardless of arming order).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = FuzzRng::new(seed);
    }

    /// True when nothing is armed.
    pub fn is_inert(&self) -> bool {
        self.armed.iter().all(|&n| n == 0)
    }

    /// Clears everything armed; the fired log survives.
    pub fn disarm(&mut self) {
        self.armed = [0; SITES.len()];
    }

    /// Every fault that fired so far, in firing order.
    pub fn fired(&self) -> &[FiredFault] {
        &self.fired
    }

    /// What is armed at `site`: the firings left at a count, the bound
    /// at a maximum.
    pub(crate) fn armed(&self, site: Site) -> u64 {
        self.armed[site as usize]
    }

    /// Arms `fault` as its row says: a count adds to the firings left,
    /// saturating, and a maximum keeps the larger bound. A text
    /// corruption arms nothing here; `Kernel::arm_fault` flips its byte.
    pub(crate) fn arm(&mut self, fault: Fault) {
        let (site, arg) = fault.parts();
        let (slot, n) = (&mut self.armed[site as usize], arg.unwrap_or(0));
        match site.arg() {
            SiteArg::Count(_) => *slot = slot.saturating_add(n),
            SiteArg::Max(_) => *slot = (*slot).max(n),
            SiteArg::Addr => {}
        }
    }

    /// Fires a counted site. When `site` has a firing left, burns it,
    /// logs a [`FiredFault`] with the detail `detail` renders (which may
    /// draw from the plan's seeded generator) and returns true. An
    /// unarmed site costs one compare and draws nothing.
    pub fn fire(&mut self, site: Site, detail: impl FnOnce(&mut FuzzRng) -> String) -> bool {
        let left = &mut self.armed[site as usize];
        if *left == 0 {
            return false;
        }
        debug_assert!(matches!(site.arg(), SiteArg::Count(_)));
        *left -= 1;
        let detail = detail(&mut self.rng);
        self.record(site, detail);
        true
    }

    /// Consulted by `Kernel::run`. Returns the (possibly perturbed)
    /// step budget; inert plans return `budget` unchanged.
    pub fn jitter_budget(&mut self, budget: u64) -> u64 {
        let max = self.armed(Site::StepJitter);
        if max == 0 || budget == 0 {
            return budget;
        }
        // The span saturates and the sum is taken in `i128`, so no armed
        // maximum and no budget can overflow.
        let span = max.saturating_mul(2).saturating_add(1);
        let offset = i128::from(self.rng.below(span)) - i128::from(max);
        let jittered = (i128::from(budget) + offset).clamp(1, i128::from(u64::MAX)) as u64;
        self.record(Site::StepJitter, format!("{budget}->{jittered}"));
        jittered
    }

    /// Picks the text byte a seeded [`Fault::CorruptText`] flips:
    /// a seeded choice among the bytes of `exec_ranges`.
    pub(crate) fn pick_text_byte(&mut self, exec_ranges: &[(u64, u64)]) -> Option<u64> {
        let total: u64 = exec_ranges.iter().map(|(_, len)| len).sum();
        if total == 0 {
            return None;
        }
        let mut at = self.rng.below(total);
        for (start, len) in exec_ranges {
            if at < *len {
                return Some(start + at);
            }
            at -= len;
        }
        None
    }

    /// Logs one firing of `site`.
    pub(crate) fn record(&mut self, site: Site, detail: String) {
        self.fired.push(FiredFault {
            site: site.name(),
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use ksplice_lang::{Options, SourceTree};

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
        assert!(Fault::parse("stack-busy:4294967296").is_err());
        assert!(Fault::parse("step-jitter:4294967296").is_err());
        assert!(Fault::parse("quantum-bitflip:1").is_err());
    }

    #[test]
    fn every_site_round_trips_and_each_counted_site_fires_its_armed_count() {
        // Each row: a spec, and the detail its consumer logs at each
        // firing, one per armed count. `barrier-stall` draws its vCPU
        // from the plan's generator (as `stop_machine` does at 4 vCPUs),
        // so its details pin the seed-7 draws.
        let rows: [(&str, &[&str]); 7] = [
            ("stack-busy:2", &["target_fn", "target_fn"]),
            ("module-load:1", &["m1"]),
            ("corrupt-text", &[]),
            ("corrupt-text:0xf0001000", &[]),
            ("step-jitter:500", &[]),
            ("probe-fail:2", &["canary:sys_getuid", "exploit"]),
            ("barrier-stall:2", &["cpu2", "cpu2"]),
        ];
        for (site, name, _) in SITES {
            assert_eq!(SITES[site as usize].0, site, "rows are in `Site` order");
            assert!(rows.iter().any(|r| r.0.split(':').next() == Some(name)));
        }
        for (spec, details) in rows {
            let fault = Fault::parse(spec).unwrap();
            assert_eq!(fault.to_string(), spec);
            let (site, _) = fault.parts();
            if !matches!(site.arg(), SiteArg::Count(_)) {
                continue;
            }
            let mut plan = FaultPlan::new(7);
            plan.arm(fault);
            assert!(!plan.is_inert(), "{spec}");
            let mut fire = |detail: &str| {
                plan.fire(site, |rng| match site {
                    Site::BarrierStall => format!("cpu{}", rng.below(4)),
                    _ => detail.to_string(),
                })
            };
            for detail in details {
                assert!(fire(detail), "{spec}: {detail}");
            }
            assert!(!fire("spent"), "{spec} fired past its count");
            let logged: Vec<(&str, &str)> = plan
                .fired()
                .iter()
                .map(|f| (f.site, f.detail.as_str()))
                .collect();
            let expected: Vec<(&str, &str)> = details.iter().map(|&d| (site.name(), d)).collect();
            assert_eq!(logged, expected, "{spec}");
            assert!(plan.is_inert(), "{spec}");
        }
    }

    #[test]
    fn repeated_counts_saturate_instead_of_wrapping() {
        let mut tree = SourceTree::new();
        tree.insert("init.kc", "int f() { return 0; }");
        let mut k = Kernel::boot(&tree, &Options::distro()).unwrap();
        for site in ["stack-busy", "module-load", "probe-fail", "barrier-stall"] {
            // `u32::MAX` twice, then `u32::MAX` and 1: a wrapping sum
            // would leave too few firings, or none.
            for second in ["4294967295", "1"] {
                k.faults.disarm();
                for count in ["4294967295", second] {
                    let fault = Fault::parse(&format!("{site}:{count}")).unwrap();
                    k.arm_fault(fault).unwrap();
                }
                assert!(!k.faults.is_inert(), "{site}:{second}");
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut a = FaultPlan::new(42);
        a.arm(Fault::StepJitter { max_steps: 100 });
        let mut b = FaultPlan::new(42);
        b.arm(Fault::StepJitter { max_steps: 100 });
        for _ in 0..50 {
            let x = a.jitter_budget(1_000);
            assert_eq!(x, b.jitter_budget(1_000));
            assert!((900..=1_100).contains(&x));
        }
        // A different seed produces a different schedule.
        let mut c = FaultPlan::new(43);
        c.arm(Fault::StepJitter { max_steps: 100 });
        let a_seq: Vec<u64> = (0..8).map(|_| a.jitter_budget(1_000)).collect();
        let c_seq: Vec<u64> = (0..8).map(|_| c.jitter_budget(1_000)).collect();
        assert_ne!(a_seq, c_seq);
    }

    #[test]
    fn jitter_never_overflows() {
        let mut plan = FaultPlan::new(42);
        plan.arm(Fault::StepJitter {
            max_steps: u64::MAX,
        });
        for budget in [1, 2_000, u64::MAX] {
            for _ in 0..16 {
                assert!(plan.jitter_budget(budget) >= 1, "budget {budget}");
            }
        }
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

    #[test]
    fn seed_zero_replays_the_default_plan() {
        let ranges = [(0xf000_0000u64, 0x1_0000u64)];
        let pick = |mut plan: FaultPlan| plan.pick_text_byte(&ranges).unwrap();
        let zero = pick(FaultPlan::new(0));
        assert_ne!(zero, pick(FaultPlan::new(1)));
        assert_eq!(zero, pick(FaultPlan::default()));
        let mut reseeded = FaultPlan::new(5);
        reseeded.reseed(0);
        assert_eq!(zero, pick(reseeded));
    }
}
