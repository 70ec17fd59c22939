//! The PC-sampling profiler wired into the VM step loop.
//!
//! Every `interval` executed instructions the kernel records the running
//! thread's program counter plus its frame-pointer call stack. Samples
//! are symbolized through kallsyms and the region table into
//! `(unit, function, offset)`, and every frame is classified by
//! **residency** — original kernel text, a written trampoline, the
//! Ksplice patch arena (primary/helper module text), or native helpers —
//! so a pre/post-apply profile shows the hot path physically migrating
//! out of the replaced function and into the patched code.
//!
//! The same samples feed the quiescence-risk report: a function's
//! on-stack frequency under a workload predicts how often a
//! `stop_machine` safety check (§5.2) will find it busy and abort.
//!
//! Sampling is deterministic: the VM is, so the same seed + workload +
//! interval produce byte-identical sample streams.

use crate::kernel::Kernel;
use crate::native::NATIVE_BASE;

/// One stack sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Step-clock reading when the sample fired.
    pub steps: u64,
    /// The thread that was running.
    pub tid: u64,
    /// The vCPU the thread is homed on (0 on a uniprocessor kernel).
    pub cpu: u32,
    /// Leaf-first stack: `stack[0]` is the instruction pointer, the rest
    /// are frame-pointer-chain return addresses.
    pub stack: Vec<u64>,
}

/// Where a sampled address physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Residency {
    /// Boot-image kernel text (or an ordinary module).
    Original,
    /// Inside the jump instruction Ksplice wrote over a patched
    /// function's entry.
    Trampoline,
    /// Ksplice primary/helper module text — the replacement code.
    PatchArena,
    /// The native-helper dispatch range.
    Native,
    /// Unmapped or unclassifiable.
    Unknown,
}

impl Residency {
    /// Short human label (`orig`, `tramp`, `arena`, …).
    pub fn label(self) -> &'static str {
        match self {
            Residency::Original => "orig",
            Residency::Trampoline => "tramp",
            Residency::PatchArena => "arena",
            Residency::Native => "native",
            Residency::Unknown => "?",
        }
    }
}

/// A symbolized stack frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSym {
    /// The raw address.
    pub addr: u64,
    /// Defining compilation unit (or module name), `?` when unknown.
    pub unit: String,
    /// Function name, `?` when no symbol covers the address.
    pub function: String,
    /// Byte offset from the function start.
    pub offset: u64,
    /// Physical residency of the address.
    pub residency: Residency,
}

/// One row of the hot-function table: samples aggregated by
/// `(function, unit, residency)`, so a function that migrated into the
/// patch arena shows up as two rows whose counts trade places across a
/// pre/post profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotFunc {
    /// Function name.
    pub function: String,
    /// Defining unit or module.
    pub unit: String,
    /// Residency of the sampled addresses.
    pub residency: Residency,
    /// Samples whose instruction pointer was inside the function.
    pub self_samples: u64,
    /// Samples with the function anywhere on the stack (≥ self).
    pub on_stack_samples: u64,
}

/// One row of the quiescence-risk report: how often a candidate
/// function was on some stack when a sample fired — the §5.2 abort
/// probability, measured instead of guessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuiesceRisk {
    /// Candidate function name.
    pub function: String,
    /// Samples that found it on the stack.
    pub on_stack: u64,
    /// Total samples taken.
    pub samples: u64,
}

impl QuiesceRisk {
    /// On-stack frequency in [0, 1].
    pub fn frequency(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.on_stack as f64 / self.samples as f64
        }
    }
}

/// The sampler state hung off the kernel. Inert (and costing one branch
/// per step) unless [`Kernel::start_sampling`] armed it.
#[derive(Debug, Clone)]
pub struct Profiler {
    interval: u64,
    countdown: u64,
    max_samples: usize,
    samples: Vec<Sample>,
    dropped: u64,
}

impl Profiler {
    /// A sampler firing every `interval` steps, keeping at most
    /// `max_samples` samples (further fires count as dropped).
    pub fn new(interval: u64, max_samples: usize) -> Profiler {
        let interval = interval.max(1);
        Profiler {
            interval,
            countdown: interval,
            max_samples: max_samples.max(1),
            samples: Vec::new(),
            dropped: 0,
        }
    }

    /// Advances one step; true when a sample should fire.
    pub(crate) fn tick(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.interval;
            true
        } else {
            false
        }
    }

    pub(crate) fn push(&mut self, sample: Sample) {
        if self.samples.len() < self.max_samples {
            self.samples.push(sample);
        } else {
            self.dropped += 1;
        }
    }
}

impl Kernel {
    /// Arms the PC sampler: every `interval` executed instructions the
    /// running thread's stack is recorded, up to `max_samples` samples.
    /// Replaces any previous sampler (and discards its samples).
    pub fn start_sampling(&mut self, interval: u64, max_samples: usize) {
        self.profiler = Some(Profiler::new(interval, max_samples));
    }

    /// Disarms the sampler and returns the collected samples and the
    /// number of fires lost to the `max_samples` cap.
    pub fn stop_sampling(&mut self) -> (Vec<Sample>, u64) {
        self.profiler
            .take()
            .map(|p| (p.samples, p.dropped))
            .unwrap_or_default()
    }

    /// Records one sample for `tid` (called from the step loop).
    pub(crate) fn record_sample(&mut self, tid: u64, steps: u64) {
        let Some(t) = self.thread(tid) else { return };
        let cpu = t.cpu;
        let stack = self.thread_backtrace(t);
        if let Some(p) = self.profiler.as_mut() {
            p.push(Sample {
                steps,
                tid,
                cpu,
                stack,
            });
        }
    }

    /// Classifies where an address physically lives. `trampolines` is
    /// the caller's list of written trampoline ranges `(addr, len)` —
    /// the kernel itself does not know which entry points Ksplice
    /// overwrote.
    pub fn residency_of(&self, addr: u64, trampolines: &[(u64, u64)]) -> Residency {
        if addr >= NATIVE_BASE {
            return Residency::Native;
        }
        if trampolines
            .iter()
            .any(|&(start, len)| addr >= start && addr < start + len)
        {
            return Residency::Trampoline;
        }
        match self.mem.region_at(addr, 1) {
            Some(r) => {
                let module = r.name.split(':').next().unwrap_or("");
                if module.starts_with("ksplice")
                    && (module.contains("_primary_") || module.contains("_helper_"))
                {
                    Residency::PatchArena
                } else {
                    Residency::Original
                }
            }
            None => Residency::Unknown,
        }
    }

    /// Symbolizes one address into `(unit, function, offset)` plus its
    /// residency.
    pub fn symbolize(&self, addr: u64, trampolines: &[(u64, u64)]) -> FrameSym {
        let residency = self.residency_of(addr, trampolines);
        match self.syms.lookup_addr(addr) {
            Some(s) if s.is_func => FrameSym {
                addr,
                unit: s.unit.clone(),
                function: s.name.clone(),
                offset: addr - s.addr,
                residency,
            },
            _ => FrameSym {
                addr,
                unit: "?".to_string(),
                function: if residency == Residency::Native {
                    "<native>".to_string()
                } else {
                    "?".to_string()
                },
                offset: 0,
                residency,
            },
        }
    }
}

/// Aggregates samples into the hot-function table, sorted by self
/// samples (then on-stack samples, then name) descending.
pub fn hot_functions(
    kernel: &Kernel,
    samples: &[Sample],
    trampolines: &[(u64, u64)],
) -> Vec<HotFunc> {
    use std::collections::BTreeMap;
    // Key: (function, unit, residency) → (self, on_stack).
    let mut table: BTreeMap<(String, String, Residency), (u64, u64)> = BTreeMap::new();
    for sample in samples {
        let mut seen_in_sample: Vec<(String, String, Residency)> = Vec::new();
        for (depth, &addr) in sample.stack.iter().enumerate() {
            let f = kernel.symbolize(addr, trampolines);
            let key = (f.function, f.unit, f.residency);
            let entry = table.entry(key.clone()).or_insert((0, 0));
            if depth == 0 {
                entry.0 += 1;
            }
            if !seen_in_sample.contains(&key) {
                entry.1 += 1;
                seen_in_sample.push(key);
            }
        }
    }
    let mut out: Vec<HotFunc> = table
        .into_iter()
        .map(|((function, unit, residency), (s, o))| HotFunc {
            function,
            unit,
            residency,
            self_samples: s,
            on_stack_samples: o,
        })
        .collect();
    out.sort_by(|a, b| {
        b.self_samples
            .cmp(&a.self_samples)
            .then(b.on_stack_samples.cmp(&a.on_stack_samples))
            .then(a.function.cmp(&b.function))
            .then(a.residency.cmp(&b.residency))
    });
    out
}

/// Renders samples as collapsed stacks (`root;...;leaf count` lines,
/// one per distinct stack) — the flamegraph input format. Frames are
/// annotated `name` or `name@arena`/`name@tramp` when not in original
/// text, so a flamegraph visually separates migrated code.
pub fn collapsed_stacks(
    kernel: &Kernel,
    samples: &[Sample],
    trampolines: &[(u64, u64)],
) -> String {
    use std::collections::BTreeMap;
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for sample in samples {
        let frames: Vec<String> = sample
            .stack
            .iter()
            .rev() // collapsed format is root-first
            .map(|&addr| {
                let f = kernel.symbolize(addr, trampolines);
                match f.residency {
                    Residency::Original | Residency::Native => f.function,
                    other => format!("{}@{}", f.function, other.label()),
                }
            })
            .collect();
        *stacks.entry(frames.join(";")).or_insert(0) += 1;
    }
    let mut out = String::new();
    for (stack, count) in stacks {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    out
}

/// The quiescence-risk report over candidate address ranges
/// `(function, start, len)` — typically the functions an update intends
/// to replace. A candidate is "on stack" for a sample when any frame
/// (instruction pointer or return address) lands inside its range,
/// which is exactly the §5.2 stop_machine abort condition. Sorted by
/// on-stack count descending (ties by name).
pub fn quiescence_risk(samples: &[Sample], targets: &[(String, u64, u64)]) -> Vec<QuiesceRisk> {
    let total = samples.len() as u64;
    let mut out: Vec<QuiesceRisk> = targets
        .iter()
        .map(|(name, start, len)| {
            let on_stack = samples
                .iter()
                .filter(|s| {
                    s.stack
                        .iter()
                        .any(|&a| a >= *start && a < *start + *len)
                })
                .count() as u64;
            QuiesceRisk {
                function: name.clone(),
                on_stack,
                samples: total,
            }
        })
        .collect();
    out.sort_by(|a, b| b.on_stack.cmp(&a.on_stack).then(a.function.cmp(&b.function)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksplice_lang::{Options, SourceTree};

    fn spin_tree() -> SourceTree {
        let mut tree = SourceTree::new();
        tree.insert(
            "spin.kc",
            r#"
            int leaf(int n) {
                int acc = 0;
                int i = 0;
                while (i < n) { acc = acc + i; i = i + 1; }
                return acc;
            }
            int middle(int n) { return leaf(n) + 1; }
            int spin_main(int rounds) {
                int i = 0;
                int acc = 0;
                while (i < rounds) { acc = acc + middle(40); i = i + 1; }
                return acc;
            }
        "#,
        );
        tree
    }

    #[test]
    fn sampling_is_deterministic_and_symbolizes() {
        let run = || {
            let mut k = Kernel::boot(&spin_tree(), &Options::distro()).unwrap();
            k.start_sampling(97, 10_000);
            k.call_function("spin_main", &[50]).unwrap();
            k.stop_sampling().0
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same workload, same samples");
        assert!(a.len() > 20, "got {} samples", a.len());
        let k = Kernel::boot(&spin_tree(), &Options::distro()).unwrap();
        let hot = hot_functions(&k, &a, &[]);
        assert!(!hot.is_empty());
        // The spin loop dominates: leaf or spin_main leads the table,
        // and everything here is original text.
        assert!(hot[0].self_samples >= hot.last().unwrap().self_samples);
        assert!(hot.iter().any(|h| h.function == "leaf"));
        let main_row = hot.iter().find(|h| h.function == "spin_main").unwrap();
        assert_eq!(main_row.residency, Residency::Original);
        // spin_main is on the stack for essentially every sample.
        assert!(main_row.on_stack_samples * 10 >= a.len() as u64 * 9);
    }

    #[test]
    fn sampler_respects_cap_and_interval() {
        let mut k = Kernel::boot(&spin_tree(), &Options::distro()).unwrap();
        k.start_sampling(10, 5);
        let start = k.steps;
        k.call_function("spin_main", &[50]).unwrap();
        let fired = (k.steps - start) / 10;
        let (samples, dropped) = k.stop_sampling();
        assert!(k.profiler.is_none());
        assert_eq!(samples.len(), 5);
        assert!(dropped > 0);
        assert_eq!(samples.len() as u64 + dropped, fired);
        // Sample timestamps advance with the step clock, one interval
        // apart.
        assert!(samples.windows(2).all(|w| w[1].steps - w[0].steps == 10));
    }

    #[test]
    fn quiescence_risk_ranks_by_on_stack_frequency() {
        let mut k = Kernel::boot(&spin_tree(), &Options::distro()).unwrap();
        k.start_sampling(31, 100_000);
        k.call_function("spin_main", &[80]).unwrap();
        let (samples, _) = k.stop_sampling();
        let range = |name: &str| {
            let s = k.syms.lookup_global(name).unwrap();
            (name.to_string(), s.addr, s.size.max(1))
        };
        let report = quiescence_risk(&samples, &[range("leaf"), range("spin_main")]);
        assert_eq!(report.len(), 2);
        // spin_main encloses every leaf call, so it is on-stack at least
        // as often as leaf, and both were observed.
        assert_eq!(report[0].function, "spin_main");
        assert!(report[0].on_stack >= report[1].on_stack);
        assert!(report[1].on_stack > 0);
        assert!(report[0].frequency() > 0.9);
    }

    #[test]
    fn residency_classifies_native_and_unknown() {
        let k = Kernel::boot(&spin_tree(), &Options::distro()).unwrap();
        assert_eq!(k.residency_of(NATIVE_BASE + 8, &[]), Residency::Native);
        assert_eq!(k.residency_of(0x10, &[]), Residency::Unknown);
        let leaf = k.syms.lookup_global("leaf").unwrap().addr;
        assert_eq!(k.residency_of(leaf, &[]), Residency::Original);
        assert_eq!(k.residency_of(leaf, &[(leaf, 5)]), Residency::Trampoline);
        let f = k.symbolize(leaf + 2, &[]);
        assert_eq!((f.function.as_str(), f.offset), ("leaf", 2));
    }

    #[test]
    fn collapsed_stacks_are_root_first() {
        let mut k = Kernel::boot(&spin_tree(), &Options::distro()).unwrap();
        k.start_sampling(53, 10_000);
        k.call_function("spin_main", &[30]).unwrap();
        let (samples, _) = k.stop_sampling();
        let folded = collapsed_stacks(&k, &samples, &[]);
        // `middle` is inlined in distro mode, so the dominant stack is
        // spin_main calling (inlined middle →) leaf, root-first.
        assert!(
            folded.lines().any(|l| l.starts_with("spin_main;leaf ")),
            "{folded}"
        );
        // Every line ends in a count.
        for line in folded.lines() {
            let (_, count) = line.rsplit_once(' ').unwrap();
            count.parse::<u64>().unwrap();
        }
    }
}
