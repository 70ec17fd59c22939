//! The five workloads and the loop that drives each one.
//!
//! Every workload is a closed loop: the next update, mutant, rollout or
//! cell starts only when the previous one on that worker finished. The
//! `cve-*` workloads run on one thread; `fuzz`, `fleet` and `rebase`
//! use [`JOBS`] workers. A run spends its budget in the timed loop; the
//! traced variant spends the first half untraced and the second half
//! traced, so the difference between the halves is the tracing
//! overhead, then replays the workload's own inputs through the finer
//! public functions (the probe).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ksplice_trace::Tracer;

use crate::clock;
use crate::probe;
use crate::spans::SpanLog;

pub mod cve;
pub mod fleet;
pub mod fuzz;
pub mod rebase;

/// Worker threads of the `fuzz`, `fleet` and `rebase` workloads. Fixed,
/// not read from the machine, so every run does the same work in the
/// same shape.
pub const JOBS: usize = 2;

/// Setups per run; `setup_s` is their median (process CPU time).
pub const SETUP_REPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Each update compiled from an empty build cache.
    CveCold,
    /// Every unit already compiled; differ, package, apply, watch, undo.
    CveWarm,
    /// Differential fuzzing: three boots and a call sweep per mutant.
    Fuzz,
    /// Staged rollouts over loaded 2-vCPU nodes and a faulty transport.
    Fleet,
    /// Drift generation, fuzzy porting and verification per cell.
    Rebase,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::CveCold,
        Workload::CveWarm,
        Workload::Fuzz,
        Workload::Fleet,
        Workload::Rebase,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CveCold => "cve-cold",
            Workload::CveWarm => "cve-warm",
            Workload::Fuzz => "fuzz",
            Workload::Fleet => "fleet",
            Workload::Rebase => "rebase",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds the timed loop measures.
    pub seconds: f64,
    /// Tiny fixed sizes instead of a time budget.
    pub smoke: bool,
}

/// How long a timed loop keeps admitting items.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this instant.
    Until(Instant),
    /// This many items.
    Items(usize),
}

impl Budget {
    /// Whether the item with zero-based position `n` may start.
    pub fn admits(&self, n: usize) -> bool {
        match *self {
            Budget::Until(t) => Instant::now() < t,
            Budget::Items(max) => n < max,
        }
    }
}

/// Mixes a seed with a stream index (splitmix64), so every pass,
/// rollout or drift matrix of a run draws unrelated inputs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one timed loop measured.
#[derive(Default)]
pub struct Measured {
    /// Each item's completion ([`clock::wall_s`]) and latency in CPU ms
    /// as measured (see [`clock`]).
    pub latencies: Vec<(f64, f64)>,
    /// Units of work completed (updates, mutants, committed nodes, rows).
    pub done: u64,
    /// Process CPU seconds the completed units took, calibration
    /// excluded.
    pub busy_s: f64,
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed a correctness check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Workload-specific counts for the per-layer metrics.
    pub counts: BTreeMap<&'static str, f64>,
    /// Counters the program emitted on the tracers the loop passed in
    /// (empty when untraced).
    pub tracer: Tracer,
    /// Calibration samples taken between this loop's items.
    pub pacer: clock::Pacer,
}

impl Measured {
    /// A measurement whose program tracer records (traced) or not.
    pub fn new(traced: bool) -> Measured {
        Measured {
            tracer: if traced {
                Tracer::new()
            } else {
                Tracer::disabled()
            },
            ..Measured::default()
        }
    }

    /// A fresh per-item program tracer of the same kind.
    pub fn item_tracer(&self) -> Tracer {
        if self.tracer.is_enabled() {
            Tracer::new()
        } else {
            Tracer::disabled()
        }
    }

    /// Records a failed unit with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    /// Keeps a failure description without counting a failed unit.
    pub fn note(&mut self, why: String) {
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Adds to a workload-specific count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Folds a worker's measurement into this one (latencies, counts,
    /// failures, calibration and program counters; `busy_s` is the
    /// caller's).
    pub fn absorb(&mut self, other: Measured) {
        self.pacer.samples.extend(other.pacer.samples);
        self.latencies.extend(other.latencies);
        self.done += other.done;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.failures {
            self.note(why);
        }
        for (k, v) in other.counts {
            self.count(k, v);
        }
        self.tracer.absorb(&other.tracer);
    }

    /// Records an item's latency, CPU ms, completing now.
    pub fn latency(&mut self, ms: f64) {
        self.latencies.push((clock::wall_s(), ms));
    }

    /// The factor scaling this loop's CPU durations to the reference
    /// host speed.
    pub fn speed(&self) -> f64 {
        self.pacer.factor()
    }

    /// Completed units per CPU second at the reference speed.
    pub fn rate(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.done as f64 / (self.busy_s * self.speed())
        } else {
            0.0
        }
    }

    /// Item latencies at the reference speed, ms.
    pub fn scaled_latencies(&self) -> Vec<f64> {
        self.pacer.scale(&self.latencies)
    }
}

/// One workload's implementation.
pub trait Bench: Sized {
    /// Items one `--smoke` loop runs (the unit the workload's
    /// [`Budget::admits`] counts).
    const SMOKE_ITEMS: usize;

    /// Builds everything the timed loop needs. Runs [`SETUP_REPS`]
    /// times; the last state is kept.
    fn setup(s: &Settings) -> Result<Self, String>;

    /// Runs items until `budget` is spent, recording into `m` and, when
    /// `log` is enabled, spans around every call.
    fn run(&mut self, budget: Budget, log: &mut SpanLog, m: &mut Measured);

    /// Proves the loop ran the same program as the coarse public entry
    /// point (pack bytes, fuzz digest, rebase statuses), returning the
    /// probe inputs drawn from the loop's own work and the machine the
    /// workload's kernels run on. Layers only this workload has are
    /// timed here, into `report`.
    fn replay(
        &mut self,
        log: &mut SpanLog,
        report: &mut probe::Report,
    ) -> Result<(Vec<probe::Input>, probe::Machine), String>;
}

/// Everything one workload run produced.
pub struct Outcome {
    /// Each setup's duration, CPU s as measured.
    pub setup_s: Vec<f64>,
    /// A calibration sample taken before each setup.
    pub setup_calibration: Vec<f64>,
    /// The untraced timed loop.
    pub untraced: Measured,
    /// The traced half and the probe (traced runs only).
    pub traced: Option<(Measured, probe::Report)>,
    /// Spans of the traced half and the probe.
    pub spans: SpanLog,
}

/// Runs one workload: setups, the timed loop, and in a traced run the
/// traced half plus the replay and probe.
pub fn execute(w: Workload, s: &Settings, traced: bool) -> Result<Outcome, String> {
    match w {
        Workload::CveCold => drive::<cve::CveBench<false>>(s, traced),
        Workload::CveWarm => drive::<cve::CveBench<true>>(s, traced),
        Workload::Fuzz => drive::<fuzz::FuzzBench>(s, traced),
        Workload::Fleet => drive::<fleet::FleetBench>(s, traced),
        Workload::Rebase => drive::<rebase::RebaseBench>(s, traced),
    }
}

fn drive<B: Bench>(s: &Settings, traced: bool) -> Result<Outcome, String> {
    let (mut setup_s, mut setup_calibration) = (Vec::new(), Vec::new());
    let mut bench: Option<B> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous state first so peak memory holds one setup.
        drop(bench.take());
        setup_calibration.push(clock::calibrate());
        let t = clock::process_s();
        bench = Some(B::setup(s)?);
        setup_s.push(clock::process_s() - t);
    }
    let mut bench = bench.expect("at least one setup");
    let origin = Instant::now();
    let budget = |fraction: f64| {
        if s.smoke {
            Budget::Items(B::SMOKE_ITEMS)
        } else {
            Budget::Until(Instant::now() + Duration::from_secs_f64(s.seconds * fraction))
        }
    };
    if !traced {
        let mut m = Measured::new(false);
        bench.run(budget(1.0), &mut SpanLog::disabled(), &mut m);
        return Ok(Outcome {
            setup_s,
            setup_calibration,
            untraced: m,
            traced: None,
            spans: SpanLog::disabled(),
        });
    }
    let mut untraced = Measured::new(false);
    bench.run(budget(0.5), &mut SpanLog::disabled(), &mut untraced);
    let mut log = SpanLog::new(origin, 0);
    let mut m = Measured::new(true);
    bench.run(budget(0.5), &mut log, &mut m);
    let mut report = probe::Report::default();
    let (inputs, machine) = bench.replay(&mut log, &mut report)?;
    probe::run(&inputs, &machine, &mut log, &mut report)?;
    Ok(Outcome {
        setup_s,
        setup_calibration,
        untraced,
        traced: Some((m, report)),
        spans: log,
    })
}
