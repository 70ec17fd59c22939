//! `fuzz`: the differential oracle, one mutant at a time.
//!
//! Each mutant is generated exactly as `run_campaign` generates it (same
//! per-index generator, unit choice and mutation sequence) and run with
//! `FuzzContext::run_case`, which boots three kernels (reference,
//! calibration, subject), hot-patches the subject and compares them
//! over the call sweep. Driving the cases from here lets the benchmark
//! time each mutant; the replay proves the loop is the campaign by
//! reproducing `CampaignReport.digest` over the same mutants.
//!
//! A divergence is the oracle's finding about the hot-patch pipeline,
//! not a failure of the campaign: on seeds outside the repository's
//! pinned campaign about one mutant in 80,000 diverges. It is printed as
//! a finding and counted in `fuzz.diverged_ratio`; only a broken
//! harness (`infra`, a panic) fails the run.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ksplice_core::{create_update_cached, preflight, BuildCache, CreateOptions, Ksplice, Tracer};
use ksplice_eval::{diff_trees, run_campaign, FuzzConfig, FuzzContext, Workload};
use ksplice_kernel::Kernel;
use ksplice_lang::{
    apply_mutation, build_tree_image_cached, generate_mutant, parse_unit, pretty_unit, FuzzRng,
    Mutation, Options, Unit,
};

use super::{mix, Bench, Budget, Measured, Settings, JOBS};
use crate::clock::{self, ThreadTimer};
use crate::probe;
use crate::spans::SpanLog;

/// Mutants of the smoke loop.
const SMOKE_MUTANTS: usize = 40;

/// Mutants the replay reruns through `run_campaign`.
const REPLAY_MUTANTS: usize = 64;

/// Mutants warmed up in setup (they join the record, untimed).
const WARMUP_MUTANTS: usize = JOBS;

/// One mutant's record, the fields `CampaignReport.digest` hashes.
#[derive(Debug, Clone)]
struct Record {
    index: usize,
    unit: String,
    mutations: Vec<Mutation>,
    class: String,
    detail: String,
}

impl Record {
    /// Harness failures: the oracle itself broke.
    fn failed(&self) -> bool {
        self.class == "infra" || self.class == "panicked"
    }

    /// The oracle's finding that a hot-patched kernel behaved unlike a
    /// cold boot of the same source.
    fn diverged(&self) -> bool {
        self.class.starts_with("diverged:")
    }

    /// Whether the update applied, behaved like a cold boot of the
    /// mutant and reversed cleanly — the probe's apply side needs that.
    fn survived(&self) -> bool {
        self.class == "survived"
    }
}

/// The campaign digest: FNV-1a over the records in index order.
fn digest(records: &[Record]) -> u64 {
    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        h = fnv1a(h, &r.index.to_le_bytes());
        h = fnv1a(h, r.unit.as_bytes());
        h = fnv1a(h, r.class.as_bytes());
        h = fnv1a(h, r.detail.as_bytes());
        for m in &r.mutations {
            h = fnv1a(h, m.to_string().as_bytes());
        }
    }
    h
}

/// The `fuzz` workload.
pub struct FuzzBench {
    cfg: FuzzConfig,
    cx: FuzzContext,
    units: Vec<(String, Unit)>,
    /// The records of mutants `0..REPLAY_MUTANTS`, all the replay reads.
    /// Later records are dropped, so the benchmark's own memory does not
    /// grow with the number of mutants a run gets through.
    records: Vec<Record>,
    /// Index of the next mutant to run.
    next: usize,
}

impl FuzzBench {
    /// Generates mutant `index` as the campaign does and runs it.
    fn mutant(&self, index: usize, tracer: &mut Tracer) -> Record {
        let mut rng =
            FuzzRng::new(self.cfg.seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (unit, base) = &self.units[rng.below(self.units.len() as u64) as usize];
        let record = |mutations, class: String, detail| Record {
            index,
            unit: unit.clone(),
            mutations,
            class,
            detail,
        };
        let Some((_, mutations)) = generate_mutant(base, &mut rng, self.cfg.max_mutations) else {
            return record(Vec::new(), "no-mutation".to_string(), String::new());
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.cx.run_case(unit, &mutations, tracer)
        }));
        match result {
            Ok(Ok(outcome)) => {
                let detail = outcome.detail().to_string();
                record(mutations, outcome.class_key(), detail)
            }
            Ok(Err(e)) => record(mutations, "infra".to_string(), e),
            Err(_) => record(mutations, "panicked".to_string(), String::new()),
        }
    }

    fn run_worker(
        &self,
        budget: Budget,
        next: &AtomicUsize,
        mut log: SpanLog,
    ) -> (Measured, Vec<Record>, SpanLog) {
        let first = self.next;
        let mut m = Measured::new(log.is_enabled());
        let mut records = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if !budget.admits(i - first) {
                break;
            }
            log.set_item(i as u64);
            let mut tracer = m.item_tracer();
            let t0 = ThreadTimer::start();
            let r = log.time("eval.fuzz_case", || self.mutant(i, &mut tracer));
            m.latency(t0.ms());
            m.attempted += 1;
            m.done += 1;
            m.count("fuzz.mutants", 1.0);
            if r.survived() {
                m.count("fuzz.survived", 1.0);
            }
            if r.failed() {
                m.fail(format!(
                    "mutant #{i} ({}): {} {}",
                    r.unit, r.class, r.detail
                ));
            }
            if r.diverged() {
                m.count("fuzz.diverged", 1.0);
                eprintln!(
                    "benchmark: fuzz: finding: campaign seed {:#x} mutant #{i} ({}): {} {}",
                    self.cfg.seed, r.unit, r.class, r.detail
                );
            }
            m.tracer.absorb(&tracer);
            if i < REPLAY_MUTANTS {
                records.push(r);
            }
            m.pacer.tick();
        }
        (m, records, log)
    }
}

impl Bench for FuzzBench {
    const SMOKE_ITEMS: usize = SMOKE_MUTANTS;

    fn setup(s: &Settings) -> Result<Self, String> {
        let cfg = FuzzConfig {
            seed: mix(s.seed, 0xf022),
            mutants: 0,
            jobs: JOBS,
            max_mutations: 3,
            workload: Workload::Syscalls,
            cpus: 1,
            ..FuzzConfig::default()
        };
        let cx = FuzzContext::new(&cfg)?;
        let mut units = Vec::new();
        for (path, src) in cx.canon.iter() {
            if path.ends_with(".kc") {
                units.push((
                    path.to_string(),
                    parse_unit(path, src).map_err(|e| e.to_string())?,
                ));
            }
        }
        let mut bench = FuzzBench {
            cfg,
            cx,
            units,
            records: Vec::new(),
            next: 0,
        };
        // The first mutants fill the context's build cache with the
        // pre-post build of the canonical tree.
        for i in 0..WARMUP_MUTANTS {
            let r = bench.mutant(i, &mut Tracer::disabled());
            bench.records.push(r);
        }
        bench.next = WARMUP_MUTANTS;
        Ok(bench)
    }

    fn run(&mut self, budget: Budget, log: &mut SpanLog, m: &mut Measured) {
        let next = AtomicUsize::new(self.next);
        let cpu = clock::process_s();
        let worker_logs: Vec<SpanLog> = (0..JOBS).map(|t| log.fork(t as u32 + 1)).collect();
        let out = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for wlog in worker_logs {
                let (this, next, out) = (&*self, &next, &out);
                scope.spawn(move || {
                    let res = this.run_worker(budget, next, wlog);
                    out.lock().expect("worker result lock").push(res);
                });
            }
        });
        m.busy_s += clock::process_s() - cpu;
        for (wm, records, wlog) in out.into_inner().expect("worker result lock") {
            // Admission is by time or count, so the mutants run form
            // one contiguous range of indices.
            self.next += wm.attempted as usize;
            m.busy_s -= wm.pacer.spent_s();
            m.absorb(wm);
            self.records.extend(records);
            log.absorb(wlog);
        }
        self.records.sort_by_key(|r| r.index);
    }

    fn replay(
        &mut self,
        log: &mut SpanLog,
        _report: &mut probe::Report,
    ) -> Result<(Vec<probe::Input>, probe::Machine), String> {
        let n = self.records.len().min(REPLAY_MUTANTS);
        let cfg = FuzzConfig {
            mutants: n,
            ..self.cfg.clone()
        };
        let report = log.time("eval.run_campaign", || {
            run_campaign(&cfg, &mut Tracer::disabled())
        })?;
        let ours = digest(&self.records[..n]);
        if report.digest != ours {
            return Err(format!(
                "fuzz replay: run_campaign digest {:#018x} over {n} mutants, the loop's {ours:#018x}",
                report.digest
            ));
        }
        // The oracle applies with `Ksplice::apply`; the probe also runs
        // the update manager, whose `preflight` refuses some packs the
        // raw apply takes (a mutant that adds a function, for one). Those
        // survivors are findings, not probe inputs.
        let canon = &self.cx.canon;
        let cache = BuildCache::new();
        let (image, _) = build_tree_image_cached(canon, &Options::distro(), &cache)
            .map_err(|e| format!("fuzz replay: distro build: {e}"))?;
        let kernel = Kernel::boot_image(&image).map_err(|e| format!("fuzz replay: boot: {e}"))?;
        let mut inputs = Vec::new();
        for r in self.records.iter().filter(|r| r.survived()) {
            if inputs.len() == probe::MAX_INPUTS {
                break;
            }
            let (path, base) = self
                .units
                .iter()
                .find(|(p, _)| *p == r.unit)
                .ok_or_else(|| format!("fuzz replay: unknown unit {}", r.unit))?;
            let mut mutant = base.clone();
            for mutation in &r.mutations {
                apply_mutation(&mut mutant, mutation)
                    .map_err(|e| format!("{path}: {mutation}: {e}"))?;
            }
            let mut post = canon.clone();
            post.set(path, pretty_unit(&mutant));
            let input = probe::Input {
                id: "fuzz-mutant".to_string(),
                pre: canon.clone(),
                patch: diff_trees(canon, &post),
                opts: CreateOptions::default(),
                expect: None,
            };
            let (pack, _) =
                create_update_cached(&input.id, canon, &input.patch, &input.opts, &cache)
                    .map_err(|e| format!("fuzz replay: mutant #{}: create: {e}", r.index))?;
            match preflight(&Ksplice::new(), &kernel, &pack, &mut Tracer::disabled()) {
                Ok(()) => inputs.push(input),
                Err(e) => eprintln!(
                    "benchmark: fuzz: finding: campaign seed {:#x} mutant #{} ({}) survived the \
                     oracle, but preflight refuses its pack: {e}",
                    self.cfg.seed, r.index, r.unit
                ),
            }
        }
        Ok((inputs, probe::Machine::uniprocessor()))
    }
}
