//! `cve-cold` and `cve-warm`: the paper's path from patch text to a
//! committed update, over the 64-CVE corpus in seeded order.
//!
//! An update is `create_update_cached_traced` (pre and post builds,
//! diff, package), then `UpdateManager::apply_watched` (two 500-step
//! watch rounds under a `sys_getuid` canary), then `undo_any`, whose
//! text image must match the one before the apply. Its latency runs
//! from the patch text to the committed update; the undo is timed on
//! its own.
//!
//! * `cve-cold` gives every update an empty `BuildCache` and builds and
//!   boots its own distro kernel, so compiler work dominates.
//! * `cve-warm` warms one cache with an untimed pass in setup and boots
//!   one kernel per pass, so every unit is already compiled and the time
//!   goes to the differ, packaging, run-pre, stop_machine, the watch
//!   window and undo. A pass resets the kernel because one kernel's
//!   bump-allocated patch arena fills after 16,171 apply/undo cycles.

use std::collections::BTreeMap;

use ksplice_core::{
    create_update_cached, create_update_cached_traced, ApplyOptions, BuildCache, CreateOptions,
    HealthProbe, Tracer, UpdateManager, UpdatePack, WatchPolicy,
};
use ksplice_eval::{base_tree, corpus};
use ksplice_kernel::Kernel;
use ksplice_lang::{build_tree_image_cached, FuzzRng, Options, SourceTree};

use super::{mix, Bench, Budget, Measured, Settings};
use crate::clock::{self, ThreadTimer};
use crate::probe;
use crate::spans::SpanLog;

/// CVEs of the smoke corpus.
const SMOKE_CVES: usize = 8;

/// The quarantine window every update must survive.
fn watch() -> WatchPolicy {
    WatchPolicy {
        rounds: 2,
        steps_per_round: 500,
    }
}

/// One corpus entry as the shippable update: the full patch (with
/// custom code, and the data-semantics sign-off) when the entry needs
/// it.
pub struct Case {
    /// CVE id.
    pub id: &'static str,
    /// Unified diff against the base tree.
    pub patch: String,
    /// Create options.
    pub opts: CreateOptions,
}

/// The corpus as shippable updates, in corpus order.
pub fn cases(limit: Option<usize>) -> Vec<Case> {
    let mut all: Vec<Case> = corpus()
        .into_iter()
        .map(|c| Case {
            id: c.id,
            patch: if c.needs_custom_code() {
                c.full_patch_text()
            } else {
                c.patch_text()
            },
            opts: CreateOptions {
                accept_data_changes: c.needs_custom_code(),
                ..CreateOptions::default()
            },
        })
        .collect();
    if let Some(n) = limit {
        all.truncate(n);
    }
    all
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = FuzzRng::new(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// The `cve-cold` (`WARM = false`) and `cve-warm` (`WARM = true`)
/// workloads.
pub struct CveBench<const WARM: bool> {
    seed: u64,
    base: SourceTree,
    cases: Vec<Case>,
    /// `cve-warm`'s shared cache, warmed in setup.
    cache: BuildCache,
    /// `sys_getuid()` on the unpatched kernel: the canary's expectation.
    uid: u64,
    pass: u64,
    item: u64,
    /// The first pack the loop built for each CVE, serialized.
    packs: BTreeMap<&'static str, Vec<u8>>,
}

/// Where an update is applied: a kernel and manager the caller owns
/// (`cve-warm`'s pass kernel), or a fresh cold-built one.
type Target<'a> = Option<(&'a mut Kernel, &'a mut UpdateManager)>;

impl<const WARM: bool> CveBench<WARM> {
    /// One update on `target`; returns the update latency in ms and the
    /// pack. The undo, and the text check after it, follow the latency.
    fn cycle(
        &self,
        case: &Case,
        cache: &BuildCache,
        target: Target<'_>,
        log: &mut SpanLog,
        tracer: &mut Tracer,
    ) -> Result<(f64, UpdatePack), String> {
        let t0 = ThreadTimer::start();
        let (pack, _) = log
            .time("core.create_update", || {
                create_update_cached_traced(
                    case.id,
                    &self.base,
                    &case.patch,
                    &case.opts,
                    cache,
                    tracer,
                )
            })
            .map_err(|e| format!("{}: create: {e}", case.id))?;
        let mut own = None;
        let (kernel, mgr) = match target {
            Some(t) => t,
            None => {
                let (image, _) = log
                    .time("lang.build_distro", || {
                        build_tree_image_cached(&self.base, &Options::distro(), cache)
                    })
                    .map_err(|e| format!("{}: distro build: {e}", case.id))?;
                let kernel = log
                    .time("kernel.boot_image", || Kernel::boot_image(&image))
                    .map_err(|e| format!("{}: boot: {e}", case.id))?;
                let (k, m) = own.insert((kernel, UpdateManager::with_watch(watch())));
                (k, m)
            }
        };
        let before = kernel.mem.text_checksum();
        let mut probes = vec![HealthProbe::canary("sys_getuid", &[], self.uid)];
        let opts = ApplyOptions::default();
        log.time("manager.apply_watched", || {
            mgr.apply_watched(kernel, &pack, &mut probes, &opts, tracer)
        })
        .map_err(|e| format!("{}: apply_watched: {e}", case.id))?;
        let update_ms = t0.ms();
        log.time("manager.undo_any", || {
            mgr.undo_any(kernel, case.id, &opts, tracer)
        })
        .map_err(|e| format!("{}: undo_any: {e}", case.id))?;
        if kernel.mem.text_checksum() != before {
            return Err(format!("{}: text image differs after undo", case.id));
        }
        Ok((update_ms, pack))
    }

    fn warm_image(&self) -> Result<Kernel, String> {
        let (image, _) = build_tree_image_cached(&self.base, &Options::distro(), &self.cache)
            .map_err(|e| format!("distro build: {e}"))?;
        Kernel::boot_image(&image).map_err(|e| format!("boot: {e}"))
    }
}

impl<const WARM: bool> Bench for CveBench<WARM> {
    const SMOKE_ITEMS: usize = SMOKE_CVES;

    fn setup(s: &Settings) -> Result<Self, String> {
        let base = base_tree();
        let cases = cases(s.smoke.then_some(SMOKE_CVES));
        let cache = BuildCache::new();
        let (image, _) = build_tree_image_cached(&base, &Options::distro(), &cache)
            .map_err(|e| format!("distro build: {e}"))?;
        let uid = Kernel::boot_image(&image)
            .map_err(|e| format!("boot: {e}"))?
            .call_function("sys_getuid", &[])
            .map_err(|e| format!("sys_getuid: {e}"))?;
        let bench = CveBench {
            seed: s.seed,
            base,
            cases,
            cache,
            uid,
            pass: 0,
            item: 0,
            packs: BTreeMap::new(),
        };
        if WARM {
            // Compile every unit any update will need, once.
            for case in &bench.cases {
                create_update_cached(case.id, &bench.base, &case.patch, &case.opts, &bench.cache)
                    .map_err(|e| format!("{}: warm-up create: {e}", case.id))?;
            }
        } else {
            // Fault in the allocator and code paths with one update.
            let case = &bench.cases[0];
            bench.cycle(
                case,
                &BuildCache::new(),
                None,
                &mut SpanLog::disabled(),
                &mut Tracer::disabled(),
            )?;
        }
        Ok(bench)
    }

    fn run(&mut self, budget: Budget, log: &mut SpanLog, m: &mut Measured) {
        let (cpu, calibrated) = (clock::process_s(), m.pacer.spent_s());
        let mut n = 0usize;
        'passes: while budget.admits(n) {
            let order = shuffled(self.cases.len(), mix(self.seed, self.pass));
            self.pass += 1;
            let mut pass_target = if WARM {
                match log.time("kernel.boot_image", || self.warm_image()) {
                    Ok(kernel) => Some((kernel, UpdateManager::with_watch(watch()))),
                    Err(e) => {
                        m.attempted += 1;
                        m.fail(e);
                        break;
                    }
                }
            } else {
                None
            };
            for ci in order {
                if !budget.admits(n) {
                    break 'passes;
                }
                n += 1;
                self.item += 1;
                log.set_item(self.item);
                let mut tracer = m.item_tracer();
                let cold_cache;
                let (cache, target) = match &mut pass_target {
                    Some((k, mgr)) => (&self.cache, Some((k, mgr))),
                    None => {
                        cold_cache = BuildCache::new();
                        (&cold_cache, None)
                    }
                };
                let case = &self.cases[ci];
                let span = log.open("cve.update_cycle");
                let result = self.cycle(case, cache, target, log, &mut tracer);
                log.close(span);
                let id = case.id;
                m.attempted += 1;
                match result {
                    Ok((ms, pack)) => {
                        m.latency(ms);
                        m.done += 1;
                        self.packs.entry(id).or_insert_with(|| pack.to_bytes());
                    }
                    Err(e) => m.fail(e),
                }
                m.tracer.absorb(&tracer);
                m.pacer.tick();
            }
        }
        m.busy_s += clock::process_s() - cpu - (m.pacer.spent_s() - calibrated);
    }

    fn replay(
        &mut self,
        _log: &mut SpanLog,
        _report: &mut probe::Report,
    ) -> Result<(Vec<probe::Input>, probe::Machine), String> {
        let inputs = self
            .cases
            .iter()
            .filter_map(|case| {
                let pack = self.packs.get(case.id)?;
                Some(probe::Input {
                    id: case.id.to_string(),
                    pre: self.base.clone(),
                    patch: case.patch.clone(),
                    opts: case.opts.clone(),
                    expect: Some(pack.clone()),
                })
            })
            .collect();
        Ok((inputs, probe::Machine::uniprocessor()))
    }
}
