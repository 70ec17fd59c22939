//! The layer probe: replays a workload's own updates through the finer
//! public functions the coarse calls hide, timing each layer on the
//! thread's CPU clock.
//!
//! For every input it runs `ksplice-create` stage by stage (`Patch::parse`,
//! the pre and post builds, `diff_builds`, `build_packs`,
//! `UpdatePack::to_bytes` and `parse`) and requires the resulting pack
//! bytes to equal the workload's own pack (or `create_update`'s), which
//! proves the probe measured the same program. It then boots the
//! workload's kernel, runs `preflight`, `match_unit` on every pack unit,
//! `Ksplice::apply_traced` and `undo_any_traced` on one kernel and
//! `UpdateManager::apply_watched` on another. Once per run it times the
//! compiler phases over the first input's units and the VM's dispatch
//! rate under load threads.

use std::collections::BTreeMap;

use ksplice_core::SmpConfig;
use ksplice_core::{
    apply_patch_to_tree, build_packs, create_update_cached, diff_builds, match_unit, preflight,
    ApplyOptions, BuildCache, CreateOptions, HealthProbe, Ksplice, Tracer, UpdateManager,
    UpdatePack, WatchPolicy,
};
use ksplice_eval::smp::SMP_LOAD_SRC;
use ksplice_kernel::Kernel;
use ksplice_lang::{
    build_tree_cached, build_tree_image_cached, check_unit_with, compile_unit, compile_unit_with,
    lex, parse_headers, parse_unit, Options, SourceTree,
};
use ksplice_object::{Object, ObjectSet};
use ksplice_patch::Patch;

use crate::clock::{Pacer, ThreadTimer};
use crate::spans::SpanLog;
use crate::stats;

/// Most inputs one probe replays.
pub const MAX_INPUTS: usize = 32;

/// Fewest samples per layer: small input sets are replayed repeatedly.
const MIN_SAMPLES: usize = 24;

/// VM steps per dispatch-rate sample, and samples taken.
const VM_STEPS: u64 = 2_000_000;
const VM_SAMPLES: usize = 5;

/// One update to replay: the tree it was built against and its patch.
pub struct Input {
    /// Update id.
    pub id: String,
    /// Source tree the pack was built from.
    pub pre: SourceTree,
    /// Unified diff against `pre`.
    pub patch: String,
    /// Create options the workload used.
    pub opts: CreateOptions,
    /// The workload's own pack bytes; `None` compares against
    /// `create_update` instead.
    pub expect: Option<Vec<u8>>,
}

/// How the workload's kernels run.
pub struct Machine {
    /// vCPUs per kernel.
    pub cpus: u32,
    /// Background load threads running while an update applies.
    pub load_threads: u32,
    /// Apply options (retry schedule, topology).
    pub apply: ApplyOptions,
}

impl Machine {
    /// An idle uniprocessor kernel, as the `cve-*`, `fuzz` and `rebase`
    /// workloads apply to.
    pub fn uniprocessor() -> Machine {
        Machine {
            cpus: 1,
            load_threads: 0,
            apply: ApplyOptions::default(),
        }
    }

    /// Gives a booted kernel the workload's topology and `threads`
    /// background threads running the fleet's syscall load module
    /// (compiled once per probe), which runs indefinitely on any number
    /// of vCPUs.
    fn prepare(&self, kernel: &mut Kernel, load: &Object, threads: u32) -> Result<(), String> {
        if self.cpus > 1 {
            kernel.configure_smp(SmpConfig::with_cpus(self.cpus));
        }
        if threads > 0 {
            let entry = kernel
                .insmod(load, false)
                .map_err(|e| format!("load module: {e}"))?
                .symbol_addr("smp_load_main")
                .ok_or("smp_load_main missing")?;
            for _ in 0..threads {
                kernel
                    .spawn_at(entry, &[1_000_000_000], "load")
                    .map_err(|e| format!("load spawn: {e}"))?;
            }
        }
        Ok(())
    }
}

fn boot(image: &ObjectSet) -> Result<Kernel, String> {
    Kernel::boot_image(image).map_err(|e| format!("boot: {e}"))
}

/// Samples per layer metric, keyed by metric name, as measured on this
/// host's CPU clock.
#[derive(Default)]
pub struct Report {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Packs whose bytes were checked against the workload's.
    pub packs_checked: usize,
    /// Calibration samples taken between replays.
    pub pacer: Pacer,
}

impl Report {
    /// Adds one sample to a layer.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn time<R>(&mut self, name: &'static str, scale: f64, f: impl FnOnce() -> R) -> R {
        let t = ThreadTimer::start();
        let r = f();
        self.push(name, t.secs() * scale);
        r
    }

    /// Median of a layer's samples (0 when it has none).
    pub fn p50(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .and_then(|v| stats::median(v))
            .unwrap_or(0.0)
    }

    /// Mean of a layer's samples (0 when it has none).
    pub fn mean(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| stats::mean(v))
    }
}

const MS: f64 = 1e3;
const US: f64 = 1e6;

/// Replays `inputs` (each at least often enough for [`MIN_SAMPLES`])
/// and adds every layer's samples to `r`. Any pack mismatch or failed
/// apply, undo or watch is an error.
pub fn run(
    inputs: &[Input],
    machine: &Machine,
    log: &mut SpanLog,
    r: &mut Report,
) -> Result<(), String> {
    let first = inputs
        .first()
        .ok_or("probe: the workload produced no pack")?;
    let load = compile_unit("smp/load.kc", SMP_LOAD_SRC, &Options::pre_post())
        .map_err(|e| format!("load module compile: {e}"))?;
    let span = log.open("probe");
    compiler_phases(&first.pre, r)?;
    let reps = MIN_SAMPLES.div_ceil(inputs.len());
    for _ in 0..reps {
        for input in inputs {
            r.pacer.tick();
            replay(input, machine, &load, r).map_err(|e| format!("probe {}: {e}", input.id))?;
        }
    }
    vm_rate(first, machine, &load, r)?;
    log.close(span);
    Ok(())
}

/// Per-unit lex, parse, sema and full compile over a tree's units.
fn compiler_phases(tree: &SourceTree, r: &mut Report) -> Result<(), String> {
    let headers = parse_headers(tree).map_err(|e| e.to_string())?;
    let opts = Options::pre_post();
    for _ in 0..3 {
        for (path, src) in tree.iter().filter(|(p, _)| p.ends_with(".kc")) {
            r.time("lang.lex_us", US, || lex(path, src))
                .map_err(|e| e.to_string())?;
            let unit = r
                .time("lang.parse_us", US, || parse_unit(path, src))
                .map_err(|e| e.to_string())?;
            r.time("lang.sema_us", US, || check_unit_with(&unit, &headers))
                .map_err(|e| e.to_string())?;
            r.time("lang.compile_us", US, || {
                compile_unit_with(path, src, &opts, &headers)
            })
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn replay(input: &Input, machine: &Machine, load: &Object, r: &mut Report) -> Result<(), String> {
    // ksplice-create, stage by stage.
    let patch = r
        .time("patch.parse_us", US, || Patch::parse(&input.patch))
        .map_err(|e| e.to_string())?;
    let build_opts = input
        .opts
        .build_options
        .clone()
        .unwrap_or_else(Options::pre_post);
    let cache = BuildCache::new();
    let (pre, _) = r
        .time("lang.build_pre_ms", MS, || {
            build_tree_image_cached(&input.pre, &build_opts, &cache)
        })
        .map_err(|e| format!("pre build: {e}"))?;
    let patched = apply_patch_to_tree(&input.pre, &patch).map_err(|e| e.to_string())?;
    let (post, _) = r
        .time("lang.build_post_ms", MS, || {
            build_tree_cached(&patched, &build_opts, &cache)
        })
        .map_err(|e| format!("post build: {e}"))?;
    let diff = r.time("differ.diff_us", US, || diff_builds(&pre, &post));
    r.push("differ.units_changed", diff.affected().count() as f64);
    let pack = r.time("package.build_us", US, || {
        build_packs(&input.id, &pre, &post, &diff)
    });
    let bytes = r.time("object.encode_us", US, || pack.to_bytes());
    r.push("object.pack_kb", bytes.len() as f64 / 1024.0);
    let pack = r
        .time("object.decode_us", US, || UpdatePack::parse(&bytes))
        .map_err(|e| format!("decode: {e}"))?;
    let expect = match &input.expect {
        Some(b) => b.clone(),
        None => create_update_cached(
            &input.id,
            &input.pre,
            &input.patch,
            &input.opts,
            &BuildCache::new(),
        )
        .map_err(|e| format!("create_update: {e}"))?
        .0
        .to_bytes(),
    };
    if bytes != expect {
        return Err("stage-by-stage pack bytes differ from the workload's pack".to_string());
    }
    r.packs_checked += 1;

    // The apply side, on the workload's kernel.
    let (image, _) = r
        .time("lang.build_distro_ms", MS, || {
            build_tree_image_cached(&input.pre, &Options::distro(), &BuildCache::new())
        })
        .map_err(|e| format!("distro build: {e}"))?;
    let mut kernel = r.time("kernel.boot_ms", MS, || boot(&image))?;
    machine.prepare(&mut kernel, load, machine.load_threads)?;
    let mut ks = Ksplice::new();
    r.time("manager.preflight_us", US, || {
        preflight(&ks, &kernel, &pack, &mut Tracer::disabled())
    })
    .map_err(|e| format!("preflight: {e}"))?;
    for unit in &pack.units {
        // A unit may legitimately need overrides the full apply learns
        // from earlier units; only the matching work is measured here.
        let _ = r.time("runpre.match_us", US, || {
            match_unit(&kernel, &unit.helper, &BTreeMap::new())
        });
    }
    let before = kernel.mem.text_checksum();
    let report = r
        .time("apply.apply_us", US, || {
            ks.apply_traced(&mut kernel, &pack, &machine.apply, &mut Tracer::disabled())
        })
        .map_err(|e| format!("apply: {e}"))?;
    r.push("apply.pause_us", report.pause.as_secs_f64() * US);
    r.push("apply.pause_steps", report.pause_steps as f64);
    r.push("apply.attempts", f64::from(report.attempts));
    for (stage, steps) in &report.stage_steps {
        r.push(stage_metric(stage), *steps as f64);
    }
    r.time("apply.undo_us", US, || {
        ks.undo_any_traced(
            &mut kernel,
            &pack.id,
            &machine.apply,
            &mut Tracer::disabled(),
        )
    })
    .map_err(|e| format!("undo: {e}"))?;
    if kernel.mem.text_checksum() != before {
        return Err("text image differs after undo".to_string());
    }

    let mut kernel = boot(&image)?;
    let uid = kernel
        .call_function("sys_getuid", &[])
        .map_err(|e| e.to_string())?;
    machine.prepare(&mut kernel, load, machine.load_threads)?;
    let mut mgr = UpdateManager::with_watch(WatchPolicy {
        rounds: 2,
        steps_per_round: 500,
    });
    let mut probes = vec![HealthProbe::canary("sys_getuid", &[], uid)];
    let steps = kernel.steps;
    r.time("manager.apply_watched_ms", MS, || {
        mgr.apply_watched(
            &mut kernel,
            &pack,
            &mut probes,
            &machine.apply,
            &mut Tracer::disabled(),
        )
    })
    .map_err(|e| format!("apply_watched: {e}"))?;
    r.push("kernel.steps_per_update", (kernel.steps - steps) as f64);
    Ok(())
}

/// The per-stage step metric of an `ApplyReport` stage.
fn stage_metric(stage: &str) -> &'static str {
    match stage {
        "load_helpers" => "apply.stage_steps.load_helpers",
        "runpre" => "apply.stage_steps.runpre",
        "load_primaries" => "apply.stage_steps.load_primaries",
        "pre_apply_hooks" => "apply.stage_steps.pre_apply_hooks",
        "stop_machine" => "apply.stage_steps.stop_machine",
        "commit" => "apply.stage_steps.commit",
        _ => "apply.stage_steps.other",
    }
}

/// VM dispatch rate with load threads running (at least one).
fn vm_rate(input: &Input, machine: &Machine, load: &Object, r: &mut Report) -> Result<(), String> {
    let (image, _) = build_tree_image_cached(&input.pre, &Options::distro(), &BuildCache::new())
        .map_err(|e| format!("distro build: {e}"))?;
    let mut kernel = boot(&image)?;
    machine.prepare(&mut kernel, load, machine.load_threads.max(1))?;
    for _ in 0..VM_SAMPLES {
        let (steps, t) = (kernel.steps, ThreadTimer::start());
        kernel.run(VM_STEPS);
        let secs = t.secs();
        r.push(
            "kernel.vm_msteps_per_s",
            (kernel.steps - steps) as f64 / 1e6 / secs,
        );
    }
    Ok(())
}
