//! The quiescence-under-load experiment (paper §5 / §6.3, for real).
//!
//! Every earlier abort measurement in this repo was either synthetic
//! (an armed stack-busy fault) or a uniprocessor race against a
//! *paused* workload. With the SMP substrate the experiment becomes
//! honest: N vCPUs run the POSIX stress workload concurrently while
//! `ksplice-apply` tries to capture the machine, so the §5.2 stack
//! check races threads that are genuinely parked mid-`sys_open` by the
//! barrier rendezvous.
//!
//! [`run_quiescence_load`] measures two things as a function of load
//! level (background stress threads):
//!
//! * the **NotQuiescent abort rate** of single-attempt applies — each
//!   probe boots a fresh kernel, spins up the load, lets it reach a
//!   seeded phase, and tries exactly one capture window; and
//! * the **pause distribution** of successful windows, in deterministic
//!   VM steps ([`ksplice_core::ApplyReport::pause_steps`]): barrier
//!   rendezvous plus stopped-machine work.
//!
//! Every probe that aborts is then re-applied on the *same* kernel
//! under a draining [`RetryPolicy`] and must succeed — the §5.2
//! retry-after-a-short-delay story, demonstrated against real
//! contention instead of a fault plan.
//!
//! Everything is seeded; the same config reproduces the same table.

use ksplice_core::trace::{Severity, Stage, Tracer};
use ksplice_core::{
    create_update_cached_traced, ApplyError, ApplyOptions, CreateOptions, Ksplice, RetryPolicy,
    SmpConfig,
};
use ksplice_kernel::Kernel;
use ksplice_lang::{compile_unit, options_fingerprint, BuildCache, Fingerprint, FuzzRng, Options};

use crate::corpus::corpus;
use crate::driver::distro_image;
use crate::tree::base_tree;

/// The SMP load workload. The POSIX stress module checks cross-thread
/// invariants (`open_count() == before + 1`) that are *correctly*
/// violated the moment two threads interleave — useful as a race
/// detector, useless as sustained load. This loop drives the same
/// syscalls with no such checks, so N copies hammer `sys_open` (the
/// patch target) indefinitely; the filler calls dilute the time spent
/// inside it to a realistic on-stack fraction.
pub const SMP_LOAD_SRC: &str = "\
int smp_load_main(int rounds) {\n\
    int r;\n\
    int fd;\n\
    for (r = 0; r < rounds; r = r + 1) {\n\
        fd = sys_open(5 + (r & 7), 6);\n\
        if (fd >= 0) {\n\
            sys_write_file(fd, 10 + r, 4);\n\
            sys_read_file(fd, 0, 4);\n\
            sys_close(fd);\n\
        }\n\
        sys_brk(0);\n\
    }\n\
    return 0;\n\
}\n";

/// Loads the SMP load module through the shared build cache, returning
/// the `smp_load_main` entry address.
fn load_smp_load(kernel: &mut Kernel, cache: &BuildCache) -> Result<u64, String> {
    let opt = Options::pre_post();
    let mut fp = Fingerprint::new();
    fp.u64_field(options_fingerprint(&opt))
        .str_field("smp/load.kc")
        .str_field(SMP_LOAD_SRC);
    let key = fp.finish();
    let obj = match cache.lookup(key) {
        Some(obj) => obj,
        None => {
            let obj = compile_unit("smp/load.kc", SMP_LOAD_SRC, &opt)
                .map_err(|e| format!("smp load compile: {e}"))?;
            cache.store(key, obj.clone());
            obj
        }
    };
    let module = kernel
        .insmod(&obj, false)
        .map_err(|e| format!("smp load insmod: {e}"))?;
    module
        .symbol_addr("smp_load_main")
        .ok_or_else(|| "smp_load_main missing".to_string())
}

/// Parameters of one [`run_quiescence_load`] sweep.
#[derive(Debug, Clone)]
pub struct SmpLoadConfig {
    /// vCPUs the probed kernels run.
    pub cpus: u32,
    /// Load levels to sweep: background stress threads per probe.
    pub load_levels: Vec<u32>,
    /// Single-attempt apply probes per load level.
    pub probes: u64,
    /// Master seed: drives per-probe scheduler seeds and settle phases.
    pub seed: u64,
    /// The corpus CVE to apply. The default, CVE-2005-1263, patches
    /// `sys_open` — the syscall the stress workload opens every round
    /// with, so its quiescence genuinely degrades with load.
    pub cve: &'static str,
}

impl Default for SmpLoadConfig {
    fn default() -> SmpLoadConfig {
        SmpLoadConfig {
            cpus: 4,
            load_levels: vec![0, 1, 2, 4, 8],
            probes: 20,
            seed: 0x5eed_10ad,
            cve: "CVE-2005-1263",
        }
    }
}

/// Measured outcomes at one load level.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Background stress threads during each probe.
    pub load: u32,
    /// Single-attempt probes made.
    pub probes: u64,
    /// Probes whose only capture window aborted `NotQuiescent`.
    pub aborts: u64,
    /// `pause_steps` of every successful window, in probe order.
    pub pause_steps: Vec<u64>,
    /// Total stop_machine attempts the draining retry policy spent
    /// turning this level's aborted probes into successes (0 when
    /// nothing aborted).
    pub drain_attempts: u64,
}

impl LoadRow {
    /// Abort fraction in [0, 1].
    pub fn abort_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.aborts as f64 / self.probes as f64
        }
    }

    /// (min, median, max) of the successful-window pause distribution.
    pub fn pause_summary(&self) -> (u64, u64, u64) {
        if self.pause_steps.is_empty() {
            return (0, 0, 0);
        }
        let mut sorted = self.pause_steps.clone();
        sorted.sort_unstable();
        (sorted[0], sorted[sorted.len() / 2], sorted[sorted.len() - 1])
    }
}

/// The result of one [`run_quiescence_load`] sweep.
#[derive(Debug, Clone)]
pub struct QuiescenceReport {
    /// vCPUs each probed kernel ran.
    pub cpus: u32,
    /// The CVE applied.
    pub cve: String,
    /// The patched function whose quiescence was contended.
    pub function: String,
    /// One row per load level, in sweep order.
    pub rows: Vec<LoadRow>,
}

impl QuiescenceReport {
    /// Human-readable sweep table (also the EXPERIMENTS.md format).
    pub fn render(&self) -> String {
        let mut out = format!(
            "quiescence under load: {} ({}) on {} vCPUs\n",
            self.cve, self.function, self.cpus
        );
        out.push_str(&format!(
            "  {:<5} {:>7} {:>7} {:>11} {:>22} {:>7}\n",
            "LOAD", "PROBES", "ABORTS", "ABORT-RATE", "PAUSE min/med/max", "DRAIN"
        ));
        for r in &self.rows {
            let (min, med, max) = r.pause_summary();
            out.push_str(&format!(
                "  {:<5} {:>7} {:>7} {:>10.0}% {:>14}/{}/{} {:>7}\n",
                r.load,
                r.probes,
                r.aborts,
                r.abort_rate() * 100.0,
                min,
                med,
                max,
                r.drain_attempts,
            ));
        }
        out
    }

    /// Total aborts across all load levels.
    pub fn total_aborts(&self) -> u64 {
        self.rows.iter().map(|r| r.aborts).sum()
    }
}

/// Runs the quiescence-under-load sweep. Emits `bench.smp_*` metrics on
/// `tracer` — counters per load level plus a labeled `pause_steps`
/// histogram — which `cargo bench -p ksplice-bench --bench smp` dumps
/// to `BENCH_smp.json`.
pub fn run_quiescence_load(
    cfg: &SmpLoadConfig,
    tracer: &mut Tracer,
) -> Result<QuiescenceReport, String> {
    let case = corpus()
        .into_iter()
        .find(|c| c.id == cfg.cve)
        .ok_or_else(|| format!("unknown CVE `{}`", cfg.cve))?;
    let function = case.edited_fns[0].to_string();
    let cache = BuildCache::new();
    let base = base_tree();
    let image = distro_image(&base, &cache)?;
    let (pack, _) = create_update_cached_traced(
        case.id,
        &base,
        &case.full_patch_text(),
        &CreateOptions::default(),
        &cache,
        &mut Tracer::disabled(),
    )
    .map_err(|e| format!("{}: create: {e}", case.id))?;

    let span = tracer.span_start(
        Stage::Bench,
        "smp.quiescence",
        vec![
            ("cpus", cfg.cpus.into()),
            ("levels", cfg.load_levels.len().into()),
            ("probes", cfg.probes.into()),
        ],
    );
    let single = ApplyOptions {
        retry: RetryPolicy::fixed(1, 0),
        smp: SmpConfig::with_cpus(cfg.cpus),
    };
    // The §5.2 drain policy: retry after a short delay, enough times
    // that real contention always yields a window eventually. At the
    // heaviest load levels every vCPU is busy and most capture windows
    // find `sys_open` on some stack, so the attempt budget is generous.
    let drain = ApplyOptions {
        retry: RetryPolicy::fixed(25, 3_000),
        smp: SmpConfig::with_cpus(cfg.cpus),
    };

    let mut rows = Vec::new();
    for &load in &cfg.load_levels {
        let mut rng =
            FuzzRng::from_state(cfg.seed ^ (load as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut aborts = 0u64;
        let mut drain_attempts = 0u64;
        let mut pause_steps = Vec::new();
        let label = load.to_string();
        for _ in 0..cfg.probes {
            let mut k = Kernel::boot_image(&image).map_err(|e| format!("boot: {e}"))?;
            k.configure_smp(SmpConfig::with_cpus(cfg.cpus).with_seed(rng.next_u64()));
            let entry = load_smp_load(&mut k, &cache)?;
            for _ in 0..load {
                // A workload that outlives every capture attempt.
                k.spawn_at(entry, &[1_000_000], "smp-load")
                    .map_err(|e| format!("load spawn: {e}"))?;
                // Stagger each entry by a seeded skid: threads that
                // share a run queue advance in quantum lockstep, so
                // without the skid every thread parks at the *same*
                // loop phase and the abort odds stop compounding.
                k.run(257 + rng.below(509));
            }
            // Settle into a seeded phase of the workload loop, so each
            // probe's capture window lands somewhere different.
            k.run(10_000 + rng.below(10_007));

            let mut ks = Ksplice::new();
            match ks.apply_traced(&mut k, &pack, &single, &mut Tracer::disabled()) {
                Ok(report) => {
                    pause_steps.push(report.pause_steps);
                    tracer.observe_labeled(
                        "bench.smp_pause_steps",
                        &[("load", &label)],
                        report.pause_steps,
                    );
                }
                Err(ApplyError::NotQuiescent { .. }) => {
                    aborts += 1;
                    // The §5.2 story: the same kernel, the same live
                    // load — retrying with delays must drain to success.
                    let report = ks
                        .apply_traced(&mut k, &pack, &drain, &mut Tracer::disabled())
                        .map_err(|e| format!("load {load}: drain apply failed: {e}"))?;
                    drain_attempts += report.attempts as u64;
                    pause_steps.push(report.pause_steps);
                    tracer.observe_labeled(
                        "bench.smp_pause_steps",
                        &[("load", &label)],
                        report.pause_steps,
                    );
                }
                Err(e) => return Err(format!("load {load}: apply: {e}")),
            }
        }
        tracer.count_labeled("bench.smp_probes", &[("load", &label)], cfg.probes);
        tracer.count_labeled("bench.smp_aborts", &[("load", &label)], aborts);
        tracer.gauge(
            "bench.smp_abort_permille",
            &[("load", &label)],
            (aborts as i64 * 1000) / cfg.probes.max(1) as i64,
        );
        tracer.emit(
            Stage::Bench,
            Severity::Info,
            "smp.load_level",
            vec![
                ("load", load.into()),
                ("aborts", aborts.into()),
                ("probes", cfg.probes.into()),
                ("drain_attempts", drain_attempts.into()),
            ],
        );
        rows.push(LoadRow {
            load,
            probes: cfg.probes,
            aborts,
            pause_steps,
            drain_attempts,
        });
    }
    tracer.span_end(span);
    Ok(QuiescenceReport {
        cpus: cfg.cpus,
        cve: case.id.to_string(),
        function,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_contention_is_real() {
        let cfg = SmpLoadConfig {
            load_levels: vec![0, 4],
            probes: 6,
            ..SmpLoadConfig::default()
        };
        let a = run_quiescence_load(&cfg, &mut Tracer::disabled()).unwrap();
        let b = run_quiescence_load(&cfg, &mut Tracer::disabled()).unwrap();
        assert_eq!(a.render(), b.render());
        // An unloaded machine always captures first try; a loaded one
        // aborts for real — no fault plan is armed anywhere here — and
        // the retry policy drains every abort back to success.
        assert_eq!(a.rows[0].aborts, 0);
        assert!(
            a.rows[1].aborts > 0,
            "expected real NotQuiescent aborts under load:\n{}",
            a.render()
        );
        assert_eq!(
            a.rows[1].pause_steps.len() as u64,
            cfg.probes,
            "every probe ends in a successful window"
        );
        // The rendezvous cost is visible: a loaded capture runs each
        // busy vCPU up to one quantum before the text write.
        assert!(a.rows[1].pause_steps.iter().all(|&p| p > 0));
    }
}
