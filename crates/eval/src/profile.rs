//! PC-sampling profiles of an update's hot path, and the quiescence-risk
//! report derived from them.
//!
//! The paper's claim is behavioural: after `ksplice-apply`, calls land in
//! the *replacement* code. The profiler makes that claim measurable. A
//! fixed-interval PC sampler (see `ksplice_kernel::Profiler`) records
//! call stacks while the POSIX stress workload runs, once before the
//! update and once after; symbolizing both through kallsyms and the
//! region table shows the patched function's samples migrating from
//! original kernel text into the `ksplice*_primary_*` patch arena.
//!
//! The same samples answer a second question the paper leaves implicit:
//! *which functions will resist `stop_machine`?* A function's on-stack
//! frequency under a workload predicts how often the §5.2 stack safety
//! check finds it busy. [`quiescence_correlation`] measures both sides —
//! sampled on-stack frequency, and observed `NotQuiescent` abort rates
//! from real single-attempt applies — so the ranking can be validated
//! rather than asserted.

use std::collections::BTreeSet;

use ksplice_core::trace::{Severity, Stage, Tracer};
use ksplice_core::{
    create_update_cached_traced, ApplyError, ApplyOptions, CreateOptions, Ksplice, RetryPolicy,
    TRAMPOLINE_LEN,
};
use ksplice_kernel::{
    collapsed_stacks, hot_functions, quiescence_risk, Fault, HotFunc, Kernel, QuiesceRisk,
    Residency, Sample,
};
use ksplice_lang::BuildCache;

use crate::corpus::{corpus, Cve};
use crate::driver::distro_image;
use crate::stress::{load_stress_cached, run_stress, spawn_stress};
use crate::tree::base_tree;

/// Sampling parameters for a profile run. Everything is deterministic:
/// the same config against the same kernel yields byte-identical
/// samples, so CI can diff two runs.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Steps between samples. A prime keeps the sampler from phase-
    /// locking with the workload's loop periods.
    pub interval: u64,
    /// Upper bound on retained samples per phase (overflow is counted,
    /// not silently dropped).
    pub max_samples: usize,
    /// Stress-workload rounds per phase.
    pub rounds: u64,
    /// Seed for the jittered attempt schedule in
    /// [`quiescence_correlation`].
    pub seed: u64,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            interval: 97,
            max_samples: 200_000,
            rounds: 40,
            seed: 0x5eed,
        }
    }
}

/// One sampled phase (pre- or post-apply) of a profile run.
#[derive(Debug, Clone)]
pub struct ProfilePhase {
    /// Samples recorded in this phase.
    pub samples: usize,
    /// Hot-function table, hottest first.
    pub hot: Vec<HotFunc>,
    /// Collapsed-stack lines (`root;...;leaf count`), flamegraph-ready.
    pub folded: String,
}

/// The result of [`run_profile`]: pre/post hot tables plus the migration
/// evidence.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The CVE profiled.
    pub id: String,
    /// Sampling interval used.
    pub interval: u64,
    /// Profile of the unpatched kernel.
    pub pre: ProfilePhase,
    /// Profile after the update was applied.
    pub post: ProfilePhase,
    /// Functions whose samples moved from original text into the patch
    /// arena — the update's hot path demonstrably migrated.
    pub migrated: Vec<String>,
    /// stop_machine attempts the apply needed.
    pub attempts: u64,
    /// Per-function on-stack frequency from the pre-apply samples,
    /// riskiest first: the quiescence-risk ranking.
    pub risk: Vec<QuiesceRisk>,
}

impl ProfileReport {
    /// Renders a hot-function table for one phase.
    fn render_phase(out: &mut String, title: &str, phase: &ProfilePhase) {
        out.push_str(&format!("{title} ({} samples)\n", phase.samples));
        out.push_str(&format!(
            "  {:<24} {:<6} {:>6} {:>9}\n",
            "FUNCTION", "WHERE", "SELF", "ON-STACK"
        ));
        for h in phase.hot.iter().take(12) {
            out.push_str(&format!(
                "  {:<24} {:<6} {:>6} {:>9}\n",
                h.function,
                h.residency.label(),
                h.self_samples,
                h.on_stack_samples
            ));
        }
    }

    /// Human-readable report: both hot tables, the migration verdict,
    /// and the top of the quiescence-risk ranking.
    pub fn render(&self) -> String {
        let mut out = format!("profile of {} (interval {})\n\n", self.id, self.interval);
        ProfileReport::render_phase(&mut out, "pre-apply", &self.pre);
        out.push('\n');
        ProfileReport::render_phase(&mut out, "post-apply", &self.post);
        out.push('\n');
        if self.migrated.is_empty() {
            out.push_str("migrated into patch arena: (none)\n");
        } else {
            out.push_str(&format!(
                "migrated into patch arena: {}\n",
                self.migrated.join(", ")
            ));
        }
        out.push_str("\nquiescence risk (on-stack frequency, pre-apply)\n");
        for r in self.risk.iter().take(8) {
            out.push_str(&format!(
                "  {:<24} {:>6.1}%  ({}/{} samples)\n",
                r.function,
                r.frequency() * 100.0,
                r.on_stack,
                r.samples
            ));
        }
        out
    }

    /// The report as a JSON object (used by `profile --json` and the
    /// bench harness).
    pub fn to_json(&self) -> String {
        use ksplice_core::trace::json_escape;
        let phase = |p: &ProfilePhase| {
            let hot: Vec<String> = p
                .hot
                .iter()
                .map(|h| {
                    format!(
                        "{{\"function\":{},\"unit\":{},\"where\":\"{}\",\"self\":{},\"on_stack\":{}}}",
                        json_escape(&h.function),
                        json_escape(&h.unit),
                        h.residency.label(),
                        h.self_samples,
                        h.on_stack_samples
                    )
                })
                .collect();
            format!("{{\"samples\":{},\"hot\":[{}]}}", p.samples, hot.join(","))
        };
        let migrated: Vec<String> = self
            .migrated
            .iter()
            .map(|m| json_escape(m))
            .collect();
        let risk: Vec<String> = self
            .risk
            .iter()
            .map(|r| {
                format!(
                    "{{\"function\":{},\"on_stack\":{},\"samples\":{}}}",
                    json_escape(&r.function),
                    r.on_stack,
                    r.samples
                )
            })
            .collect();
        format!(
            "{{\"id\":{},\"interval\":{},\"attempts\":{},\"pre\":{},\"post\":{},\"migrated\":[{}],\"risk\":[{}]}}",
            json_escape(&self.id),
            self.interval,
            self.attempts,
            phase(&self.pre),
            phase(&self.post),
            migrated.join(","),
            risk.join(",")
        )
    }
}

fn find_case(cve_id: &str) -> Result<Cve, String> {
    corpus()
        .into_iter()
        .find(|c| c.id == cve_id)
        .ok_or_else(|| format!("unknown CVE `{cve_id}` (see `ksplice eval` for the corpus)"))
}

/// Samples one stress phase: arms the profiler, runs the workload
/// synchronously, and returns the recorded samples.
fn sample_phase(
    kernel: &mut Kernel,
    entry: u64,
    cfg: &ProfileConfig,
) -> Result<Vec<Sample>, String> {
    kernel.start_sampling(cfg.interval, cfg.max_samples);
    let run = run_stress(kernel, entry, cfg.rounds);
    let samples = kernel.stop_sampling();
    run?;
    Ok(samples)
}

/// Profiles one CVE's update end to end: sample the stress workload on
/// the unpatched kernel, apply the update, sample again, and report
/// which hot functions migrated into the patch arena.
pub fn run_profile(
    cve_id: &str,
    cfg: &ProfileConfig,
    tracer: &mut Tracer,
) -> Result<ProfileReport, String> {
    let case = find_case(cve_id)?;
    let cache = BuildCache::new();
    let base = base_tree();
    let image = distro_image(&base, &cache)?;
    let mut kernel = Kernel::boot_image(&image).map_err(|e| format!("boot: {e}"))?;
    let entry = load_stress_cached(&mut kernel, &cache)?;

    tracer.set_now(kernel.steps);
    let span = tracer.span_start(
        Stage::Bench,
        "profile",
        vec![("cve", cve_id.into()), ("interval", cfg.interval.into())],
    );

    // Phase 1: the unpatched kernel under the workload.
    let pre_samples = sample_phase(&mut kernel, entry, cfg)?;
    tracer.set_now(kernel.steps);
    tracer.count("profile.samples_recorded", pre_samples.len() as u64);
    let pre_hot = hot_functions(&kernel, &pre_samples, &[]);
    let pre_folded = collapsed_stacks(&kernel, &pre_samples, &[]);

    // The §5.2 risk ranking: on-stack frequency of every kernel function
    // observed in the pre-apply samples.
    let targets: Vec<(String, u64, u64)> = kernel
        .syms
        .iter()
        .filter(|s| s.is_func && s.size > 0)
        .map(|s| (s.name.clone(), s.addr, s.size))
        .collect();
    let risk: Vec<QuiesceRisk> = quiescence_risk(&pre_samples, &targets)
        .into_iter()
        .filter(|r| r.on_stack > 0)
        .collect();

    // Apply the update.
    let opts = if case.needs_custom_code() {
        CreateOptions {
            accept_data_changes: true,
            ..CreateOptions::default()
        }
    } else {
        CreateOptions::default()
    };
    let (pack, _) =
        create_update_cached_traced(case.id, &base, &case.full_patch_text(), &opts, &cache, tracer)
            .map_err(|e| format!("{cve_id}: create: {e}"))?;
    let mut ks = Ksplice::new();
    let report = ks
        .apply_traced(&mut kernel, &pack, &ApplyOptions::default(), tracer)
        .map_err(|e| format!("{cve_id}: apply: {e}"))?;
    let trampolines: Vec<(u64, u64)> = ks
        .updates
        .last()
        .map(|u| {
            u.sites
                .iter()
                .map(|s| (s.site_addr, TRAMPOLINE_LEN as u64))
                .collect()
        })
        .unwrap_or_default();

    // Phase 2: the patched kernel under the same workload.
    let post_samples = sample_phase(&mut kernel, entry, cfg)?;
    tracer.set_now(kernel.steps);
    tracer.count("profile.samples_recorded", post_samples.len() as u64);
    let post_hot = hot_functions(&kernel, &post_samples, &trampolines);
    let post_folded = collapsed_stacks(&kernel, &post_samples, &trampolines);

    // Migration evidence: functions sampled in original text before the
    // update and in the patch arena after it.
    let pre_original: BTreeSet<&str> = pre_hot
        .iter()
        .filter(|h| h.residency == Residency::Original && h.on_stack_samples > 0)
        .map(|h| h.function.as_str())
        .collect();
    let migrated: Vec<String> = post_hot
        .iter()
        .filter(|h| {
            h.residency == Residency::PatchArena
                && h.on_stack_samples > 0
                && pre_original.contains(h.function.as_str())
        })
        .map(|h| h.function.clone())
        .collect();
    tracer.count("profile.functions_migrated", migrated.len() as u64);
    tracer.emit(
        Stage::Bench,
        Severity::Info,
        "profile.done",
        vec![
            ("cve", cve_id.into()),
            ("pre_samples", pre_samples.len().into()),
            ("post_samples", post_samples.len().into()),
            ("migrated", migrated.len().into()),
        ],
    );
    tracer.span_end(span);

    Ok(ProfileReport {
        id: case.id.to_string(),
        interval: cfg.interval,
        pre: ProfilePhase {
            samples: pre_samples.len(),
            hot: pre_hot,
            folded: pre_folded,
        },
        post: ProfilePhase {
            samples: post_samples.len(),
            hot: post_hot,
            folded: post_folded,
        },
        migrated,
        attempts: report.attempts as u64,
        risk,
    })
}

/// The corpus CVEs used as quiescence-correlation targets: each patches
/// exactly one function the stress workload exercises, so a
/// `NotQuiescent` abort of its apply is attributable to that function.
pub const QUIESCE_TARGET_CVES: &[&str] = &[
    "CVE-2005-1263", // sys_open
    "CVE-2006-1863", // sys_write_file
    "CVE-2007-2876", // sys_socket
    "CVE-2005-3055", // sys_msgsnd
];

/// One target's measured abort rate in a [`QuiesceCorrelation`].
#[derive(Debug, Clone)]
pub struct TargetAborts {
    /// The patched function.
    pub function: String,
    /// The CVE whose update patches it.
    pub cve: String,
    /// `NotQuiescent` aborts from real single-attempt applies.
    pub real_aborts: u64,
    /// Aborts forced by the seeded stack-busy fault plan (equal per
    /// target, so they exercise the machinery without biasing the
    /// ranking).
    pub synthetic_aborts: u64,
    /// Real apply attempts made.
    pub attempts: u64,
}

/// The §5.2 validation pairing: sampled on-stack frequency vs observed
/// stop_machine abort rates, per target function.
#[derive(Debug, Clone)]
pub struct QuiesceCorrelation {
    /// Profiler-derived risk over the target functions, riskiest first.
    pub risk: Vec<QuiesceRisk>,
    /// Observed aborts per target, most aborts first.
    pub aborts: Vec<TargetAborts>,
}

impl QuiesceCorrelation {
    /// The function the profiler ranks riskiest.
    pub fn top_risk(&self) -> Option<&str> {
        self.risk.first().map(|r| r.function.as_str())
    }

    /// The function with the most observed real aborts.
    pub fn top_aborts(&self) -> Option<&str> {
        self.aborts.first().map(|a| a.function.as_str())
    }

    /// Whether the profiler's top-ranked function matches the function
    /// with the highest observed abort contribution.
    pub fn rankings_agree(&self) -> bool {
        match (self.top_risk(), self.top_aborts()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Human-readable correlation table.
    pub fn render(&self) -> String {
        let mut out = String::from("quiescence risk vs observed aborts\n");
        out.push_str(&format!(
            "  {:<18} {:>9} {:>12} {:>10}\n",
            "FUNCTION", "ON-STACK", "REAL-ABORTS", "SYNTHETIC"
        ));
        for r in &self.risk {
            let a = self.aborts.iter().find(|a| a.function == r.function);
            out.push_str(&format!(
                "  {:<18} {:>8.1}% {:>12} {:>10}\n",
                r.function,
                r.frequency() * 100.0,
                a.map(|a| a.real_aborts).unwrap_or(0),
                a.map(|a| a.synthetic_aborts).unwrap_or(0),
            ));
        }
        out.push_str(&format!(
            "rankings {}\n",
            if self.rankings_agree() {
                "agree"
            } else {
                "DISAGREE"
            }
        ));
        out
    }
}

/// A tiny deterministic PRNG (plain xorshift64, 13/7/17 shifts, no
/// output multiplier) for the jittered attempt schedule; the VM forbids
/// wall-clock randomness by design.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Measures, for each [`QUIESCE_TARGET_CVES`] update, how often a
/// single-attempt apply aborts `NotQuiescent` while the stress workload
/// runs — and pairs that with the profiler's on-stack ranking of the
/// same functions under the same workload.
///
/// Each target also absorbs `synthetic` seeded stack-busy fault windows
/// (the same count per target), so the retry/abandon machinery is
/// exercised under an armed fault plan without changing which function
/// ranks first on *real* aborts.
pub fn quiescence_correlation(
    cfg: &ProfileConfig,
    attempts: u64,
    synthetic: u64,
    tracer: &mut Tracer,
) -> Result<QuiesceCorrelation, String> {
    let cache = BuildCache::new();
    let base = base_tree();
    let image = distro_image(&base, &cache)?;

    // Side 1: the profiler's ranking, from a synchronous sampled run.
    let mut kernel = Kernel::boot_image(&image).map_err(|e| format!("boot: {e}"))?;
    let entry = load_stress_cached(&mut kernel, &cache)?;
    let samples = sample_phase(&mut kernel, entry, cfg)?;
    let mut cases = Vec::new();
    let mut targets = Vec::new();
    for id in QUIESCE_TARGET_CVES {
        let case = find_case(id)?;
        let fn_name = case.edited_fns[0];
        let sym = kernel
            .syms
            .lookup_global(fn_name)
            .ok_or_else(|| format!("{fn_name}: not in kallsyms"))?;
        targets.push((fn_name.to_string(), sym.addr, sym.size));
        cases.push(case);
    }
    let risk = quiescence_risk(&samples, &targets);

    // Side 2: observed abort rates from real applies against a running
    // workload, one fresh kernel per target.
    let span = tracer.span_start(
        Stage::Bench,
        "quiescence",
        vec![
            ("targets", cases.len().into()),
            ("attempts", attempts.into()),
        ],
    );
    let single = ApplyOptions::with_retry(RetryPolicy::fixed(1, 0));
    let mut aborts: Vec<TargetAborts> = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let fn_name = case.edited_fns[0].to_string();
        let (pack, _) = create_update_cached_traced(
            case.id,
            &base,
            &case.full_patch_text(),
            &CreateOptions::default(),
            &cache,
            tracer,
        )
        .map_err(|e| format!("{}: create: {e}", case.id))?;

        let mut k = Kernel::boot_image(&image).map_err(|e| format!("boot: {e}"))?;
        let entry = load_stress_cached(&mut k, &cache)?;
        // A workload that outlives every attempt.
        spawn_stress(&mut k, entry, 1_000_000)?;
        k.run(10_000); // let it settle into steady state

        // The seeded fault plan: every target absorbs the same number of
        // synthetic busy windows.
        let mut ks = Ksplice::new();
        let mut synthetic_aborts = 0u64;
        if synthetic > 0 {
            k.arm_fault(Fault::StackBusy {
                windows: synthetic as u32,
            })
                .map_err(|e| format!("arm: {e}"))?;
            for _ in 0..synthetic {
                match ks.apply_traced(&mut k, &pack, &single, tracer) {
                    Err(ApplyError::NotQuiescent { .. }) => synthetic_aborts += 1,
                    Ok(_) => {
                        return Err(format!(
                            "{}: apply succeeded through an armed stack-busy window",
                            case.id
                        ))
                    }
                    Err(e) => return Err(format!("{}: synthetic apply: {e}", case.id)),
                }
            }
        }

        let mut rng = cfg.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut real_aborts = 0u64;
        for _ in 0..attempts {
            // Jittered schedule: land the attempt at a pseudo-random
            // phase of the workload loop.
            k.run(401 + xorshift(&mut rng) % 1009);
            match ks.apply_traced(&mut k, &pack, &single, tracer) {
                Ok(_) => {
                    // Nothing ran since the apply window, so the ranges
                    // are still clear and the undo cannot be refused.
                    ks.undo_any_traced(&mut k, case.id, &single, tracer)
                        .map_err(|e| format!("{}: undo: {e}", case.id))?;
                }
                Err(ApplyError::NotQuiescent { .. }) => real_aborts += 1,
                Err(e) => return Err(format!("{}: apply: {e}", case.id)),
            }
        }
        tracer.set_now(k.steps);
        tracer.count("profile.aborts_observed", real_aborts);
        tracer.emit(
            Stage::Bench,
            Severity::Info,
            "profile.quiesce_target",
            vec![
                ("function", fn_name.as_str().into()),
                ("real_aborts", real_aborts.into()),
                ("synthetic_aborts", synthetic_aborts.into()),
                ("attempts", attempts.into()),
            ],
        );
        aborts.push(TargetAborts {
            function: fn_name,
            cve: case.id.to_string(),
            real_aborts,
            synthetic_aborts,
            attempts,
        });
    }
    tracer.span_end(span);
    aborts.sort_by(|a, b| {
        b.real_aborts
            .cmp(&a.real_aborts)
            .then_with(|| a.function.cmp(&b.function))
    });
    Ok(QuiesceCorrelation { risk, aborts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_shows_hot_path_migrating_into_arena() {
        let cfg = ProfileConfig {
            rounds: 25,
            ..ProfileConfig::default()
        };
        let mut tracer = Tracer::new();
        let report = run_profile("CVE-2005-1263", &cfg, &mut tracer).unwrap();
        assert!(report.pre.samples > 100, "pre phase sampled");
        assert!(report.post.samples > 100, "post phase sampled");
        // The acceptance bar: at least one function's samples moved from
        // original text into the patch arena.
        assert!(
            report.migrated.iter().any(|f| f == "sys_open"),
            "sys_open should migrate; got {:?}",
            report.migrated
        );
        // Pre-apply, nothing lives in the arena.
        assert!(report
            .pre
            .hot
            .iter()
            .all(|h| h.residency != Residency::PatchArena));
        // The folded output is flamegraph-shaped.
        assert!(report
            .post
            .folded
            .lines()
            .all(|l| l.rsplit_once(' ').is_some_and(|(_, n)| n.parse::<u64>().is_ok())));
    }

    #[test]
    fn profile_is_deterministic() {
        let cfg = ProfileConfig {
            rounds: 10,
            ..ProfileConfig::default()
        };
        let a = run_profile("CVE-2006-1863", &cfg, &mut Tracer::disabled()).unwrap();
        let b = run_profile("CVE-2006-1863", &cfg, &mut Tracer::disabled()).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
        // The JSON report parses back through the crate's own parser.
        let doc = ksplice_core::trace::parse_json_object(&a.to_json()).unwrap();
        assert_eq!(
            doc.get("id").and_then(ksplice_core::trace::JsonValue::as_str),
            Some("CVE-2006-1863")
        );
        assert!(doc
            .get("pre")
            .and_then(|p| p.get("samples"))
            .and_then(ksplice_core::trace::JsonValue::as_u64)
            .is_some());
    }
}
