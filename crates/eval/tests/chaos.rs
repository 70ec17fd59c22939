//! Chaos sweep: seeded fault schedules against real corpus updates.
//!
//! For a corpus subset, every schedule in the sweep arms a random
//! combination of fault-injection sites (stack-busy windows, module-load
//! failures, text corruption, step jitter) plus a random retry policy,
//! then applies the real CVE update to a freshly booted kernel. The
//! invariant under test is the paper's §5 safety contract, mechanised:
//! **every outcome is a clean success or a clean abort** — a live,
//! working update, or an error with the kernel's mapped text
//! byte-identical to its pre-apply state. Never a half-applied update.
//!
//! All randomness is a pure function of the schedule seed, so a failing
//! schedule replays exactly. Every test runs at each vCPU count in
//! [`CPUS`], with one syscall-load thread per vCPU for `stop_machine`
//! to stop: the contract must hold at every N. The smoke test
//! (`chaos_smoke_fixed_seed`) covers 3 CVEs with a fixed seed; the full
//! sweep runs 48 schedules per N. With `--nocapture`, the sweep prints
//! the fault-site × outcome table EXPERIMENTS.md records.

use ksplice_core::trace::{RingSink, Tracer};
use ksplice_core::{
    ApplyOptions, BuildCache, HealthProbe, Ksplice, LifecycleError, RetryPolicy, SmpConfig,
    UpdateManager, UpdatePack, UpdateState, WatchPolicy,
};
use ksplice_eval::smp::SMP_LOAD_SRC;
use ksplice_eval::{base_tree, corpus, load_workload, Cve};
use ksplice_kernel::{Fault, Kernel};
use ksplice_lang::{build_tree_cached, Options};
use ksplice_object::ObjectSet;

/// xorshift64* — tiny deterministic PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The corpus subset the sweep runs against: small, exploit-bearing and
/// multi-unit cases so every pipeline stage sees faults.
const SUBSET: [&str; 3] = ["CVE-2006-2451", "CVE-2008-0600", "CVE-2006-2934"];

struct Fixture {
    image: ObjectSet,
    cache: BuildCache,
    packs: Vec<(&'static str, UpdatePack)>,
}

fn fixture() -> Fixture {
    let base = base_tree();
    let cache = BuildCache::new();
    let (image, _) = build_tree_cached(&base, &Options::distro(), &cache).unwrap();
    let cases = corpus();
    let packs = SUBSET
        .iter()
        .map(|id| {
            let case: &Cve = cases.iter().find(|c| c.id == *id).unwrap();
            let opts = ksplice_core::CreateOptions {
                accept_data_changes: case.needs_custom_code(),
                ..Default::default()
            };
            let patch = if case.needs_custom_code() {
                case.full_patch_text()
            } else {
                case.patch_text()
            };
            let (pack, _) = ksplice_core::create_update_cached_traced(
                case.id,
                &base,
                &patch,
                &opts,
                &cache,
                &mut Tracer::disabled(),
            )
            .unwrap();
            (case.id, pack)
        })
        .collect();
    Fixture {
        image,
        cache,
        packs,
    }
}

/// The vCPU counts every test runs at.
const CPUS: [u32; 3] = [1, 2, 4];

/// A freshly booted kernel on `cpus` vCPUs running one syscall-load
/// thread per vCPU, each spawned after a seeded skid and all settled
/// into a seeded phase, as `run_quiescence_load` does. At N = 1 the
/// topology is left as booted.
fn boot(fx: &Fixture, cpus: u32, seed: u64) -> Kernel {
    let mut rng = Rng::new(seed.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let mut kernel = Kernel::boot_image(&fx.image).unwrap();
    if cpus > 1 {
        kernel.configure_smp(SmpConfig::with_cpus(cpus).with_seed(rng.next()));
    }
    let entry = load_workload(
        &mut kernel,
        &fx.cache,
        "chaos/load.kc",
        SMP_LOAD_SRC,
        "smp_load_main",
    )
    .unwrap();
    for _ in 0..cpus {
        kernel.spawn_at(entry, &[1_000_000], "chaos-load").unwrap();
        kernel.run(257 + rng.below(509));
    }
    kernel.run(1_000 + rng.below(1_009));
    kernel
}

/// One armed schedule, described for the summary table.
struct Schedule {
    faults: Vec<Fault>,
    policy: RetryPolicy,
}

/// Draws the fault schedule for one seed: one to three sites, arming
/// counts sized so both recovery (windows < attempts) and abandonment
/// (windows ≥ attempts) happen across the sweep.
fn draw_schedule(rng: &mut Rng) -> Schedule {
    let attempts = 2 + rng.below(4) as u32;
    let policy = RetryPolicy::fixed(attempts, 100 + rng.below(1_500));
    let mut faults = Vec::new();
    for _ in 0..1 + rng.below(2) {
        faults.push(match rng.below(4) {
            0 => Fault::StackBusy {
                windows: 1 + rng.below(attempts as u64 + 2) as u32,
            },
            1 => Fault::ModuleLoad {
                count: 1 + rng.below(2) as u32,
            },
            2 => Fault::CorruptText { addr: None },
            _ => Fault::StepJitter {
                max_steps: 1 + rng.below(300),
            },
        });
    }
    Schedule { faults, policy }
}

/// Applies one pack under one schedule and enforces the clean-success /
/// clean-abort invariant. Returns `(outcome, attempts)` for the table.
fn run_schedule(
    fx: &Fixture,
    cpus: u32,
    id: &str,
    pack: &UpdatePack,
    seed: u64,
    schedule: &Schedule,
) -> (&'static str, u32) {
    let mut kernel = boot(fx, cpus, seed);
    kernel.faults.reseed(seed);
    for fault in &schedule.faults {
        // Arming can itself fail only for corrupt-text on an empty
        // text map, which a booted kernel never has.
        kernel.arm_fault(*fault).unwrap();
    }

    // The reference point for the clean-abort check: the kernel as the
    // apply finds it, armed faults (including the flipped byte) and all.
    let text_before = kernel.mem.text_checksum();

    let ring = RingSink::new(512);
    let events = ring.handle();
    let mut tracer = Tracer::new().with_sink(Box::new(ring));
    let mut ks = Ksplice::new();
    let opts = ApplyOptions {
        retry: schedule.policy.clone(),
        smp: SmpConfig::with_cpus(cpus),
    };
    match ks.apply_traced(&mut kernel, pack, &opts, &mut tracer) {
        Ok(report) => {
            // Clean success: the update is live and the kernel still
            // schedules, syscalls and runs threads.
            assert_eq!(ks.live_updates().count(), 1, "seed {seed} {id}");
            assert!(report.attempts >= 1 && report.attempts <= schedule.policy.max_attempts);
            kernel.run(5_000);
            assert!(
                kernel.oopses.is_empty(),
                "seed {seed} {id}: oops after clean success: {:?}",
                kernel.oopses
            );
            ("success", report.attempts)
        }
        Err(err) => {
            // Clean abort: byte-identical text, no live update, and the
            // trace carries the checksum-verified rollback.
            assert_eq!(
                kernel.mem.text_checksum(),
                text_before,
                "seed {seed} {id}: abort left text modified ({err})"
            );
            assert_eq!(ks.live_updates().count(), 0, "seed {seed} {id}");
            let verified = events.named("apply.rollback_verified");
            assert!(!verified.is_empty(), "seed {seed} {id}: no rollback event");
            assert!(
                verified
                    .iter()
                    .all(|e| e.field("restored").and_then(|v| v.as_bool()) == Some(true)),
                "seed {seed} {id}: rollback verification failed"
            );
            // Abandonments must carry the per-attempt delay trail.
            let attempts = events.named("apply.stop_machine").len() as u32;
            if matches!(err, ksplice_core::ApplyError::NotQuiescent { .. }) {
                let delays = events.named("apply.retry_delay");
                assert_eq!(
                    delays.len() as u32 + 1,
                    schedule.policy.max_attempts,
                    "seed {seed} {id}"
                );
                for (i, e) in delays.iter().enumerate() {
                    assert_eq!(
                        e.u64_field("steps"),
                        Some(schedule.policy.delay_steps),
                        "seed {seed} {id}: delay {i} off schedule"
                    );
                }
            }
            kernel.run(5_000);
            assert!(
                kernel.oopses.is_empty(),
                "seed {seed} {id}: oops after clean abort"
            );
            (abort_kind(&err), attempts)
        }
    }
}

fn abort_kind(err: &ksplice_core::ApplyError) -> &'static str {
    match err {
        ksplice_core::ApplyError::NotQuiescent { .. } => "abort:not-quiescent",
        ksplice_core::ApplyError::Link(_) => "abort:link",
        ksplice_core::ApplyError::Match(_) => "abort:run-pre-mismatch",
        _ => "abort:other",
    }
}

fn fault_sites(schedule: &Schedule) -> String {
    let mut sites: Vec<String> = schedule.faults.iter().map(|f| f.to_string()).collect();
    sites.sort();
    sites.join("+")
}

#[test]
fn chaos_sweep_every_outcome_is_clean() {
    let fx = fixture();
    let mut rows: Vec<(u32, String, &'static str, u32)> = Vec::new();
    for cpus in CPUS {
        for seed in 1..=16u64 {
            let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let schedule = draw_schedule(&mut rng);
            for (id, pack) in &fx.packs {
                let (outcome, attempts) = run_schedule(&fx, cpus, id, pack, seed, &schedule);
                rows.push((cpus, fault_sites(&schedule), outcome, attempts));
            }
        }
        // The sweep must actually exercise both halves of the contract.
        let at_n = || rows.iter().filter(|r| r.0 == cpus);
        assert!(
            at_n().any(|r| r.2 == "success"),
            "sweep produced no successes at {cpus} vCPUs"
        );
        assert!(
            at_n().any(|r| r.2.starts_with("abort")),
            "sweep produced no aborts at {cpus} vCPUs"
        );
    }
    // Fault site × outcome summary: runs and max attempts per vCPU count
    // (EXPERIMENTS.md's table; visible with --nocapture).
    let mut counts: std::collections::BTreeMap<(String, &'static str), [(usize, u32); 3]> =
        std::collections::BTreeMap::new();
    for (cpus, sites, outcome, attempts) in &rows {
        let e = counts.entry((sites.clone(), outcome)).or_default();
        let at = &mut e[CPUS.iter().position(|n| n == cpus).unwrap()];
        *at = (at.0 + 1, at.1.max(*attempts));
    }
    println!("| fault schedule | outcome | runs at 1 / 2 / 4 vCPUs | max attempts at 1 / 2 / 4 |");
    println!("|---|---|---|---|");
    for ((sites, outcome), [one, two, four]) in &counts {
        println!(
            "| `{sites}` | {outcome} | {} / {} / {} | {} / {} / {} |",
            one.0, two.0, four.0, one.1, two.1, four.1
        );
    }
}

/// The smoke: one fixed seed per CVE in the subset, exercising the
/// quiescence-abandon, module-load and recovery paths deterministically.
#[test]
fn chaos_smoke_fixed_seed() {
    let fx = fixture();
    let schedules = [
        Schedule {
            faults: vec![Fault::StackBusy { windows: 10 }],
            policy: RetryPolicy::fixed(3, 200),
        },
        Schedule {
            faults: vec![Fault::ModuleLoad { count: 1 }],
            policy: RetryPolicy::default(),
        },
        Schedule {
            faults: vec![
                Fault::StackBusy { windows: 2 },
                Fault::StepJitter { max_steps: 100 },
            ],
            policy: RetryPolicy::fixed(5, 100),
        },
    ];
    for cpus in CPUS {
        for (i, ((id, pack), schedule)) in fx.packs.iter().zip(&schedules).enumerate() {
            let (outcome, _) = run_schedule(&fx, cpus, id, pack, 42 + i as u64, schedule);
            let expected = ["abort:not-quiescent", "abort:link", "success"][i];
            assert_eq!(outcome, expected, "{id} at {cpus} vCPUs");
        }
    }
}

/// Watch window under chaos: an injected probe failure during
/// quarantine must trigger the automatic rollback, and the rollback
/// must leave the kernel's text byte-identical to its pre-apply state
/// and healthy enough that a clean re-apply then commits.
#[test]
fn chaos_probe_fault_rolls_back_checksum_clean() {
    let fx = fixture();
    let (id, pack) = &fx.packs[0];
    let watch = WatchPolicy {
        rounds: 3,
        steps_per_round: 500,
    };
    // A probe that is genuinely healthy: the only failure can come from
    // the armed fault, proving the rollback path, not the probe.
    let healthy = || HealthProbe::Custom {
        name: "always-healthy".to_string(),
        check: Box::new(|_k: &mut Kernel| Ok(())),
    };

    for cpus in CPUS {
        let mut kernel = boot(&fx, cpus, 99);
        kernel.faults.reseed(99);
        kernel.arm_fault(Fault::ProbeFail { count: 1 }).unwrap();
        let text_before = kernel.mem.text_checksum();

        let ring = RingSink::new(512);
        let events = ring.handle();
        let mut tracer = Tracer::new().with_sink(Box::new(ring));
        let mut mgr = UpdateManager::with_watch(watch.clone());
        let mut probes = vec![healthy()];
        let err = mgr
            .apply_watched(
                &mut kernel,
                pack,
                &mut probes,
                &ApplyOptions::default(),
                &mut tracer,
            )
            .expect_err("injected probe fault must fail quarantine");
        assert!(matches!(err, LifecycleError::Quarantine { .. }), "{err}");
        assert_eq!(mgr.state(id), Some(UpdateState::RolledBack));
        assert_eq!(
            kernel.mem.text_checksum(),
            text_before,
            "auto-rollback left text modified at {cpus} vCPUs"
        );
        assert!(!events.named("watch.auto_rollback").is_empty());
        assert!(kernel
            .faults
            .fired()
            .iter()
            .any(|f| f.site == "probe-fail" && f.detail == "always-healthy"));

        // The fault burned itself out; the same pack now applies,
        // survives its full watch window and commits on the very same
        // kernel.
        let mut probes = vec![healthy()];
        mgr.apply_watched(
            &mut kernel,
            pack,
            &mut probes,
            &ApplyOptions::default(),
            &mut tracer,
        )
        .expect("clean re-apply after rollback");
        assert_eq!(mgr.state(id), Some(UpdateState::Committed));
        kernel.run(5_000);
        assert!(
            kernel.oopses.is_empty(),
            "oops after rollback + re-apply at {cpus} vCPUs"
        );
    }
}

/// Undo under chaos: a cleanly applied update, reversed while faults
/// are armed, either reverses cleanly or abandons with text intact.
#[test]
fn chaos_undo_is_clean_too() {
    let fx = fixture();
    let (id, pack) = &fx.packs[0];
    for cpus in CPUS {
        for seed in 60..=71u64 {
            let mut rng = Rng::new(seed);
            let mut kernel = boot(&fx, cpus, seed);
            let mut ks = Ksplice::new();
            ks.apply(&mut kernel, pack, &ApplyOptions::default())
                .unwrap();

            kernel.faults.reseed(seed);
            let windows = 1 + rng.below(6) as u32;
            kernel.arm_fault(Fault::StackBusy { windows }).unwrap();
            let policy = RetryPolicy::fixed(2 + rng.below(3) as u32, 150);
            let text_before = kernel.mem.text_checksum();

            let at = format!("seed {seed} at {cpus} vCPUs");
            match ks.undo_any(&mut kernel, id, &ApplyOptions::with_retry(policy)) {
                Ok(()) => assert_eq!(ks.live_updates().count(), 0, "{at}"),
                Err(e) => {
                    assert!(
                        matches!(e, ksplice_core::UndoError::NotQuiescent { .. }),
                        "{at}: {e}"
                    );
                    assert_eq!(
                        kernel.mem.text_checksum(),
                        text_before,
                        "{at}: undo abandon modified text"
                    );
                    assert_eq!(ks.live_updates().count(), 1, "{at}");
                }
            }
            kernel.run(5_000);
            assert!(kernel.oopses.is_empty(), "{at}");
        }
    }
}
