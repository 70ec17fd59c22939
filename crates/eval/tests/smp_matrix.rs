//! The SMP smoke matrix: the update pipeline's contract at N = 1, 2, 4.
//!
//! The chaos suite runs each of its tests at every vCPU count; this
//! test pins one fixed-seed corpus apply/undo cycle per topology, plus
//! the headline SMP claim: at
//! N ≥ 2 a seeded background load produces a *real* nonzero
//! `NotQuiescent` abort rate (threads genuinely caught inside
//! `sys_open` by the §5.2 stack check), and the retry policy drains
//! every abort to a successful capture.

use ksplice_core::trace::Tracer;
use ksplice_core::{ApplyOptions, BuildCache, Ksplice, RetryPolicy, SmpConfig};
use ksplice_eval::{base_tree, corpus, run_quiescence_load, SmpLoadConfig};
use ksplice_kernel::Kernel;
use ksplice_lang::{build_tree_cached, Options};

/// One full apply → exploit-closed → undo cycle per vCPU count. The
/// observable outcome must be identical at every N: same attempt
/// count, same sites, clean undo.
#[test]
fn corpus_cycle_is_invariant_across_the_matrix() {
    let base = base_tree();
    let cache = BuildCache::new();
    let (image, _) = build_tree_cached(&base, &Options::distro(), &cache).unwrap();
    let case = corpus()
        .into_iter()
        .find(|c| c.id == "CVE-2006-2451")
        .unwrap();
    let (pack, _) = ksplice_core::create_update_cached_traced(
        case.id,
        &base,
        &case.patch_text(),
        &ksplice_core::CreateOptions::default(),
        &cache,
        &mut Tracer::disabled(),
    )
    .unwrap();

    let mut outcomes = Vec::new();
    for cpus in [1u32, 2, 4] {
        let mut kernel = Kernel::boot_image(&image).unwrap();
        let smp = SmpConfig::with_cpus(cpus);
        if cpus > 1 {
            kernel.configure_smp(smp.clone());
        }
        let opts = ApplyOptions {
            retry: RetryPolicy::default(),
            smp,
        };
        let mut ks = Ksplice::new();
        let report = ks
            .apply_traced(&mut kernel, &pack, &opts, &mut Tracer::disabled())
            .unwrap_or_else(|e| panic!("cpus={cpus}: apply failed: {e}"));
        outcomes.push((report.attempts, report.sites));
        kernel.run(5_000);
        assert!(kernel.oopses.is_empty(), "cpus={cpus}: oops under load");
        ks.undo_any_traced(&mut kernel, case.id, &opts, &mut Tracer::disabled())
            .unwrap_or_else(|e| panic!("cpus={cpus}: undo failed: {e}"));
        assert_eq!(ks.live_updates().count(), 0, "cpus={cpus}");
    }
    assert_eq!(outcomes[0], outcomes[1], "N=2 diverged from N=1");
    assert_eq!(outcomes[0], outcomes[2], "N=4 diverged from N=1");
}

/// The acceptance claim: under seeded background load at N = 4, some
/// single-attempt captures genuinely abort `NotQuiescent`, and the
/// retry policy drains every one of them to success. An idle machine
/// captures first try.
#[test]
fn loaded_aborts_are_real_and_drain_to_success() {
    let cfg = SmpLoadConfig {
        load_levels: vec![0, 6],
        probes: 8,
    };
    let report = run_quiescence_load(&cfg, &mut Tracer::disabled()).expect("sweep");
    assert_eq!(report.cpus, 4);
    assert_eq!(report.rows[0].aborts, 0, "idle machine captures first try");
    assert!(
        report.rows[1].aborts > 0,
        "load 6 never produced a real NotQuiescent abort"
    );
    // Every abort was drained: each probe still ended in a successful
    // window, whose rendezvous pause is on record.
    assert_eq!(report.rows[1].pause_steps.len() as u64, cfg.probes);
    assert!(report.rows[1].pause_steps.iter().all(|&p| p > 0));
    assert!(report.rows[1].drain_attempts > 0);
}

/// The default sweep reproduces the EXPERIMENTS "Quiescence under load"
/// table exactly: abort rate monotone in load, the idle level never
/// aborts, and the pause saturating at `cpus × quantum` steps.
#[test]
fn default_sweep_reproduces_the_quiescence_table() {
    let report = run_quiescence_load(&SmpLoadConfig::default(), &mut Tracer::disabled()).unwrap();
    assert_eq!(
        report.render(),
        concat!(
            "quiescence under load: CVE-2005-1263 (sys_open) on 4 vCPUs\n",
            "  LOAD   PROBES  ABORTS  ABORT-RATE      PAUSE min/med/max   DRAIN\n",
            "  0          20       0          0%              0/0/0       0\n",
            "  1          20       1          5%             64/64/64       1\n",
            "  2          20       5         25%            128/128/128       5\n",
            "  4          20       8         40%            256/256/256      19\n",
            "  8          20      15         75%            256/256/256      58\n",
        )
    );
}
