//! The quiescence-risk acceptance bar: the profiler's top-ranked
//! function (highest on-stack frequency under the stress workload) must
//! be the function contributing the most observed `NotQuiescent`
//! stop_machine aborts, measured with real single-attempt applies.

use ksplice_core::trace::Tracer;
use ksplice_eval::{quiescence_correlation, run_profile, ProfileConfig};

#[test]
fn quiescence_ranking_matches_observed_abort_rates() {
    let cfg = ProfileConfig {
        rounds: 30,
        ..ProfileConfig::default()
    };
    let mut tracer = Tracer::new();
    let corr = quiescence_correlation(&cfg, &mut tracer).unwrap();

    // Real aborts were observed at all: the workload genuinely collides
    // with the §5.2 stack check.
    let total_real: u64 = corr.aborts.iter().map(|a| a.real_aborts).sum();
    assert!(total_real > 0, "no real aborts observed\n{}", corr.render());

    // The headline claim: sampled on-stack frequency predicts observed
    // abort contribution.
    assert!(corr.rankings_agree(), "{}", corr.render());

    // The counters the correlation run is expected to leave behind.
    assert!(tracer.counter("profile.aborts_observed") >= total_real);
    assert!(tracer.counter("apply.stop_machine_attempts") > 0);
}

#[test]
fn a_risk_side_cut_short_by_the_sample_cap_says_what_it_dropped() {
    let capped = ProfileConfig {
        max_samples: 10,
        rounds: 4,
        ..ProfileConfig::default()
    };
    let mut tracer = Tracer::disabled();
    // The risk side samples the same boot and workload as the profile's
    // pre-apply phase, so it drops as many samples.
    let dropped = run_profile("CVE-2005-1263", &capped, &mut tracer)
        .unwrap()
        .pre
        .dropped;
    assert!(dropped > 0);
    let table = quiescence_correlation(&capped, &mut tracer)
        .unwrap()
        .render();
    let line = format!("(ON-STACK: {dropped} samples dropped over the cap)\n");
    assert!(table.contains(&line), "{table}");
    // Uncapped, the table gains no line.
    let uncapped = ProfileConfig {
        rounds: 4,
        ..ProfileConfig::default()
    };
    let table = quiescence_correlation(&uncapped, &mut tracer)
        .unwrap()
        .render();
    assert!(!table.contains("dropped"), "{table}");
}
