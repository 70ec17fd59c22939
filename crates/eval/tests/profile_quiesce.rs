//! The quiescence-risk acceptance bar: the profiler's top-ranked
//! function (highest on-stack frequency under the stress workload) must
//! be the function contributing the most observed `NotQuiescent`
//! stop_machine aborts, measured with real single-attempt applies under
//! a seeded busy-stack fault plan.

use ksplice_eval::{quiescence_correlation, ProfileConfig};
use ksplice_core::trace::Tracer;

#[test]
fn quiescence_ranking_matches_observed_abort_rates() {
    let cfg = ProfileConfig {
        rounds: 30,
        ..ProfileConfig::default()
    };
    let mut tracer = Tracer::new();
    let corr = quiescence_correlation(&cfg, &mut tracer).unwrap();

    // Every target absorbed its share of the seeded fault plan — the
    // synthetic windows exercise the abandon machinery equally, so they
    // cannot bias the ranking.
    assert!(
        corr.aborts.iter().all(|a| a.synthetic_aborts == 3),
        "{}",
        corr.render()
    );
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
