//! The paper's full evaluation: all 64 CVEs end to end (§6.3).

use ksplice_core::{ApplyOptions, Tracer};
use ksplice_eval::{default_eval_jobs, run_full_evaluation, VulnClass};

#[test]
fn all_64_cves_hot_patch_successfully() {
    let report = run_full_evaluation(
        8,
        default_eval_jobs(),
        &ApplyOptions::default(),
        &mut Tracer::disabled(),
    )
    .expect("evaluation infrastructure");
    println!("{}", report.render());

    // Headline numbers (paper §6.3).
    assert_eq!(report.outcomes.len(), 64);
    assert_eq!(report.applied_total(), 64, "all 64 must apply");
    assert_eq!(
        report.applied_without_new_code(),
        56,
        "56 of 64 with no new code"
    );
    assert!((report.average_custom_lines() - 16.5).abs() < 0.1);

    // Exploits: worked before, dead after (4 of 4).
    let exploit_outcomes: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.exploit_before.is_some())
        .collect();
    assert_eq!(exploit_outcomes.len(), 4);
    for o in exploit_outcomes {
        assert_eq!(o.exploit_before, Some(true), "{}", o.id);
        assert_eq!(o.exploit_after, Some(false), "{}", o.id);
    }

    // No stress-test regressions, every update reversible.
    for o in &report.outcomes {
        assert!(o.stress_ok, "{}: stress failed", o.id);
        assert!(o.undo_ok, "{}: undo failed", o.id);
        assert!(o.replaced_fns > 0 || o.needs_custom_code, "{}", o.id);
        // §5.1: helper (whole units) and primary both ship.
        assert!(o.helper_bytes > 0 && o.primary_bytes > 0, "{}", o.id);
    }

    // Figure 3 shape: most patches are small.
    let fig = report.figure3();
    let small = fig[0].1; // 1–5 lines
    let le15: usize = fig[..3].iter().map(|(_, n)| n).sum();
    assert!(small >= 30, "paper: 35 of 64 within 5 lines; got {small}");
    assert!(le15 >= 45, "paper: 53 of 64 within 15 lines; got {le15}");
    assert_eq!(fig.iter().map(|(_, n)| n).sum::<usize>(), 64);

    // §6.3 statistics.
    assert_eq!(report.corpus_stats.touching_inlined.len(), 20);
    assert_eq!(report.corpus_stats.touching_inline_keyword.len(), 4);
    assert_eq!(report.corpus_stats.touching_ambiguous.len(), 5);
}

#[test]
fn vulnerability_class_mix() {
    let c = ksplice_eval::corpus();
    let p = c
        .iter()
        .filter(|e| e.class == VulnClass::PrivilegeEscalation)
        .count();
    let i = c.len() - p;
    // Paper: about two-thirds privilege escalation, one-third disclosure.
    assert!(p * 10 >= c.len() * 6 && p * 10 <= c.len() * 7, "{p} vs {i}");
}
