//! The parallel evaluation driver must be a pure wall-clock optimisation:
//! whatever `jobs` is, the rendered report — outcome order, per-CVE
//! verdicts, aggregate statistics — is identical to the serial run.

use ksplice_core::{ApplyOptions, Tracer};
use ksplice_eval::{default_eval_jobs, run_full_evaluation, EvalReport};

const ROUNDS: u64 = 2;

fn run_full_evaluation_jobs(stress_rounds: u64, jobs: usize) -> Result<EvalReport, String> {
    run_full_evaluation(
        stress_rounds,
        jobs,
        &ApplyOptions::default(),
        &mut Tracer::disabled(),
    )
}

/// The rendered report minus wall-clock measurements: the stop_machine
/// pause is real measured time and jitters between *any* two runs
/// (serial or not), so equality is asserted on everything else.
fn stable_render(report: &ksplice_eval::EvalReport) -> String {
    report
        .render()
        .lines()
        .filter(|l| !l.starts_with("max stop_machine pause:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn parallel_report_matches_serial_report() {
    let serial = run_full_evaluation_jobs(ROUNDS, 1).expect("serial evaluation");
    let parallel = run_full_evaluation_jobs(ROUNDS, 4).expect("parallel evaluation");
    assert_eq!(stable_render(&serial), stable_render(&parallel));
    // Outcome ordering is deterministic: corpus order, not completion order.
    let ids = |r: &ksplice_eval::EvalReport| -> Vec<&str> {
        r.outcomes.iter().map(|o| o.id).collect()
    };
    assert_eq!(ids(&serial), ids(&parallel));
}

#[test]
fn default_jobs_report_matches_serial_report() {
    let serial = run_full_evaluation_jobs(ROUNDS, 1).expect("serial evaluation");
    let auto = run_full_evaluation_jobs(ROUNDS, default_eval_jobs()).expect("auto evaluation");
    assert_eq!(stable_render(&serial), stable_render(&auto));
}

#[test]
fn oversized_job_count_is_clamped_not_fatal() {
    let report = run_full_evaluation_jobs(0, 10_000).expect("evaluation with huge jobs");
    assert_eq!(report.outcomes.len(), 64);
}
