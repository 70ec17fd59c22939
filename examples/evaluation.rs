//! The paper's §6 evaluation, end to end.
//!
//! Run with: `cargo run --release --example evaluation`
//!
//! Boots the 27-unit evaluation kernel once per CVE, hot-patches all 64
//! security vulnerabilities, runs the correctness-checking stress test
//! under each, verifies the four public exploits die, reverses every
//! update, and prints the paper's tables: the headline 56-of-64 /
//! 64-of-64 numbers, Figure 3, Table 1, and the §6.3 statistics.

use ksplice::core::{ApplyOptions, Tracer};
use ksplice::eval::{default_eval_jobs, run_full_evaluation};

fn main() {
    let rounds = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    eprintln!("running all 64 CVEs end to end (stress rounds per CVE: {rounds})...");
    let evaluation = run_full_evaluation(
        rounds,
        default_eval_jobs(),
        &ApplyOptions::default(),
        &mut Tracer::disabled(),
    );
    match evaluation {
        Ok(report) => println!("{}", report.render()),
        Err(e) => {
            eprintln!("evaluation failed: {e}");
            std::process::exit(1);
        }
    }
}
