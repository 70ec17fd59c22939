//! Evaluation substrate for the Ksplice reproduction (paper §6).

#![deny(missing_docs)]

pub mod corpus;
pub mod driver;
pub mod exploits;
pub mod fuzz;
pub mod lifecycle;
pub mod pool;
pub mod profile;
pub mod rebase;
pub mod smp;
pub mod stats;
pub mod stress;
pub mod tree;

pub use corpus::{corpus, find_cve, CustomCode, CustomReason, Cve, Edit, VulnClass};
pub use lifecycle::{exploit_probe, non_lifo_reversal_sweep, shippable_update, DISJOINT_STACK};
pub use driver::{run_cve, run_full_evaluation, CveOutcome, EvalReport};
pub use exploits::run_exploit;
pub use fuzz::{
    load_regression_dir, run_campaign, CampaignReport, FuzzConfig, FuzzContext, MutantRecord,
    MutatorStats, Outcome, RegressionCase, Workload,
};
pub use ksplice_core::diff_trees;
pub use stats::{corpus_stats, figure3_buckets, symbol_stats, CorpusStats, SymbolStats};
pub use pool::{default_eval_jobs, par_map};
pub use profile::{
    quiescence_correlation, run_profile, ProfileConfig, ProfilePhase, ProfileReport,
    QuiesceCorrelation, TargetAborts, QUIESCE_TARGET_CVES,
};
pub use rebase::{run_rebase_matrix, RebaseCell, RebaseMatrix, RebaseMatrixConfig};
pub use smp::{run_quiescence_load, LoadRow, QuiescenceReport, SmpLoadConfig};
pub use stress::{load_stress, load_workload, run_stress, spawn_stress, STRESS_SRC};
pub use tree::{base_tree, canonical_base_tree, BASE_FILES};
