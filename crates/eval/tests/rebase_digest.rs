//! The whole rebase report pinned across commits.
//!
//! Ksplice's safety rule is that an update lands on exactly the code it
//! was built for, or refuses (paper §4); the rebase stack carries that
//! rule across source drift. `crates/eval/pins/rebase-matrix.json` pins
//! only each cell's verdict, strategies and reason count. This test pins
//! everything else a rebase decides, over drift seeds `0xd41f_75ee` (the
//! matrix pin's) and 7, at D1-D4, for all 64 corpus CVEs, with patches
//! and create options built the way `run_rebase_matrix` builds them.
//!
//! Two FNV-1a digests:
//!
//! - the **verdict digest** folds each level's rendered drift log and,
//!   per cell, the status, the reuse and verification flags, every
//!   port's `(path, hunk, strategy)`, the learned renames and moves, the
//!   reason texts, the rebased patch and the shipped pack's bytes;
//! - the **ledger digest** folds each port's `func` and the report's
//!   `ported_fns`: which drifted function every landed hunk is credited
//!   to.
//!
//! Both were recorded in debug and release before the port ladder,
//! function index and drift log were folded. The ledger digest was
//! re-recorded once, when a landed hunk began to be credited by its
//! first changed line (the rule the base side already used) instead of
//! the first line of its anchor; the verdict digest did not move.

use ksplice_core::{rebase_update, BuildCache, CreateOptions, RebaseOptions, Tracer};
use ksplice_eval::{canonical_base_tree, corpus, diff_trees};
use ksplice_lang::{canonicalize_tree, generate_drift, DriftLevel, Fingerprint};

const VERDICT_DIGEST: u64 = 0xf032_44de_1715_c239;
const LEDGER_DIGEST: u64 = 0x8760_54c4_d5e8_21c8;

const DRIFT_SEEDS: [u64; 2] = [0xd41f_75ee, 7];

#[test]
fn rebase_reports_reproduce_the_pinned_digests() {
    let canon = canonical_base_tree();
    let cases = corpus();
    let mut victims: Vec<String> = cases
        .iter()
        .flat_map(|c| c.edited_fns.iter().map(|f| f.to_string()))
        .collect();
    victims.sort();
    victims.dedup();
    let patches: Vec<(String, CreateOptions)> = cases
        .iter()
        .map(|case| {
            let patched = if case.needs_custom_code() {
                case.patched_tree_with_custom()
            } else {
                case.patched_tree()
            };
            let opts = CreateOptions {
                accept_data_changes: case.needs_custom_code(),
                ..CreateOptions::default()
            };
            (diff_trees(&canon, &canonicalize_tree(&patched)), opts)
        })
        .collect();

    let cache = BuildCache::new();
    let (mut verdict, mut ledger) = (Fingerprint::new(), Fingerprint::new());
    let mut cells = 0;
    for seed in DRIFT_SEEDS {
        for level in DriftLevel::ALL {
            let (tree, log) = generate_drift(&canon, level, seed, &victims).unwrap();
            verdict.str_field(&log.render());
            for (case, (patch, create)) in cases.iter().zip(&patches) {
                let opts = RebaseOptions {
                    create: create.clone(),
                };
                let (report, pack) = rebase_update(
                    case.id,
                    &canon,
                    patch,
                    &tree,
                    &opts,
                    &cache,
                    &mut Tracer::disabled(),
                )
                .unwrap_or_else(|e| panic!("{} @ {level} seed {seed:#x}: {e}", case.id));
                cells += 1;

                verdict
                    .str_field(case.id)
                    .str_field(report.status.as_str())
                    .u64_field(report.reused_pack as u64)
                    .u64_field(report.verified as u64)
                    .u64_field(report.ports.len() as u64);
                for p in &report.ports {
                    verdict
                        .str_field(&p.path)
                        .u64_field(p.hunk as u64)
                        .str_field(p.strategy);
                }
                verdict.u64_field(report.renames.len() as u64);
                for (old, new) in &report.renames {
                    verdict.str_field(old).str_field(new);
                }
                verdict.u64_field(report.moves.len() as u64);
                for (f, from, to) in &report.moves {
                    verdict.str_field(f).str_field(from).str_field(to);
                }
                verdict.u64_field(report.reasons.len() as u64);
                for r in &report.reasons {
                    verdict.str_field(r);
                }
                verdict.str_field(report.patch_text.as_deref().unwrap_or("<no patch>"));
                match &pack {
                    Some(pack) => verdict.field(&pack.to_bytes()),
                    None => verdict.str_field("<no pack>"),
                };

                ledger
                    .str_field(case.id)
                    .u64_field(report.ports.len() as u64);
                for p in &report.ports {
                    ledger.str_field(&p.func);
                }
                ledger.u64_field(report.ported_fns.len() as u64);
                for f in &report.ported_fns {
                    ledger.str_field(f);
                }
            }
        }
    }
    assert_eq!(cells, DRIFT_SEEDS.len() * DriftLevel::ALL.len() * 64);
    assert_eq!(
        verdict.finish(),
        VERDICT_DIGEST,
        "rebase verdicts drifted: digest {:#018x} over {cells} cells",
        verdict.finish()
    );
    assert_eq!(
        ledger.finish(),
        LEDGER_DIGEST,
        "ported-function ledger drifted: digest {:#018x} over {cells} cells",
        ledger.finish()
    );
}
