//! Cross-commit pin of everything the `kc` compiler produces.
//!
//! Ksplice's pre-post differencing (paper §3) needs a compiler that turns
//! the same source into the same bytes, so a refactor of the compiler
//! (its traversals, its typing rules, its inliner) must leave every
//! object byte, inline decision, mutant and drifted tree unchanged. This
//! test folds all of them, in a fixed order, into one FNV-1a digest:
//!
//! 1. every object of the base tree built under `distro`, `pre_post` and
//!    `distro` with `cc_version: 2`;
//! 2. the base tree's `pre_post` inline report;
//! 3. the `pre_post` objects of all 64 CVEs' patched trees (with custom
//!    code), built through one shared cache;
//! 4. 256 seeded mutants of the canonical tree's `.kc` units: the
//!    mutation list, the pretty-printed unit, and its `pre_post` object
//!    or compile error (against the tree's headers);
//! 5. the drift generator at D1-D4 x 3 seeds: the rendered log, every
//!    drifted source file, and the `distro` and `pre_post` builds or the
//!    build error.
//!
//! `COMPILE_DIGEST` was recorded before the compiler's traversals and
//! typing were folded into `visit.rs` and `Sema`, in debug and release.

use ksplice_eval::{base_tree, canonical_base_tree, corpus};
use ksplice_lang::{
    build_tree, build_tree_cached, compile_unit_with, generate_drift, generate_mutant,
    parse_headers, parse_unit, pretty_unit, tree_inline_report, BuildCache, CompileError,
    DriftLevel, Fingerprint, FuzzRng, Options, SourceTree,
};
use ksplice_object::ObjectSet;

const COMPILE_DIGEST: u64 = 0x8c3f_0090_1ead_49d7;

const MUTANTS: u64 = 256;
const DRIFT_SEEDS: [u64; 3] = [1, 7, 42];

fn fold_objects(fp: &mut Fingerprint, built: &Result<ObjectSet, CompileError>) {
    match built {
        Ok(set) => {
            fp.u64_field(set.len() as u64);
            for (name, obj) in set.iter() {
                fp.str_field(name).field(&obj.to_bytes());
            }
        }
        Err(e) => {
            fp.str_field("error").str_field(&e.to_string());
        }
    }
}

fn cc2() -> Options {
    Options {
        cc_version: 2,
        ..Options::distro()
    }
}

#[test]
fn compiler_output_is_pinned() {
    let mut fp = Fingerprint::new();
    let base = base_tree();

    // 1. The base tree under the three option sets.
    for opt in [Options::distro(), Options::pre_post(), cc2()] {
        fold_objects(&mut fp, &build_tree(&base, &opt));
    }

    // 2. Inline decisions.
    let report = tree_inline_report(&base, &Options::pre_post()).expect("inline report");
    fp.str_field(&format!("{report:?}"));

    // 3. Every corpus update's post tree.
    let cache = BuildCache::new();
    for case in corpus() {
        let built = build_tree_cached(
            &case.patched_tree_with_custom(),
            &Options::pre_post(),
            &cache,
        )
        .map(|(set, _)| set);
        fp.str_field(case.id);
        fold_objects(&mut fp, &built);
    }

    // 4. Seeded mutants of the canonical tree.
    let canon = canonical_base_tree();
    let headers = parse_headers(&canon).expect("canonical headers");
    let units: Vec<(String, ksplice_lang::Unit)> = canon
        .iter()
        .filter(|(path, _)| path.ends_with(".kc"))
        .map(|(path, src)| {
            (
                path.to_string(),
                parse_unit(path, src).expect("canonical unit"),
            )
        })
        .collect();
    for i in 0..MUTANTS {
        let mut rng = FuzzRng::new(0x5eed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (path, unit) = &units[rng.below(units.len() as u64) as usize];
        fp.str_field(path);
        let Some((mutant, mutations)) = generate_mutant(unit, &mut rng, 3) else {
            fp.str_field("no-mutation");
            continue;
        };
        for m in &mutations {
            fp.str_field(&m.to_string());
        }
        let text = pretty_unit(&mutant);
        fp.str_field(&text);
        match compile_unit_with(path, &text, &Options::pre_post(), &headers) {
            Ok(obj) => fp.field(&obj.to_bytes()),
            Err(e) => fp.str_field("error").str_field(&e.to_string()),
        };
    }

    // 5. Drifted trees.
    let mut victims: Vec<String> = corpus()
        .iter()
        .flat_map(|c| c.edited_fns.iter().map(|f| f.to_string()))
        .collect();
    victims.sort();
    victims.dedup();
    for level in DriftLevel::ALL {
        for seed in DRIFT_SEEDS {
            match generate_drift(&canon, level, seed, &victims) {
                Ok((tree, log)) => {
                    fp.str_field(&log.render());
                    fold_tree(&mut fp, &tree);
                    for opt in [Options::distro(), Options::pre_post()] {
                        fold_objects(&mut fp, &build_tree(&tree, &opt));
                    }
                }
                Err(e) => {
                    fp.str_field("drift-error").str_field(&e);
                }
            }
        }
    }

    assert_eq!(
        fp.finish(),
        COMPILE_DIGEST,
        "compiler output changed: digest {:#018x}",
        fp.finish()
    );
}

fn fold_tree(fp: &mut Fingerprint, tree: &SourceTree) {
    fp.u64_field(tree.len() as u64);
    for (path, src) in tree.iter() {
        fp.str_field(path).str_field(src);
    }
}
