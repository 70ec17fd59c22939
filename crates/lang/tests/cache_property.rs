//! Property test for the incremental build cache: for randomly generated
//! source trees and random edit sequences, a build served through a warm
//! (and then invalidated) cache is byte-identical to a cold build of the
//! same tree.
//!
//! Runs unconditionally — randomness comes from a hand-rolled xorshift64*
//! generator with fixed seeds, so the suite is deterministic and needs no
//! registry-only dependency.

use ksplice_lang::{build_tree, build_tree_cached, BuildCache, Options, SourceTree};
use ksplice_object::ObjectSet;

/// Every object's KELF bytes, in the set's sorted unit order.
fn kelf_bytes(set: &ObjectSet) -> Vec<Vec<u8>> {
    set.iter().map(|(_, obj)| obj.to_bytes()).collect()
}

/// xorshift64* — tiny deterministic PRNG, good enough for tree shapes.
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

/// A small valid `.kc` unit whose body depends on the generator state.
fn gen_kc(rng: &mut Rng, i: u64) -> String {
    let imm = rng.below(100);
    let reps = 1 + rng.below(6);
    let op = match rng.below(3) {
        0 => "+",
        1 => "-",
        _ => "*",
    };
    format!(
        "int fn{i}(int a, int b) {{\n\
         \x20   int k;\n\
         \x20   int acc;\n\
         \x20   acc = a;\n\
         \x20   for (k = 0; k < {reps}; k = k + 1) {{\n\
         \x20       acc = acc {op} b + {imm};\n\
         \x20   }}\n\
         \x20   return acc;\n\
         }}\n"
    )
}

/// A small valid `.ks` unit.
fn gen_ks(rng: &mut Rng, i: u64) -> String {
    let imm = rng.below(64);
    format!("asm_entry{i}:\n    mov r0, {imm}\n    ret\n")
}

/// A random tree: a header, 1–5 `.kc` units and 0–2 `.ks` units.
fn gen_tree(rng: &mut Rng) -> SourceTree {
    let mut tree = SourceTree::new();
    let pad = rng.below(4);
    tree.insert(
        "include/defs.kh",
        &format!("struct rec {{ int a; int b; int pad{pad}; }};"),
    );
    for i in 0..1 + rng.below(5) {
        tree.insert(&format!("sub/u{i}.kc"), &gen_kc(rng, i));
    }
    for i in 0..rng.below(3) {
        tree.insert(&format!("arch/a{i}.ks"), &gen_ks(rng, i));
    }
    tree
}

/// Applies one random edit: rewrite a unit, add a unit, or change the
/// header (invalidating every `.kc`).
fn mutate(rng: &mut Rng, tree: &mut SourceTree) {
    match rng.below(4) {
        0 => {
            let paths: Vec<String> = tree
                .paths()
                .filter(|p| p.ends_with(".kc"))
                .map(String::from)
                .collect();
            let victim = paths[rng.below(paths.len() as u64) as usize].clone();
            let id = 90 + rng.below(10);
            let fresh = gen_kc(rng, id);
            tree.set(&victim, fresh);
        }
        1 => {
            let i = 50 + rng.below(50);
            let unit = gen_kc(rng, i);
            tree.insert(&format!("sub/new{i}.kc"), &unit);
        }
        2 => {
            let pad = rng.below(1000);
            tree.set(
                "include/defs.kh",
                format!("struct rec {{ int a; int b; int pad{pad}; }};"),
            );
        }
        _ => {
            let i = rng.below(10);
            let unit = gen_ks(rng, 70 + i);
            tree.insert(&format!("arch/more{i}.ks"), &unit);
        }
    }
}

#[test]
fn cached_rebuild_matches_cold_build_for_random_edit_sequences() {
    for seed in 1..=40u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut tree = gen_tree(&mut rng);
        let opt = Options::pre_post();
        let cache = BuildCache::new();
        // Warm the cache on the initial tree.
        let (warm0, _) = build_tree_cached(&tree, &opt, &cache).expect("initial build");
        assert_eq!(
            kelf_bytes(&warm0),
            kelf_bytes(&build_tree(&tree, &opt).expect("cold")),
            "seed {seed}: initial cached build diverged"
        );
        // Apply 1–4 edits, rebuilding through the same cache each time.
        for step in 0..1 + rng.below(4) {
            mutate(&mut rng, &mut tree);
            let (warm, stats) = build_tree_cached(&tree, &opt, &cache).expect("cached rebuild");
            let cold = build_tree(&tree, &opt).expect("cold rebuild");
            assert_eq!(
                kelf_bytes(&warm),
                kelf_bytes(&cold),
                "seed {seed} step {step}: cached rebuild diverged from cold build"
            );
            assert!(
                stats.hits + stats.misses >= tree.iter().filter(|(p, _)| !p.ends_with(".kh")).count() as u64,
                "seed {seed} step {step}: stats lost units"
            );
        }
    }
}

#[test]
fn shared_cache_across_distinct_trees_never_cross_contaminates() {
    // One cache serving many unrelated trees (the eval driver's usage
    // pattern) must still reproduce every cold build exactly.
    let cache = BuildCache::new();
    let opt = Options::distro();
    for seed in 100..=120u64 {
        let mut rng = Rng::new(seed);
        let tree = gen_tree(&mut rng);
        let (warm, _) = build_tree_cached(&tree, &opt, &cache).expect("cached");
        let cold = build_tree(&tree, &opt).expect("cold");
        assert_eq!(kelf_bytes(&warm), kelf_bytes(&cold), "seed {seed} diverged");
    }
}
