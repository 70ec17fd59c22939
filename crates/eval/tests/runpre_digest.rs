//! Run-pre matching pinned across commits.
//!
//! For every pack unit of the 64 corpus CVEs, the digest covers what
//! `match_unit_traced` reports against the booted distro kernel — the
//! matched function addresses and run lengths, the recovered bindings
//! and every `runpre.*` counter — and the same for each case of a
//! fixed-seed tamper sweep over the run text: seeded byte flips, and
//! every short branch of the unit pointed backwards by `0x80`, which
//! aims some of them before their own function. A failed match enters
//! the digest as its rendered `MatchError`, so unit, function, offsets,
//! bytes and reason strings are all pinned.
//!
//! `RUNPRE_DIGEST` was recorded in a release build of the walker that
//! rescanned the section's relocation table at every instruction. A
//! drift means the walker changed a verdict, a recovered value, an
//! error or a count, not just its speed.

use std::collections::BTreeMap;

use ksplice_asm::{decode, Instr};
use ksplice_core::{
    create_update_cached, match_unit_traced, BuildCache, CreateOptions, MatchError, Tracer,
    UnitMatch,
};
use ksplice_eval::{base_tree, corpus};
use ksplice_kernel::Kernel;
use ksplice_lang::{build_tree_cached, Options};
use ksplice_object::Object;

/// FNV-1a digest of the corpus match results and the tamper sweep.
const RUNPRE_DIGEST: u64 = 0x9ffd_5af5_3dad_cae8;

/// Seeded byte flips per pack unit.
const FLIPS_PER_UNIT: usize = 6;

/// xorshift64* — tiny deterministic PRNG.
struct Rng(u64);

impl Rng {
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

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so adjacent strings cannot alias.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Matches `helper` and folds the result and its `runpre.*` counters
/// into `h`.
fn fold_match(kernel: &Kernel, helper: &Object, h: &mut Fnv) -> Result<UnitMatch, MatchError> {
    let mut tracer = Tracer::new();
    let result = match_unit_traced(kernel, helper, &BTreeMap::new(), &mut tracer);
    match &result {
        Ok(m) => {
            h.str("ok");
            for (name, f) in &m.fn_addrs {
                h.str(name);
                h.u64(f.run_addr);
                h.u64(f.run_len);
            }
            for (sym, value) in &m.bindings {
                h.str(sym);
                h.u64(*value);
            }
        }
        Err(e) => h.str(&e.to_string()),
    }
    for (name, n) in tracer.counters() {
        if name.starts_with("runpre.") {
            h.str(name);
            h.u64(n);
        }
    }
    result
}

/// Writes `byte` at `addr`, folds the match of `helper` into `h`, and
/// restores the original byte.
fn fold_tampered(kernel: &mut Kernel, helper: &Object, addr: u64, byte: u8, h: &mut Fnv) {
    let saved = kernel.mem.peek(addr, 1).unwrap()[0];
    kernel.mem.poke(addr, &[byte]).unwrap();
    h.u64(addr);
    h.u64(byte as u64);
    let _ = fold_match(kernel, helper, h);
    kernel.mem.poke(addr, &[saved]).unwrap();
}

/// Addresses of the `rel8` displacement of every short branch in the
/// run code of each matched function.
fn short_branch_fields(kernel: &Kernel, m: &UnitMatch) -> Vec<u64> {
    let mut out = Vec::new();
    for f in m.fn_addrs.values() {
        let code = kernel.mem.peek(f.run_addr, f.run_len).unwrap();
        let mut at = 0;
        while let Ok((instr, len)) = decode(&code[at..]) {
            if matches!(instr, Instr::Jmp8(_) | Instr::Jcc8(..)) {
                // The rel8 field follows the opcode byte.
                out.push(f.run_addr + (at + 1) as u64);
            }
            at += len;
            if at >= code.len() {
                break;
            }
        }
    }
    out
}

#[test]
fn corpus_matches_and_tamper_sweep_reproduce_the_pinned_digest() {
    let cache = BuildCache::new();
    let base = base_tree();
    let (image, _) = build_tree_cached(&base, &Options::distro(), &cache).unwrap();
    let mut kernel = Kernel::boot_image(&image).unwrap();
    let text = kernel.mem.text_checksum();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut rng = Rng(0x2009_e05e);
    let (mut units, mut tampers) = (0, 0);
    for cve in corpus() {
        let opts = CreateOptions {
            accept_data_changes: cve.needs_custom_code(),
            ..CreateOptions::default()
        };
        let (pack, _) = create_update_cached(cve.id, &base, &cve.full_patch_text(), &opts, &cache)
            .unwrap_or_else(|e| panic!("{}: create: {e}", cve.id));
        for unit in &pack.units {
            units += 1;
            h.str(cve.id);
            h.str(&unit.unit);
            let m = fold_match(&kernel, &unit.helper, &mut h)
                .unwrap_or_else(|e| panic!("{} {}: {e}", cve.id, unit.unit));
            let fns: Vec<_> = m.fn_addrs.values().copied().collect();
            for _ in 0..FLIPS_PER_UNIT {
                let f = fns[rng.below(fns.len() as u64) as usize];
                let addr = f.run_addr + rng.below(f.run_len);
                let flip = 1 + rng.below(255) as u8;
                let byte = kernel.mem.peek(addr, 1).unwrap()[0] ^ flip;
                fold_tampered(&mut kernel, &unit.helper, addr, byte, &mut h);
                tampers += 1;
            }
            for addr in short_branch_fields(&kernel, &m) {
                fold_tampered(&mut kernel, &unit.helper, addr, 0x80, &mut h);
                tampers += 1;
            }
        }
    }
    assert_eq!(kernel.mem.text_checksum(), text, "every tamper restored");
    assert!(units >= 64, "{units} units");
    assert!(tampers >= 64 * FLIPS_PER_UNIT, "{tampers} tamper cases");
    assert_eq!(
        h.0, RUNPRE_DIGEST,
        "run-pre results drifted: digest {:#018x} over {units} units and {tampers} tamper cases",
        h.0
    );
}
