//! Property tests on run-pre matching: for generated kernels, the pre
//! build always matches the freshly booted run kernel, and tampering
//! with the run text never panics the matcher.
//!
//! Randomness comes from the repo's seeded xorshift64* generator, so
//! every failure replays from its seed. The tamper sweep is exhaustive
//! where it matters: every byte of `fn0` and every short-branch
//! displacement of the unit, not one random index per case.

use std::collections::BTreeMap;

use ksplice_asm::{decode_len, nop_run_len, pcrel_operand};
use ksplice_core::{match_unit, FnMatch, MatchError, UnitMatch};
use ksplice_kernel::Kernel;
use ksplice_lang::{build_tree, Options, SourceTree};
use ksplice_object::Object;

/// Generated kernels per property.
const CASES: u64 = 24;

/// xorshift64* — tiny deterministic PRNG.
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

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

/// A small random-but-valid kc unit: 1–3 arithmetic functions with
/// loops, branches, shared state and cross-references.
fn gen_unit(rng: &mut Rng) -> String {
    let nfns = rng.range(1, 4) as usize;
    let shapes: Vec<(i64, i64, i64)> = (0..rng.range(1, 4))
        .map(|_| (rng.range(0, 5), rng.range(-20, 20), rng.range(1, 8)))
        .collect();
    let mut src = String::from("int shared_counter;\n");
    for i in 0..nfns {
        let (kind, imm, reps) = shapes[i % shapes.len()];
        src.push_str(&format!("int fn{i}(int a, int b) {{\n"));
        src.push_str("    int i;\n    int acc;\n    acc = a;\n");
        match kind {
            0 => src.push_str(&format!(
                "    for (i = 0; i < {reps}; i = i + 1) {{ acc = acc + b + {imm}; }}\n"
            )),
            1 => src.push_str(&format!(
                "    if (a > b) {{ acc = acc * 2; }} else {{ acc = acc - {imm}; }}\n"
            )),
            2 => src.push_str(
                "    shared_counter = shared_counter + 1;\n    acc = acc + shared_counter;\n",
            ),
            3 if i > 0 => src.push_str(&format!("    acc = acc + fn{}(b, a);\n", i - 1)),
            _ => src.push_str(&format!("    acc = (acc ^ {imm}) & 0xffff;\n")),
        }
        src.push_str("    return acc;\n}\n");
    }
    src
}

/// Boots the distro build of a one-unit tree and builds its pre object.
fn boot_with_pre(path: &str, src: &str) -> (Kernel, Object) {
    let mut tree = SourceTree::new();
    tree.insert(path, src);
    let kernel = Kernel::boot(&tree, &Options::distro()).unwrap();
    let pre = build_tree(&tree, &Options::pre_post()).unwrap();
    let unit = pre.get(path).unwrap().clone();
    (kernel, unit)
}

/// `(rel8 field address, instruction end)` of every short branch in the
/// walked run code of `f`.
fn short_branches(kernel: &Kernel, f: &FnMatch) -> Vec<(u64, u64)> {
    let code = kernel.mem.peek(f.run_addr, f.run_len).unwrap();
    let mut out = Vec::new();
    let mut at = 0;
    while at < code.len() {
        let len = decode_len(&code[at..]).unwrap();
        if let Some(op) = pcrel_operand(&code[at..]).unwrap() {
            if op.field_width == 1 {
                let field = f.run_addr + (at + op.field_offset) as u64;
                out.push((field, f.run_addr + (at + len) as u64));
            }
        }
        at += len;
    }
    out
}

/// Matches with `addr` holding `byte`, then restores the original.
fn match_tampered(
    kernel: &mut Kernel,
    pre: &Object,
    addr: u64,
    byte: u8,
) -> Result<UnitMatch, MatchError> {
    let saved = kernel.mem.peek(addr, 1).unwrap()[0];
    kernel.mem.poke(addr, &[byte]).unwrap();
    let result = match_unit(kernel, pre, &BTreeMap::new());
    kernel.mem.poke(addr, &[saved]).unwrap();
    result
}

/// Identity: the pre build of the same source always matches the
/// booted kernel, for every function, at the kallsyms addresses.
#[test]
fn same_source_always_matches() {
    for seed in 1..=CASES {
        let src = gen_unit(&mut Rng::new(seed));
        let (kernel, pre) = boot_with_pre("gen.kc", &src);
        let m = match_unit(&kernel, &pre, &BTreeMap::new())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        assert!(!m.fn_addrs.is_empty(), "seed {seed}");
        assert_eq!(
            m.fn_addrs.len(),
            src.matches("int fn").count(),
            "seed {seed}"
        );
        for (name, fm) in &m.fn_addrs {
            let k = kernel.syms.lookup_global(name).unwrap();
            assert_eq!(fm.run_addr, k.addr, "seed {seed}: {name}");
        }
    }
}

/// Tamper totality. Flipping the top bit of any byte of `fn0` never
/// panics the matcher: it aborts (the §4.2 guarantee for code bytes),
/// or, when the byte is a relocation field or lies past the walked
/// code, matches the same functions at the same places. Pointing any
/// short branch elsewhere — backwards by 128, before its own function
/// for branches near the entry; forwards by 127, often past the end;
/// or one byte off — aborts with a branch-target mismatch naming the
/// new target, unless the new target is an alignment no-op run that
/// leads to the old one.
#[test]
fn tampering_never_panics() {
    let (mut flips, mut flips_caught, mut branches) = (0, 0, 0);
    for seed in 1..=CASES {
        let src = gen_unit(&mut Rng::new(seed));
        let (mut kernel, pre) = boot_with_pre("gen.kc", &src);
        let clean = match_unit(&kernel, &pre, &BTreeMap::new()).unwrap();
        let sym = kernel.syms.lookup_global("fn0").unwrap();
        let (addr, size) = (sym.addr, sym.size.max(8));
        let walked = clean.fn_addrs["fn0"].run_len;
        for off in 0..size {
            let byte = kernel.mem.peek(addr + off, 1).unwrap()[0] ^ 0x80;
            flips += 1;
            match match_tampered(&mut kernel, &pre, addr + off, byte) {
                Err(_) => flips_caught += 1,
                Ok(m) => {
                    assert_eq!(m.fn_addrs, clean.fn_addrs, "seed {seed} fn0+{off}");
                    if off >= walked {
                        assert_eq!(m.bindings, clean.bindings, "seed {seed} fn0+{off}");
                    }
                }
            }
        }
        for f in clean.fn_addrs.values() {
            for (field, next) in short_branches(&kernel, f) {
                let old = kernel.mem.peek(field, 1).unwrap()[0];
                let old_target = next.wrapping_add(old as i8 as u64);
                for rel in [0x80, 0x7f, old.wrapping_add(1), old.wrapping_sub(1)] {
                    if rel == old {
                        continue;
                    }
                    branches += 1;
                    let target = next.wrapping_add(rel as i8 as u64);
                    match match_tampered(&mut kernel, &pre, field, rel) {
                        Err(MatchError::Mismatch { reason, .. }) => {
                            let want = format!("run branch goes to {target:#x}");
                            assert!(
                                reason.starts_with("branch target mismatch")
                                    && reason.ends_with(&want),
                                "seed {seed} field {field:#x} rel {rel:#04x}: {reason}"
                            );
                        }
                        Err(e) => panic!("seed {seed} field {field:#x} rel {rel:#04x}: {e}"),
                        Ok(m) => {
                            let gap = old_target.wrapping_sub(target);
                            let into_padding = target < old_target
                                && nop_run_len(kernel.mem.peek(target, gap).unwrap(), 0) as u64
                                    == gap;
                            assert!(
                                into_padding,
                                "seed {seed} field {field:#x} rel {rel:#04x}: accepted a moved branch"
                            );
                            assert_eq!(m.fn_addrs, clean.fn_addrs);
                        }
                    }
                }
            }
        }
        // Every tamper was undone: the kernel matches as before.
        let again = match_unit(&kernel, &pre, &BTreeMap::new()).unwrap();
        assert_eq!(
            (again.fn_addrs, again.bindings),
            (clean.fn_addrs, clean.bindings)
        );
    }
    assert!(branches > CASES, "{branches} branch tampers");
    assert!(
        flips_caught * 2 > flips,
        "{flips_caught} of {flips} flips caught"
    );
}

/// A short branch near the entry of `f`, pointed back by 128 bytes,
/// targets an address before the function (here even before the
/// arena). The nop walk toward the mapped target computed
/// `target - run_addr` and overflowed; the walk must instead report
/// the target as not corresponding.
#[test]
fn branch_target_before_the_function_is_a_mismatch() {
    let src = "int f(int a, int b) {\n    int i;\n    int acc;\n    acc = a;\n    \
               if (a > b) { acc = acc * 2; } else { acc = acc - 3; }\n    \
               for (i = 0; i < 5; i = i + 1) { acc = acc + b; }\n    return acc;\n}\n";
    let (mut kernel, pre) = boot_with_pre("t.kc", src);
    let clean = match_unit(&kernel, &pre, &BTreeMap::new()).unwrap();
    let f = clean.fn_addrs["f"];
    for (field, _) in short_branches(&kernel, &f) {
        kernel.mem.poke(field, &[0x80]).unwrap();
    }
    let err = match_unit(&kernel, &pre, &BTreeMap::new()).unwrap_err();
    assert_eq!(
        err,
        MatchError::Mismatch {
            unit: "t.kc".to_string(),
            function: "f".to_string(),
            run_addr: 0xf000_0030,
            pre_offset: 72,
            bytes: None,
            reason: "branch target mismatch: pre+0x53 maps to run 0xf0000080, \
                     run branch goes to 0xeffffffa"
                .to_string(),
        }
    );
}
