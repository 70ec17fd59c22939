//! Property tests: KELF serialisation roundtrips and parser totality.
//!
//! Inputs come from a test-local seeded xorshift64* generator, so every
//! case replays from its seed and the suite runs offline in tier-1. The
//! exhaustive bit-flip and truncation sweep over real compiler output and
//! a corpus update pack lives in `crates/eval/tests/kelf_corruption.rs`,
//! where the base tree and `UpdatePack` are in reach.

use ksplice_object::{
    Binding, Object, Reloc, RelocKind, Section, SectionFlags, SectionKind, SymKind, Symbol,
    SymbolDef,
};

/// Generated objects (or byte strings) per property.
const CASES: usize = 20_000;

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

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        (0..self.below(max_len + 1))
            .map(|_| self.next() as u8)
            .collect()
    }

    /// A name matching `[a-z_][a-z0-9_./]{0,24}`.
    fn name(&mut self) -> String {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_./";
        let mut s = String::new();
        s.push(FIRST[self.below(FIRST.len() as u64) as usize] as char);
        for _ in 0..self.below(25) {
            s.push(REST[self.below(REST.len() as u64) as usize] as char);
        }
        s
    }

    fn section(&mut self) -> Section {
        let name = self.name();
        let kind = [
            SectionKind::Progbits,
            SectionKind::Nobits,
            SectionKind::Note,
        ][self.below(3) as usize];
        let flags = SectionFlags {
            alloc: self.bool(),
            write: self.bool(),
            exec: self.bool(),
        };
        let data = self.bytes(63);
        let relocs = (0..self.below(6))
            .map(|_| Reloc {
                offset: self.below(64),
                kind: [RelocKind::Abs64, RelocKind::Abs32, RelocKind::Pcrel32]
                    [self.below(3) as usize],
                symbol: self.below(8) as usize,
                addend: self.next() as i64,
            })
            .collect();
        let (data, size) = if kind == SectionKind::Nobits {
            (Vec::new(), data.len() as u64 + 100)
        } else {
            let size = data.len() as u64;
            (data, size)
        };
        Section {
            name,
            kind,
            flags,
            align: 16,
            data,
            size,
            relocs,
        }
    }

    fn symbol(&mut self) -> Symbol {
        let name = self.name();
        let binding = if self.bool() {
            Binding::Global
        } else {
            Binding::Local
        };
        let kind = [
            SymKind::Func,
            SymKind::Object,
            SymKind::Section,
            SymKind::NoType,
        ][self.below(4) as usize];
        let def = self.bool().then(|| SymbolDef {
            section: self.below(4) as usize,
            offset: self.next(),
            size: self.next(),
        });
        Symbol {
            name,
            binding,
            kind,
            def,
        }
    }

    fn object(&mut self) -> Object {
        Object {
            name: self.name(),
            sections: (0..self.below(5)).map(|_| self.section()).collect(),
            symbols: (0..self.below(6)).map(|_| self.symbol()).collect(),
        }
    }
}

/// Serialisation then parsing reproduces the object exactly.
#[test]
fn object_roundtrip() {
    let mut rng = Rng::new(0x0b1e_0001);
    for case in 0..CASES {
        let obj = rng.object();
        assert_eq!(Object::parse(&obj.to_bytes()), Ok(obj), "case {case}");
    }
}

/// The parser never panics on arbitrary input.
#[test]
fn parser_total() {
    let mut rng = Rng::new(0x0b1e_0002);
    for _ in 0..CASES {
        let _ = Object::parse(&rng.bytes(255));
    }
}

/// Corrupting any single bit of a serialised object either fails to
/// parse or parses to *something* — never panics.
#[test]
fn single_bit_corruption_is_safe() {
    let mut rng = Rng::new(0x0b1e_0003);
    for _ in 0..CASES {
        let mut bytes = rng.object().to_bytes();
        let i = rng.below(bytes.len() as u64) as usize;
        bytes[i] ^= 1 << rng.below(8);
        let _ = Object::parse(&bytes);
    }
}
