//! Property tests: KELF serialisation roundtrips and parser totality.

// Gated: the proptest dependency only resolves with registry access.
// Re-add `proptest` to [dev-dependencies] and build with
// `--features proptest-tests` to run this suite.
#![cfg(feature = "proptest-tests")]

use ksplice_object::{
    Binding, Object, Reloc, RelocKind, Section, SectionFlags, SectionKind, SymKind, Symbol,
    SymbolDef,
};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z_][a-z0-9_./]{0,24}"
}

fn arb_flags() -> impl Strategy<Value = SectionFlags> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(alloc, write, exec)| SectionFlags {
        alloc,
        write,
        exec,
    })
}

fn arb_section() -> impl Strategy<Value = Section> {
    (
        arb_name(),
        prop_oneof![
            Just(SectionKind::Progbits),
            Just(SectionKind::Nobits),
            Just(SectionKind::Note)
        ],
        arb_flags(),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::collection::vec(
            (
                0u64..64,
                prop_oneof![
                    Just(RelocKind::Abs64),
                    Just(RelocKind::Abs32),
                    Just(RelocKind::Pcrel32)
                ],
                0usize..8,
                any::<i64>(),
            ),
            0..6,
        ),
    )
        .prop_map(|(name, kind, flags, data, relocs)| {
            let size = if kind == SectionKind::Nobits {
                data.len() as u64 + 100
            } else {
                data.len() as u64
            };
            let data = if kind == SectionKind::Nobits {
                Vec::new()
            } else {
                data
            };
            Section {
                name,
                kind,
                flags,
                align: 16,
                data,
                size,
                relocs: relocs
                    .into_iter()
                    .map(|(offset, kind, symbol, addend)| Reloc {
                        offset,
                        kind,
                        symbol,
                        addend,
                    })
                    .collect(),
            }
        })
}

fn arb_symbol() -> impl Strategy<Value = Symbol> {
    (
        arb_name(),
        any::<bool>(),
        0u8..4,
        proptest::option::of((0usize..4, any::<u64>(), any::<u64>())),
    )
        .prop_map(|(name, global, kind, def)| Symbol {
            name,
            binding: if global {
                Binding::Global
            } else {
                Binding::Local
            },
            kind: match kind {
                0 => SymKind::Func,
                1 => SymKind::Object,
                2 => SymKind::Section,
                _ => SymKind::NoType,
            },
            def: def.map(|(section, offset, size)| SymbolDef {
                section,
                offset,
                size,
            }),
        })
}

fn arb_object() -> impl Strategy<Value = Object> {
    (
        arb_name(),
        proptest::collection::vec(arb_section(), 0..5),
        proptest::collection::vec(arb_symbol(), 0..6),
    )
        .prop_map(|(name, sections, symbols)| Object {
            name,
            sections,
            symbols,
        })
}

proptest! {
    /// Serialisation then parsing reproduces the object exactly.
    #[test]
    fn object_roundtrip(obj in arb_object()) {
        let bytes = obj.to_bytes();
        prop_assert_eq!(Object::parse(&bytes).unwrap(), obj);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Object::parse(&bytes);
    }

    /// Corrupting any single byte of a serialised object either fails to
    /// parse or parses to *something* — never panics.
    #[test]
    fn single_byte_corruption_is_safe(obj in arb_object(), idx in any::<proptest::sample::Index>(), bit in 0u8..8) {
        let mut bytes = obj.to_bytes();
        if !bytes.is_empty() {
            let i = idx.index(bytes.len());
            bytes[i] ^= 1 << bit;
            let _ = Object::parse(&bytes);
        }
    }
}
