//! Object-level tests of the compiler's output: section shapes, symbol
//! naming, relocation discipline — the contract the Ksplice core relies
//! on.

use ksplice_lang::{build_tree, compile_unit, Options, SourceTree};
use ksplice_object::{Binding, RelocKind, SymKind};

#[test]
fn data_sections_mode_gives_per_item_sections() {
    let obj = compile_unit(
        "m.kc",
        "int counter = 5;\
         static int debug;\
         byte msg[8] = \"hi\";\
         int get() { return counter + debug; }",
        &Options::pre_post(),
    )
    .unwrap();
    assert!(obj.section_by_name(".data.counter").is_some());
    assert!(obj.section_by_name(".bss.debug").is_some());
    assert!(obj.section_by_name(".data.msg").is_some());
    let (_, sym) = obj.symbol_by_name("debug").unwrap();
    assert_eq!(sym.binding, Binding::Local);
    let (_, sym) = obj.symbol_by_name("counter").unwrap();
    assert_eq!(sym.binding, Binding::Global);
    assert_eq!(sym.kind, SymKind::Object);
}

#[test]
fn merged_mode_pools_data() {
    let obj = compile_unit(
        "m.kc",
        "int counter = 5; static int debug; int get() { return counter + debug; }",
        &Options::distro(),
    )
    .unwrap();
    assert!(obj.section_by_name(".data").is_some());
    assert!(obj.section_by_name(".bss").is_some());
    assert!(obj.section_by_name(".data.counter").is_none());
}

#[test]
fn static_locals_get_gcc_style_suffixed_symbols() {
    let obj = compile_unit(
        "m.kc",
        "int f() { static int calls; calls = calls + 1; return calls; }\
         int g() { static int calls; calls = calls + 2; return calls; }",
        &Options::pre_post(),
    )
    .unwrap();
    // Two distinct storage symbols, both named like `calls.N`.
    let suffixed: Vec<&str> = obj
        .symbols
        .iter()
        .filter(|s| s.name.starts_with("calls."))
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(suffixed.len(), 2);
    assert_ne!(suffixed[0], suffixed[1]);
}

#[test]
fn cross_unit_calls_are_pcrel_with_conventional_addend() {
    let obj = compile_unit(
        "m.kc",
        "int f(int x) { return helper(x) + 1; }",
        &Options::pre_post(),
    )
    .unwrap();
    let (_, sec) = obj.section_by_name(".text.f").unwrap();
    let call_reloc = sec
        .relocs
        .iter()
        .find(|r| obj.symbols[r.symbol].name == "helper")
        .expect("call relocation");
    assert_eq!(call_reloc.kind, RelocKind::Pcrel32);
    assert_eq!(call_reloc.addend, ksplice_asm::REL32_ADDEND);
}

#[test]
fn data_references_are_abs64() {
    let obj = compile_unit(
        "m.kc",
        "int total; int bump(int n) { total = total + n; return total; }",
        &Options::pre_post(),
    )
    .unwrap();
    let (_, sec) = obj.section_by_name(".text.bump").unwrap();
    assert!(sec
        .relocs
        .iter()
        .any(|r| r.kind == RelocKind::Abs64 && obj.symbols[r.symbol].name == "total"));
}

#[test]
fn monolithic_intra_unit_calls_have_no_relocations() {
    let obj = compile_unit(
        "m.kc",
        "int callee(int x) { int i; int s; s = 0; for (i = 0; i < x; i = i + 1) { s = s + i; } return s; }\
         int caller(int x) { return callee(x) * 2; }",
        &Options::distro(),
    )
    .unwrap();
    let (_, text) = obj.section_by_name(".text").unwrap();
    // The only relocations in a self-contained unit's text are none at
    // all: the intra-unit call resolved at assembly time.
    assert!(text.relocs.is_empty(), "{:?}", text.relocs);
}

/// Names every symbol a relocation of `obj` refers to.
fn reloc_targets(obj: &ksplice_object::Object) -> Vec<&str> {
    obj.sections
        .iter()
        .flat_map(|s| &s.relocs)
        .map(|r| obj.symbols[r.symbol].name.as_str())
        .collect()
}

#[test]
fn a_static_inlined_everywhere_leaves_nothing_behind() {
    let src = "static int twice(int x) { return x + x; }\
               int f(int a) { return twice(a) + 1; }\
               int g(int b) { return twice(b); }";
    for opt in [Options::pre_post(), Options::distro()] {
        let obj = compile_unit("m.kc", src, &opt).unwrap();
        assert!(obj.symbol_by_name("twice").is_none(), "{opt:?}");
        assert!(obj.section_by_name(".text.twice").is_none(), "{opt:?}");
        assert!(!reloc_targets(&obj).contains(&"twice"), "{opt:?}");
        assert!(obj.symbol_by_name("f").is_some() && obj.symbol_by_name("g").is_some());
    }
}

#[test]
fn a_static_that_cannot_be_inlined_keeps_its_same_unit_call() {
    // A loop makes `spin` no inlining candidate.
    let src = "static int spin(int n) { int i; i = 0; while (i < n) { i = i + 1; } return i; }\
               int f(int a) { return spin(a); }";
    let obj = compile_unit("m.kc", src, &Options::pre_post()).unwrap();
    let (_, sym) = obj.symbol_by_name("spin").unwrap();
    assert_eq!((sym.binding, sym.kind), (Binding::Local, SymKind::Func));
    assert!(obj.section_by_name(".text.spin").is_some());
    let (_, f) = obj.section_by_name(".text.f").unwrap();
    assert!(f
        .relocs
        .iter()
        .any(|r| r.kind == RelocKind::Pcrel32 && obj.symbols[r.symbol].name == "spin"));
    // Monolithic text keeps the call too, resolved at assembly time.
    let obj = compile_unit("m.kc", src, &Options::distro()).unwrap();
    assert!(obj.symbol_by_name("spin").unwrap().1.def.is_some());
    assert!(!reloc_targets(&obj).contains(&"spin"));
}

#[test]
fn function_symbols_carry_sizes() {
    let tree: SourceTree = [(
        "m.kc".to_string(),
        "int a() { return 1; } int b() { return 2; }".to_string(),
    )]
    .into_iter()
    .collect();
    for opt in [Options::distro(), Options::pre_post()] {
        let set = build_tree(&tree, &opt).unwrap();
        let obj = set.get("m.kc").unwrap();
        for name in ["a", "b"] {
            let (_, sym) = obj.symbol_by_name(name).unwrap();
            assert_eq!(sym.kind, SymKind::Func);
            assert!(sym.def.unwrap().size >= 5, "{name} too small");
        }
    }
}

#[test]
fn hook_sections_are_notes_with_abs64_relocs() {
    let obj = compile_unit(
        "m.kc",
        "int fixup() { return 0; }\
         int cleanup() { return 0; }\
         ksplice_apply(fixup);\
         ksplice_post_apply(cleanup);\
         ksplice_reverse(fixup);",
        &Options::pre_post(),
    )
    .unwrap();
    for (sec_name, target) in [
        (".ksplice.apply", "fixup"),
        (".ksplice.post_apply", "cleanup"),
        (".ksplice.reverse", "fixup"),
    ] {
        let (_, sec) = obj.section_by_name(sec_name).unwrap();
        assert_eq!(sec.kind, ksplice_object::SectionKind::Note);
        assert_eq!(sec.relocs.len(), 1);
        assert_eq!(sec.relocs[0].kind, RelocKind::Abs64);
        assert_eq!(obj.symbols[sec.relocs[0].symbol].name, target);
    }
}

#[test]
fn assembly_and_c_units_link_against_each_other() {
    let tree: SourceTree = [
        (
            "arch/glue.ks".to_string(),
            ".global asm_double\nasm_double:\n    call c_add\n    ret\n".to_string(),
        ),
        (
            "lib/add.kc".to_string(),
            "int c_add(int a, int b) { return a + b; }".to_string(),
        ),
    ]
    .into_iter()
    .collect();
    for opt in [Options::distro(), Options::pre_post()] {
        let set = build_tree(&tree, &opt).unwrap();
        let asm_obj = set.get("arch/glue.ks").unwrap();
        assert!(asm_obj.symbol_by_name("asm_double").is_some());
        // The cross-unit call is an undefined Pcrel32 reference.
        let has_ref = asm_obj.sections.iter().any(|s| {
            s.relocs
                .iter()
                .any(|r| asm_obj.symbols[r.symbol].name == "c_add")
        });
        assert!(has_ref);
    }
}

#[test]
fn deterministic_output_across_repeated_builds() {
    let src = "static int seen[4];\
        int audit(int x) { int i; for (i = 0; i < 4; i = i + 1) { if (seen[i] == x) { return 1; } } return 0; }\
        int record(int x) { if (!audit(x)) { seen[x & 3] = x; } return 0; }";
    let a = compile_unit("m.kc", src, &Options::pre_post()).unwrap();
    let b = compile_unit("m.kc", src, &Options::pre_post()).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.to_bytes(), b.to_bytes());
}
