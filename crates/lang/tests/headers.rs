//! How a unit sees the tree's headers: the header structs it embeds and
//! the errors a header's structs raise. A header's struct layouts are
//! errors of every unit that compiles against it, so each error names the
//! unit being compiled (and the header's line), and a unit's own syntax
//! error still comes first.

use ksplice_lang::{
    build_tree, check_unit_with, compile_unit_with, parse_headers, parse_unit, CompileError,
    Options, SourceTree,
};

fn tree(files: &[(&str, &str)]) -> SourceTree {
    let mut t = SourceTree::new();
    for (path, src) in files {
        t.insert(path, src);
    }
    t
}

fn build_error(t: &SourceTree) -> CompileError {
    build_tree(t, &Options::pre_post()).expect_err("the tree must not build")
}

#[test]
fn a_unit_struct_embeds_a_header_struct_at_its_layout() {
    let t = tree(&[
        ("include/hdr.kh", "struct hdr { byte tag; int val; };"),
        (
            "fs/u.kc",
            "struct wrap { byte flag; struct hdr h; int tail; };\
             struct wrap w;\
             int f() { return w.h.val + w.tail; }",
        ),
    ]);
    let headers = parse_headers(&t).unwrap();
    let unit = parse_unit("fs/u.kc", t.get("fs/u.kc").unwrap()).unwrap();
    let sema = check_unit_with(&unit, &headers).unwrap();
    let hdr = sema.layout("hdr").unwrap();
    assert_eq!((hdr.size, hdr.align), (16, 8));
    assert_eq!(hdr.field("val").unwrap().0, 8);
    let wrap = sema.layout("wrap").unwrap();
    assert_eq!(wrap.field("flag").unwrap().0, 0);
    assert_eq!(wrap.field("h").unwrap().0, 8);
    assert_eq!(wrap.field("tail").unwrap().0, 24);
    assert_eq!(wrap.size, 32);
    let set = build_tree(&t, &Options::pre_post()).unwrap();
    let obj = set.get("fs/u.kc").unwrap();
    assert_eq!(obj.section_by_name(".bss.w").unwrap().1.size, 32);
}

#[test]
fn a_unit_struct_named_like_a_header_struct_is_refused() {
    let t = tree(&[
        ("include/hdr.kh", "struct hdr { int a; };"),
        (
            "fs/u.kc",
            "int x;\nstruct hdr { int b; };\nint f() { return 0; }",
        ),
    ]);
    assert_eq!(
        build_error(&t).to_string(),
        "fs/u.kc:2: duplicate definition of struct `hdr`"
    );
}

#[test]
fn a_header_struct_containing_itself_is_refused_against_the_compiled_unit() {
    let hdr = "int pad;\nstruct loop { int x; struct loop inner; };";
    let t = tree(&[
        ("include/loop.kh", hdr),
        ("fs/a.kc", "int f() { return 1; }"),
        ("fs/b.kc", "int g() { return 2; }"),
    ]);
    // The first unit the build compiles reports it, at the header's line.
    let want = "fs/a.kc:2: struct `loop` recursively contains itself by value";
    assert_eq!(build_error(&t).to_string(), want);
    // Reading the headers succeeds; each unit compiled against them fails.
    let headers = parse_headers(&t).unwrap();
    for path in ["fs/a.kc", "fs/b.kc"] {
        let e = compile_unit_with(path, t.get(path).unwrap(), &Options::distro(), &headers)
            .unwrap_err();
        assert_eq!(e.unit, path);
        assert_eq!(e.line, 2);
        assert!(e.message.contains("recursively contains itself by value"));
    }
    // A unit's own syntax error comes before the header's.
    let t = tree(&[("include/loop.kh", hdr), ("fs/a.kc", "int f( {")]);
    assert_eq!(
        build_error(&t).to_string(),
        "fs/a.kc:1: expected type, found `{`"
    );
}

#[test]
fn two_headers_defining_one_struct_are_refused() {
    let t = tree(&[
        ("include/a.kh", "struct dup { int a; };"),
        ("include/b.kh", "\n\nstruct dup { int b; };"),
        ("fs/u.kc", "int f() { return 0; }"),
    ]);
    assert_eq!(
        build_error(&t).to_string(),
        "fs/u.kc:3: duplicate definition of struct `dup`"
    );
}

#[test]
fn a_header_struct_may_embed_a_struct_each_unit_defines() {
    // The headers do not lay out alone, so each unit lays them out with
    // its own structs: the unit that defines `inner` builds, and a unit
    // that does not reports it against itself.
    let t = tree(&[
        (
            "include/outer.kh",
            "struct outer { int tag; struct inner in; };",
        ),
        (
            "fs/a.kc",
            "struct inner { int a; int b; };\nstruct outer o;\nint f() { return o.in.b; }",
        ),
    ]);
    let set = build_tree(&t, &Options::pre_post()).unwrap();
    let obj = set.get("fs/a.kc").unwrap();
    assert_eq!(obj.section_by_name(".bss.o").unwrap().1.size, 24);
    let t = tree(&[
        (
            "include/outer.kh",
            "struct outer { int tag; struct inner in; };",
        ),
        ("fs/b.kc", "int g() { return 0; }"),
    ]);
    assert_eq!(
        build_error(&t).to_string(),
        "fs/b.kc:0: unknown struct `inner`"
    );
}
