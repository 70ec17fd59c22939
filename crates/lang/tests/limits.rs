//! The compiler's two limits: how deep a unit may nest and how large a
//! type, global or stack frame may be. Past either, a unit is refused
//! with an error that names it and the line; it never overflows the
//! stack, panics or wraps a size.

use ksplice_lang::{
    build_tree, compile_unit, parse_unit, pretty_unit, CompileError, Options, SourceTree, MAX_DEPTH,
};

/// A unit whose deepest path nests exactly `levels` levels, all on line
/// 2. A statement, an expression, a unary operator, a binary or postfix
/// link and a pointer star each open one level.
type Shape = fn(usize) -> String;

const SHAPES: [(&str, Shape); 11] = [
    // The body's blocks open one level each.
    ("blocks", |l| {
        body(&format!("{}{}", "{".repeat(l), "}".repeat(l)))
    }),
    // Each `if` opens one; the innermost condition, one more.
    ("ifs", |l| {
        body(&format!(
            "{}{}",
            "if (x) {".repeat(l - 1),
            "}".repeat(l - 1)
        ))
    }),
    ("whiles", |l| {
        body(&format!(
            "{}{}",
            "while (x) {".repeat(l - 1),
            "}".repeat(l - 1)
        ))
    }),
    // An `else if` is an `if` statement inside the `else`.
    ("else-ifs", |l| {
        body(&format!("if (x) {{}}{}", " else if (x) {}".repeat(l - 2)))
    }),
    // `return` and its value open two; each parenthesis, one.
    ("parens", |l| {
        body(&format!(
            "return {}x{};",
            "(".repeat(l - 2),
            ")".repeat(l - 2)
        ))
    }),
    ("chain", |l| {
        body(&format!("return x{};", " + x".repeat(l - 2)))
    }),
    // Each `x * (` opens two: a link and its parenthesised operand.
    ("right-nested", |l| {
        let (pairs, odd) = ((l - 2) / 2, (l - 2) % 2);
        let open = format!("{}{}", "x * (".repeat(pairs), "(".repeat(odd));
        body(&format!("return {open}x{};", ")".repeat(pairs + odd)))
    }),
    ("unary", |l| {
        body(&format!("return {}x;", "- ".repeat(l - 2)))
    }),
    // A call's argument opens one level inside the last link.
    ("calls", |l| {
        body(&format!("return g{};", "(x)".repeat(l - 3)))
    }),
    ("fields", |l| {
        format!(
            "struct s {{ struct s *n; }};\nint f(struct s *p) {{ return p{}; }}\n",
            "->n".repeat(l - 2)
        )
    }),
    ("stars", |l| {
        body(&format!("int {}p; return x;", "*".repeat(l - 1)))
    }),
];

fn body(stmts: &str) -> String {
    format!("int f(int x) {{\n{stmts}\nreturn x; }}\n")
}

/// Runs `f` on a thread with the 2 MiB stack the worker pool's threads
/// get, so a shape that would overflow it aborts the test.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

#[test]
fn every_shape_at_the_bound_parses_prints_and_compiles() {
    for (name, shape) in SHAPES {
        let src = shape(MAX_DEPTH as usize);
        on_small_stack(move || {
            let unit = parse_unit("deep.kc", &src).unwrap_or_else(|e| panic!("{name}: {e}"));
            // The printed text is not compiled: the printer writes `- -x`
            // as `-(-x)`, which nests one more level per pair.
            pretty_unit(&unit);
            for opt in [Options::pre_post(), Options::distro()] {
                compile_unit("deep.kc", &src, &opt).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        });
    }
}

#[test]
fn every_shape_past_the_bound_is_refused() {
    for (name, shape) in SHAPES {
        let src = shape(MAX_DEPTH as usize + 1);
        let e = on_small_stack(move || parse_unit("deep.kc", &src).unwrap_err());
        assert_eq!(
            e.to_string(),
            format!("deep.kc:2: nesting deeper than {MAX_DEPTH} levels"),
            "{name}"
        );
    }
}

#[test]
fn far_past_the_bound_is_refused_not_overflowed() {
    // The shapes that overflowed the stack before the bound existed.
    for src in [
        body(&format!("{}{}", "{".repeat(10_000), "}".repeat(10_000))),
        body(&format!(
            "{}{}",
            "if (x) {".repeat(10_000),
            "}".repeat(10_000)
        )),
        body(&format!(
            "return {}x{};",
            "(".repeat(100_000),
            ")".repeat(100_000)
        )),
        body(&format!("return x{};", " + x".repeat(100_000))),
        body(&format!("int {}p;", "*".repeat(100_000))),
    ] {
        let e = on_small_stack(move || compile_unit("deep.kc", &src, &Options::distro()));
        assert!(e.unwrap_err().message.starts_with("nesting deeper than"));
    }
}

/// The largest object a unit may define, in bytes.
const MAX_SIZE: u64 = i32::MAX as u64;

fn too_large(what: &str) -> String {
    format!("{what} is larger than {MAX_SIZE} bytes")
}

#[test]
fn sizes_past_the_limit_are_refused_in_every_profile() {
    // Each row: a unit, and the error it must raise on its second line
    // (`None`: it compiles). Before the limit, the first two compiled to
    // a 0-byte and a 2^64 - 8-byte `.bss` in release and panicked in
    // debug, the third panicked, and the fourth wrapped its frame.
    let rows: [(&str, Option<String>); 7] = [
        (
            "int big[2305843009213693952];",
            Some(too_large("type Array(Int, 2305843009213693952)")),
        ),
        (
            "int g[9223372036854775807];",
            Some(too_large("type Array(Int, 9223372036854775807)")),
        ),
        (
            "struct two { int a[1152921504606846976]; int b[1152921504606846976]; };",
            Some(too_large("type Array(Int, 1152921504606846976)")),
        ),
        (
            "int f() {\n int a[200000000]; int b[200000000]; return 0; }",
            Some(too_large("stack frame of `f`")),
        ),
        (
            "struct edge { int x; byte tail[2147483640]; };",
            Some(too_large("struct `edge`")),
        ),
        (
            "byte over[2147483648];",
            Some(too_large("type Array(Byte, 2147483648)")),
        ),
        // At the limit: a global, a frame and a struct.
        (
            "byte edge[2147483647];\n\
             int f() { byte a[2147483640]; return sizeof(struct e); }\n\
             struct e { byte b[2147483647]; };",
            None,
        ),
    ];
    for (decl, want) in rows {
        let src = format!("int pad;\n{decl}");
        let got = compile_unit("big.kc", &src, &Options::pre_post());
        match (&got, &want) {
            (Err(e), Some(want)) => {
                assert_eq!((e.unit.as_str(), e.line), ("big.kc", 2), "{decl}");
                assert_eq!(&e.message, want, "{decl}");
            }
            (Ok(_), None) => {}
            _ => panic!("{decl}: {got:?}"),
        }
    }
}

#[test]
fn a_header_global_is_sized_where_a_unit_uses_it() {
    // The checker sizes what a unit declares; a header's global is sized
    // at its use. Before, both uses panicked in debug, and the first
    // scaled by a wrapped size in release.
    let headers = "int huge[2305843009213693952];\nstruct nosuch ghosts[4];";
    for (unit, want) in [
        (
            "int f() { return &huge + 1; }",
            too_large("type Array(Int, 2305843009213693952)"),
        ),
        (
            "int g() { return &ghosts[1]; }",
            "unknown struct `nosuch`".into(),
        ),
    ] {
        let tree: SourceTree = [
            ("include/g.kh".to_string(), headers.to_string()),
            ("u.kc".to_string(), format!("int pad;\n{unit}")),
        ]
        .into_iter()
        .collect();
        let e: CompileError = build_tree(&tree, &Options::pre_post()).unwrap_err();
        assert_eq!(e.to_string(), format!("u.kc:2: {want}"));
    }
}
