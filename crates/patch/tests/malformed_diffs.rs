//! Malformed unified diffs: each parses or returns a typed `ParseError`,
//! and whatever parses applies and reverse-applies without panicking.
//!
//! The cases are the pseudo-patch classes of an LLM-output patch corpus:
//! `@@` headers without counts, CRLF line ends with backslash paths,
//! `+`/`-` lines with no `@@` header, unicode-whitespace-led hunk lines,
//! an empty `@@ @@` header, a hunk before any file header, line numbers
//! that overflow (or sit at) `usize::MAX`, and a truncated hunk.

use ksplice_patch::{ParseError, Patch};

/// What a case must parse to: `(path, hunk count)` per file, or the
/// error.
type Expected = Result<&'static [(&'static str, usize)], ParseError>;

const CASES: &[(&str, &str, Expected)] = &[
    (
        // Counts default to 1, so the hunk ends after its first line and
        // the rest is skipped as noise.
        "@@ header without counts",
        "--- a/m.kc\n+++ b/m.kc\n@@ -2 +2 @@\n line one\n-line two\n+line 2\n line three\n",
        Ok(&[("m.kc", 1)]),
    ),
    (
        "CRLF line ends, backslash paths",
        "--- a\\m.kc\r\n+++ b\\m.kc\r\n@@ -1,2 +1,2 @@\r\n line one\r\n-line two\r\n+line 2\r\n",
        Ok(&[("a\\m.kc", 1)]),
    ),
    (
        "+/- lines with no @@ header",
        "--- a/m.kc\n+++ b/m.kc\n-line two\n+line 2\n",
        Ok(&[("m.kc", 0)]),
    ),
    (
        "NBSP-led hunk line",
        "--- a/m.kc\n+++ b/m.kc\n@@ -1,2 +1,2 @@\n\u{a0}line one\n-line two\n+line 2\n",
        Err(ParseError::BadHunkLine { line: 4 }),
    ),
    (
        "U+2003-led hunk line",
        "--- a/m.kc\n+++ b/m.kc\n@@ -1,2 +1,2 @@\n\u{2003}line one\n-line two\n+line 2\n",
        Err(ParseError::BadHunkLine { line: 4 }),
    ),
    (
        "@@ @@",
        "--- a/m.kc\n+++ b/m.kc\n@@ @@\n-line two\n+line 2\n",
        Err(ParseError::BadHunkHeader { line: 3 }),
    ),
    (
        "hunk before any ---/+++ pair",
        "@@ -1,1 +1,1 @@\n-line two\n+line 2\n--- a/m.kc\n+++ b/m.kc\n",
        Err(ParseError::HunkOutsideFile { line: 1 }),
    ),
    (
        "overflowing line number",
        "--- a/m.kc\n+++ b/m.kc\n@@ -99999999999999999999,1 +1,1 @@\n-line two\n+line 2\n",
        Err(ParseError::BadHunkHeader { line: 3 }),
    ),
    (
        "line number at usize::MAX",
        "--- a/m.kc\n+++ b/m.kc\n@@ -18446744073709551615,1 +18446744073709551615,1 @@\n-line two\n+line 2\n",
        Ok(&[("m.kc", 1)]),
    ),
    (
        "truncated hunk",
        "--- a/m.kc\n+++ b/m.kc\n@@ -1,3 +1,3 @@\n line one\n-line two\n",
        Err(ParseError::TruncatedHunk { line: 5 }),
    ),
];

#[test]
fn malformed_diffs_parse_or_fail_typed_and_never_panic_the_applier() {
    let content = "line one\nline two\nline three\n";
    for (name, text, expected) in CASES {
        let parsed = Patch::parse(text);
        let shape = parsed.as_ref().map_err(Clone::clone).map(|p| {
            p.files
                .iter()
                .map(|f| (f.path.as_str(), f.hunks.len()))
                .collect::<Vec<_>>()
        });
        assert_eq!(shape, expected.clone().map(<[_]>::to_vec), "{name}");
        let Ok(p) = parsed else { continue };
        for f in &p.files {
            let _ = p.apply_to(content, &f.path);
            let _ = p.reversed().apply_to(content, &f.path);
        }
        let _ = p.apply_all(&|_| Some(content.to_string()));
    }
}
