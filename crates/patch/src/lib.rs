//! Unified diffs: parsing, application, reversal.
//!
//! `ksplice-create` takes "a patch in the standard patch format, the
//! unified diff patch format" (paper §5). This crate is the consumer: a
//! small, careful reimplementation of the parts of `patch(1)` that kernel
//! security patches exercise — multi-file patches, multiple hunks,
//! context matching with positional *fuzz* (searching near the stated
//! line number when the file has drifted), file addition, and reverse
//! application (the engine behind `ksplice-undo`'s source-level
//! bookkeeping and §5.4's previously-patched-source workflow).
//!
//! # Examples
//!
//! ```
//! use ksplice_patch::Patch;
//!
//! let diff = "\
//! --- a/fs/open.kc
//! +++ b/fs/open.kc
//! @@ -1,3 +1,3 @@
//!  int helper() { return 1; }
//! -int vuln() { return secret; }
//! +int vuln() { return 0; }
//!  int other() { return 2; }
//! ";
//! let patch = Patch::parse(diff).unwrap();
//! let old = "int helper() { return 1; }\nint vuln() { return secret; }\nint other() { return 2; }\n";
//! let new = patch.apply_to(old, "fs/open.kc").unwrap();
//! assert!(new.contains("return 0;"));
//! ```

mod diffgen;

pub use diffgen::{make_diff, make_multi_diff};

use std::fmt;

/// One line of a hunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HunkLine {
    /// Present in both versions (leading space).
    Context(String),
    /// Removed by the patch (leading `-`).
    Remove(String),
    /// Added by the patch (leading `+`).
    Add(String),
}

impl HunkLine {
    /// The line text regardless of kind.
    pub fn text(&self) -> &str {
        match self {
            HunkLine::Context(s) | HunkLine::Remove(s) | HunkLine::Add(s) => s,
        }
    }
}

/// One `@@`-delimited hunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hunk {
    /// 1-based start line in the old file (0 for pure additions to empty
    /// files).
    pub old_start: usize,
    pub old_count: usize,
    pub new_start: usize,
    pub new_count: usize,
    pub lines: Vec<HunkLine>,
}

impl Hunk {
    /// The old-side view: context + removed lines, in order.
    fn old_lines(&self) -> impl Iterator<Item = &str> {
        self.lines.iter().filter_map(|l| match l {
            HunkLine::Context(s) | HunkLine::Remove(s) => Some(s.as_str()),
            HunkLine::Add(_) => None,
        })
    }

    /// The new-side view: context + added lines, in order.
    fn new_lines(&self) -> impl Iterator<Item = &str> {
        self.lines.iter().filter_map(|l| match l {
            HunkLine::Context(s) | HunkLine::Add(s) => Some(s.as_str()),
            HunkLine::Remove(_) => None,
        })
    }

    /// Swaps adds and removes (for reverse application).
    fn reversed(&self) -> Hunk {
        Hunk {
            old_start: self.new_start,
            old_count: self.new_count,
            new_start: self.old_start,
            new_count: self.old_count,
            lines: self
                .lines
                .iter()
                .map(|l| match l {
                    HunkLine::Context(s) => HunkLine::Context(s.clone()),
                    HunkLine::Remove(s) => HunkLine::Add(s.clone()),
                    HunkLine::Add(s) => HunkLine::Remove(s.clone()),
                })
                .collect(),
        }
    }
}

/// The changes to one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilePatch {
    /// Path with any `a/`/`b/` prefix stripped.
    pub path: String,
    /// True when the old side is `/dev/null` (file creation).
    pub creates: bool,
    /// True when the new side is `/dev/null` (file deletion).
    pub deletes: bool,
    pub hunks: Vec<Hunk>,
}

/// A parsed multi-file unified diff.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Patch {
    pub files: Vec<FilePatch>,
}

/// Errors from parsing a diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A hunk header was malformed.
    BadHunkHeader { line: usize },
    /// A hunk line had no ` `, `+`, or `-` prefix.
    BadHunkLine { line: usize },
    /// A `@@` header appeared before any `---`/`+++` pair.
    HunkOutsideFile { line: usize },
    /// Hunk body shorter than its header promised.
    TruncatedHunk { line: usize },
    /// No file sections at all.
    Empty,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadHunkHeader { line } => write!(f, "line {line}: malformed @@ header"),
            ParseError::BadHunkLine { line } => write!(f, "line {line}: bad hunk line prefix"),
            ParseError::HunkOutsideFile { line } => {
                write!(f, "line {line}: hunk before any file header")
            }
            ParseError::TruncatedHunk { line } => write!(f, "line {line}: truncated hunk"),
            ParseError::Empty => write!(f, "patch contains no file changes"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Errors from applying a patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// A hunk's old lines were not found near the stated position.
    HunkMismatch { path: String, hunk: usize },
    /// The patch references a path the caller did not provide.
    MissingFile { path: String },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::HunkMismatch { path, hunk } => {
                write!(f, "{path}: hunk #{} does not match", hunk + 1)
            }
            ApplyError::MissingFile { path } => write!(f, "{path}: file not found"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Maximum distance (in lines) the applier searches around the stated
/// hunk position, mirroring `patch(1)` fuzz behaviour.
const MAX_FUZZ_OFFSET: usize = 64;

fn strip_prefix(path: &str) -> &str {
    path.strip_prefix("a/")
        .or_else(|| path.strip_prefix("b/"))
        .unwrap_or(path)
}

impl Patch {
    /// Parses a unified diff. Git-style `diff --git`/`index` lines and
    /// other noise between file sections are ignored.
    pub fn parse(text: &str) -> Result<Patch, ParseError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut files: Vec<FilePatch> = Vec::new();
        let mut i = 0usize;
        while i < lines.len() {
            let line = lines[i];
            if let Some(old) = line.strip_prefix("--- ") {
                let new = lines
                    .get(i + 1)
                    .and_then(|l| l.strip_prefix("+++ "))
                    .ok_or(ParseError::BadHunkHeader { line: i + 2 })?;
                let old = old.split('\t').next().unwrap_or(old).trim();
                let new = new.split('\t').next().unwrap_or(new).trim();
                let creates = old == "/dev/null";
                let deletes = new == "/dev/null";
                let path = if creates {
                    strip_prefix(new)
                } else {
                    strip_prefix(old)
                };
                files.push(FilePatch {
                    path: path.to_string(),
                    creates,
                    deletes,
                    hunks: Vec::new(),
                });
                i += 2;
                continue;
            }
            if line.starts_with("@@") {
                let file = files
                    .last_mut()
                    .ok_or(ParseError::HunkOutsideFile { line: i + 1 })?;
                let header =
                    parse_hunk_header(line).ok_or(ParseError::BadHunkHeader { line: i + 1 })?;
                let (old_start, old_count, new_start, new_count) = header;
                let mut hunk = Hunk {
                    old_start,
                    old_count,
                    new_start,
                    new_count,
                    lines: Vec::new(),
                };
                i += 1;
                let (mut seen_old, mut seen_new) = (0usize, 0usize);
                while seen_old < old_count || seen_new < new_count {
                    let body = lines.get(i).ok_or(ParseError::TruncatedHunk { line: i })?;
                    if *body == "\\ No newline at end of file" {
                        i += 1;
                        continue;
                    }
                    let (kind, rest) = match body.as_bytes().first() {
                        Some(b' ') => ('c', &body[1..]),
                        Some(b'-') => ('r', &body[1..]),
                        Some(b'+') => ('a', &body[1..]),
                        None => ('c', ""), // empty context line
                        _ => return Err(ParseError::BadHunkLine { line: i + 1 }),
                    };
                    match kind {
                        'c' => {
                            seen_old += 1;
                            seen_new += 1;
                            hunk.lines.push(HunkLine::Context(rest.to_string()));
                        }
                        'r' => {
                            seen_old += 1;
                            hunk.lines.push(HunkLine::Remove(rest.to_string()));
                        }
                        'a' => {
                            seen_new += 1;
                            hunk.lines.push(HunkLine::Add(rest.to_string()));
                        }
                        _ => unreachable!(),
                    }
                    i += 1;
                }
                file.hunks.push(hunk);
                continue;
            }
            i += 1;
        }
        if files.is_empty() {
            return Err(ParseError::Empty);
        }
        Ok(Patch { files })
    }

    /// The paths this patch touches.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|f| f.path.as_str())
    }

    /// Total added plus removed lines — the "lines of code in the patch"
    /// metric of the paper's Figure 3.
    pub fn changed_line_count(&self) -> usize {
        self.files
            .iter()
            .flat_map(|f| &f.hunks)
            .flat_map(|h| &h.lines)
            .filter(|l| !matches!(l, HunkLine::Context(_)))
            .count()
    }

    /// The reverse patch (swap adds/removes) — `patch -R`.
    pub fn reversed(&self) -> Patch {
        Patch {
            files: self
                .files
                .iter()
                .map(|f| FilePatch {
                    path: f.path.clone(),
                    creates: f.deletes,
                    deletes: f.creates,
                    hunks: f.hunks.iter().map(Hunk::reversed).collect(),
                })
                .collect(),
        }
    }

    /// Applies the single-file portion of this patch for `path` to
    /// `content`, returning the new content.
    pub fn apply_to(&self, content: &str, path: &str) -> Result<String, ApplyError> {
        let file =
            self.files
                .iter()
                .find(|f| f.path == path)
                .ok_or_else(|| ApplyError::MissingFile {
                    path: path.to_string(),
                })?;
        apply_file(file, content)
    }

    /// Applies the whole patch against a map-like source of file contents,
    /// returning `(path, new_content)` pairs (deleted files map to `None`).
    #[allow(clippy::type_complexity)]
    pub fn apply_all(
        &self,
        read: &dyn Fn(&str) -> Option<String>,
    ) -> Result<Vec<(String, Option<String>)>, ApplyError> {
        let mut out = Vec::new();
        for file in &self.files {
            if file.deletes {
                out.push((file.path.clone(), None));
                continue;
            }
            let old = if file.creates {
                String::new()
            } else {
                read(&file.path).ok_or_else(|| ApplyError::MissingFile {
                    path: file.path.clone(),
                })?
            };
            let new = apply_file(file, &old)?;
            out.push((file.path.clone(), Some(new)));
        }
        Ok(out)
    }
}

fn parse_hunk_header(line: &str) -> Option<(usize, usize, usize, usize)> {
    // "@@ -l,c +l,c @@ optional context"
    let inner = line.strip_prefix("@@ ")?;
    let end = inner.find(" @@")?;
    let inner = &inner[..end];
    let (old, new) = inner.split_once(' ')?;
    let old = old.strip_prefix('-')?;
    let new = new.strip_prefix('+')?;
    let parse_range = |s: &str| -> Option<(usize, usize)> {
        match s.split_once(',') {
            Some((l, c)) => Some((l.parse().ok()?, c.parse().ok()?)),
            None => Some((s.parse().ok()?, 1)),
        }
    };
    let (os, oc) = parse_range(old)?;
    let (ns, nc) = parse_range(new)?;
    Some((os, oc, ns, nc))
}

fn apply_file(file: &FilePatch, content: &str) -> Result<String, ApplyError> {
    let mut lines: Vec<String> = content.lines().map(|s| s.to_string()).collect();
    // Apply hunks last-to-first so earlier hunks' line numbers stay valid.
    for (idx, hunk) in file.hunks.iter().enumerate().rev() {
        let old: Vec<&str> = hunk.old_lines().collect();
        let stated = hunk.old_start.saturating_sub(1);
        let at = find_hunk(&lines, &old, stated).ok_or_else(|| ApplyError::HunkMismatch {
            path: file.path.clone(),
            hunk: idx,
        })?;
        let new: Vec<String> = hunk.new_lines().map(|s| s.to_string()).collect();
        lines.splice(at..at + old.len(), new);
    }
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    Ok(out)
}

/// Finds where a hunk's old lines match, searching outward from the
/// stated position up to [`MAX_FUZZ_OFFSET`] lines away.
fn find_hunk(lines: &[String], old: &[&str], stated: usize) -> Option<usize> {
    let matches_at = |at: usize| -> bool {
        lines.get(at..).is_some_and(|rest| {
            rest.len() >= old.len() && old.iter().zip(rest).all(|(a, b)| *a == b)
        })
    };
    if old.is_empty() {
        // Pure insertion: position is taken on faith (clamped).
        return Some(stated.min(lines.len()));
    }
    for delta in 0..=MAX_FUZZ_OFFSET {
        if stated >= delta && matches_at(stated - delta) {
            return Some(stated - delta);
        }
        // A stated line near `usize::MAX` must not overflow the search.
        if delta > 0 && stated.checked_add(delta).is_some_and(matches_at) {
            return Some(stated + delta);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = "\
--- a/m.kc
+++ b/m.kc
@@ -1,3 +1,4 @@
 line one
-line two
+line 2
+line 2.5
 line three
";

    #[test]
    fn parse_and_apply() {
        let p = Patch::parse(SIMPLE).unwrap();
        assert_eq!(p.files.len(), 1);
        assert_eq!(p.files[0].path, "m.kc");
        assert_eq!(p.changed_line_count(), 3);
        let out = p
            .apply_to("line one\nline two\nline three\n", "m.kc")
            .unwrap();
        assert_eq!(out, "line one\nline 2\nline 2.5\nline three\n");
    }

    #[test]
    fn roundtrip_reverse() {
        let p = Patch::parse(SIMPLE).unwrap();
        let orig = "line one\nline two\nline three\n";
        let patched = p.apply_to(orig, "m.kc").unwrap();
        let back = p.reversed().apply_to(&patched, "m.kc").unwrap();
        assert_eq!(back, orig);
    }

    #[test]
    fn fuzz_finds_drifted_hunk() {
        let p = Patch::parse(SIMPLE).unwrap();
        // Three extra lines above: the stated position is off by three.
        let drifted = "x\ny\nz\nline one\nline two\nline three\n";
        let out = p.apply_to(drifted, "m.kc").unwrap();
        assert!(out.contains("line 2.5"));
        assert!(out.starts_with("x\ny\nz\n"));
    }

    #[test]
    fn mismatch_reported() {
        let p = Patch::parse(SIMPLE).unwrap();
        let err = p.apply_to("completely\ndifferent\n", "m.kc").unwrap_err();
        assert!(matches!(err, ApplyError::HunkMismatch { .. }));
    }

    #[test]
    fn multi_hunk_and_multi_file() {
        let diff = "\
--- a/a.kc
+++ b/a.kc
@@ -1,2 +1,2 @@
-old a1
+new a1
 keep
@@ -9,2 +9,2 @@
 ctx
-old a10
+new a10
--- a/b.kc
+++ b/b.kc
@@ -1,1 +1,1 @@
-old b
+new b
";
        let p = Patch::parse(diff).unwrap();
        assert_eq!(p.files.len(), 2);
        let a_old = "old a1\nkeep\n3\n4\n5\n6\n7\n8\nctx\nold a10\n";
        let a_new = p.apply_to(a_old, "a.kc").unwrap();
        assert!(a_new.contains("new a1") && a_new.contains("new a10"));
        let b_new = p.apply_to("old b\n", "b.kc").unwrap();
        assert_eq!(b_new, "new b\n");
    }

    #[test]
    fn file_creation_and_deletion() {
        let diff = "\
--- /dev/null
+++ b/new.kc
@@ -0,0 +1,2 @@
+int fresh() { return 1; }
+int more() { return 2; }
--- a/gone.kc
+++ /dev/null
@@ -1,1 +0,0 @@
-int dead() { return 0; }
";
        let p = Patch::parse(diff).unwrap();
        assert!(p.files[0].creates);
        assert!(p.files[1].deletes);
        let results = p
            .apply_all(&|path| {
                (path == "gone.kc").then(|| "int dead() { return 0; }\n".to_string())
            })
            .unwrap();
        assert_eq!(results[0].0, "new.kc");
        assert!(results[0].1.as_ref().unwrap().contains("fresh"));
        assert_eq!(results[1], ("gone.kc".to_string(), None));
    }

    #[test]
    fn git_noise_ignored() {
        let diff = "\
diff --git a/m.kc b/m.kc
index 123..456 100644
--- a/m.kc
+++ b/m.kc
@@ -1,1 +1,1 @@
-x
+y
";
        let p = Patch::parse(diff).unwrap();
        assert_eq!(p.files.len(), 1);
        assert_eq!(p.apply_to("x\n", "m.kc").unwrap(), "y\n");
    }

    #[test]
    fn parse_errors() {
        assert_eq!(Patch::parse("nothing here"), Err(ParseError::Empty));
        assert!(matches!(
            Patch::parse("@@ -1,1 +1,1 @@\n-x\n+y\n"),
            Err(ParseError::HunkOutsideFile { .. })
        ));
        assert!(matches!(
            Patch::parse("--- a/x\n+++ b/x\n@@ bogus @@\n"),
            Err(ParseError::BadHunkHeader { .. })
        ));
        assert!(matches!(
            Patch::parse("--- a/x\n+++ b/x\n@@ -1,2 +1,2 @@\n x\n"),
            Err(ParseError::TruncatedHunk { .. })
        ));
        assert!(matches!(
            Patch::parse("--- a/x\n+++ b/x\n@@ -1,1 +1,1 @@\n*bad\n+y\n"),
            Err(ParseError::BadHunkLine { .. })
        ));
    }

    #[test]
    fn missing_file_error() {
        let p = Patch::parse(SIMPLE).unwrap();
        assert!(matches!(
            p.apply_to("x\n", "other.kc"),
            Err(ApplyError::MissingFile { .. })
        ));
        assert!(matches!(
            p.apply_all(&|_| None),
            Err(ApplyError::MissingFile { .. })
        ));
    }

    #[test]
    fn headers_with_timestamps() {
        let diff = "--- a/m.kc\t2008-01-01 00:00:00\n+++ b/m.kc\t2008-01-02 00:00:00\n@@ -1,1 +1,1 @@\n-x\n+y\n";
        let p = Patch::parse(diff).unwrap();
        assert_eq!(p.files[0].path, "m.kc");
    }
}
