//! `ksplice-create`: from original source + unified diff to an update
//! pack (paper §3, Figure 1, §5).
//!
//! The pipeline: build the original tree (*pre*), apply the patch and
//! build again (*post*) — both with per-item sections — then diff the
//! object code and package the changed functions. A patch that changes a
//! pre-existing datum's initialiser or size is refused unless the caller
//! sets [`CreateOptions::accept_data_changes`], which corresponds to the
//! §2 workflow: a programmer has reviewed the patch's data-structure
//! semantics (and typically added custom hook code to migrate live
//! instances, §5.3).

use std::collections::BTreeSet;

use ksplice_lang::{build_tree_cached, build_tree_image_cached, BuildCache, Options, SourceTree};
use ksplice_patch::{make_multi_diff, Patch};
use ksplice_trace::{Severity, Stage, Tracer};

use crate::differ::{diff_builds_traced, DataChange};
use crate::package::{build_packs, UpdatePack};

/// Policy knobs for update creation.
#[derive(Debug, Clone, Default)]
pub struct CreateOptions {
    /// Accept patches that change pre-existing data initialisers/sizes.
    /// Off by default: such patches "change the semantics of persistent
    /// data structures" (Table 1) and need programmer attention.
    pub accept_data_changes: bool,
    /// Compiler options for the pre/post builds. `None` uses
    /// [`Options::pre_post`]. ksplice-create should use the same compiler
    /// version as the original kernel build; a mismatch here is *detected later*
    /// by run-pre matching, not at create time (§4.3).
    pub build_options: Option<Options>,
}

/// Errors from `ksplice-create`.
#[derive(Debug)]
pub enum CreateError {
    /// The unified diff did not parse.
    PatchParse(ksplice_patch::ParseError),
    /// The patch did not apply to the given source tree.
    PatchApply(ksplice_patch::ApplyError),
    /// A build failed (pre builds failing means the wrong source was
    /// supplied; post builds failing means a broken patch).
    Compile {
        /// Which build failed: `"pre"` or `"post"`.
        phase: &'static str,
        /// The compiler's error.
        error: ksplice_lang::CompileError,
    },
    /// The patch changes persistent data semantics and
    /// `accept_data_changes` was not set.
    DataSemantics {
        /// `(unit, change)` for every flagged datum.
        changes: Vec<(String, DataChange)>,
    },
    /// The patch produced no object-code change at all.
    NoEffect,
}

impl std::fmt::Display for CreateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CreateError::PatchParse(e) => write!(f, "bad patch: {e}"),
            CreateError::PatchApply(e) => write!(f, "patch does not apply: {e}"),
            CreateError::Compile { phase, error } => write!(f, "{phase} build failed: {error}"),
            CreateError::DataSemantics { changes } => {
                write!(
                    f,
                    "patch changes persistent data (needs custom code): {}",
                    changes
                        .iter()
                        .map(|(u, c)| format!("{u}:{}", c.section))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            CreateError::NoEffect => write!(f, "patch has no object-code effect"),
        }
    }
}

impl std::error::Error for CreateError {}

/// Applies a unified diff to a source tree, returning the patched tree.
pub fn apply_patch_to_tree(tree: &SourceTree, patch: &Patch) -> Result<SourceTree, CreateError> {
    let mut out = tree.clone();
    let results = patch
        .apply_all(&|path| tree.get(path).map(|s| s.to_string()))
        .map_err(CreateError::PatchApply)?;
    for (path, contents) in results {
        match contents {
            Some(c) => out.insert(&path, &c),
            None => {
                out.remove(&path);
            }
        }
    }
    Ok(out)
}

/// The reverse of [`apply_patch_to_tree`]: renders the unified diff that
/// turns `old` into `new`, one file patch per changed, added or removed
/// path, in path order.
pub fn diff_trees(old: &SourceTree, new: &SourceTree) -> String {
    let paths: BTreeSet<&str> = old.iter().chain(new.iter()).map(|(path, _)| path).collect();
    let mut files: Vec<(&str, &str, &str)> = Vec::new();
    for path in paths {
        let (a, b) = (old.get(path).unwrap_or(""), new.get(path).unwrap_or(""));
        files.push((path, a, b));
    }
    // Unchanged paths render to nothing.
    make_multi_diff(&files).unwrap_or_default()
}

/// `ksplice-create`: builds pre and post and packages the update.
///
/// Returns the pack together with the patched source tree — the caller
/// needs the latter as the "previously-patched source" when stacking a
/// further update later (§5.4).
pub fn create_update(
    id: &str,
    source: &SourceTree,
    patch_text: &str,
    opts: &CreateOptions,
) -> Result<(UpdatePack, SourceTree), CreateError> {
    create_update_cached(id, source, patch_text, opts, &BuildCache::new())
}

/// [`create_update`] through a shared [`BuildCache`]: the pre build of an
/// already-seen tree is served from the cache and the post build
/// recompiles only the units the patch touches. Repeated creates against
/// the same base tree (the evaluation corpus, a fleet of updates) pay for
/// each unit's compile once per process.
pub fn create_update_cached(
    id: &str,
    source: &SourceTree,
    patch_text: &str,
    opts: &CreateOptions,
    cache: &BuildCache,
) -> Result<(UpdatePack, SourceTree), CreateError> {
    create_update_cached_traced(id, source, patch_text, opts, cache, &mut Tracer::disabled())
}

/// [`create_update_cached`] with build/diff/package events on `tracer`,
/// plus `build.cache_hits` / `build.cache_misses` / `build.cache_evictions`
/// / `build.units_compiled` counters covering both builds, all inside a
/// `create` span.
pub fn create_update_cached_traced(
    id: &str,
    source: &SourceTree,
    patch_text: &str,
    opts: &CreateOptions,
    cache: &BuildCache,
    tracer: &mut Tracer,
) -> Result<(UpdatePack, SourceTree), CreateError> {
    let span = tracer.span_start(Stage::Create, "create", vec![("id", id.into())]);
    let result = create_inner(id, source, patch_text, opts, cache, tracer);
    tracer.span_end(span);
    result
}

fn create_inner(
    id: &str,
    source: &SourceTree,
    patch_text: &str,
    opts: &CreateOptions,
    cache: &BuildCache,
    tracer: &mut Tracer,
) -> Result<(UpdatePack, SourceTree), CreateError> {
    tracer.emit(
        Stage::Create,
        Severity::Info,
        "create.start",
        vec![("id", id.into()), ("files", source.len().into())],
    );
    let fail = |tracer: &mut Tracer, e: CreateError| {
        tracer.emit(
            Stage::Create,
            Severity::Error,
            "create.abort",
            vec![("id", id.into()), ("msg", e.to_string().into())],
        );
        e
    };
    let patch = match Patch::parse(patch_text).map_err(CreateError::PatchParse) {
        Ok(p) => p,
        Err(e) => return Err(fail(tracer, e)),
    };
    let build_opts = opts.build_options.clone().unwrap_or_else(Options::pre_post);

    // The pre tree is typically rebuilt verbatim for every update
    // packaged against it — the whole-image memo collapses that to one
    // lookup once the first build has run.
    let (pre, pre_stats) = match build_tree_image_cached(source, &build_opts, cache) {
        Ok(built) => built,
        Err(error) => {
            return Err(fail(
                tracer,
                CreateError::Compile {
                    phase: "pre",
                    error,
                },
            ))
        }
    };
    let patched = match apply_patch_to_tree(source, &patch) {
        Ok(t) => t,
        Err(e) => return Err(fail(tracer, e)),
    };
    let (post, post_stats) = match build_tree_cached(&patched, &build_opts, cache) {
        Ok(built) => built,
        Err(error) => {
            return Err(fail(
                tracer,
                CreateError::Compile {
                    phase: "post",
                    error,
                },
            ))
        }
    };
    let mut build_stats = pre_stats;
    build_stats.absorb(post_stats);
    tracer.count("build.cache_hits", build_stats.hits);
    tracer.count("build.cache_misses", build_stats.misses);
    tracer.count("build.cache_evictions", build_stats.evictions);
    tracer.count("build.units_compiled", build_stats.units_compiled());
    tracer.emit(
        Stage::Create,
        Severity::Debug,
        "create.built",
        vec![
            ("pre_units", pre.len().into()),
            ("post_units", post.len().into()),
            ("cache_hits", build_stats.hits.into()),
            ("units_compiled", build_stats.units_compiled().into()),
        ],
    );

    let diff = diff_builds_traced(&pre, &post, tracer);
    if diff.affected().count() == 0 {
        return Err(fail(tracer, CreateError::NoEffect));
    }
    let data_changes: Vec<(String, DataChange)> = diff
        .data_changes()
        .map(|(u, c)| (u.to_string(), c.clone()))
        .collect();
    if !data_changes.is_empty() && !opts.accept_data_changes {
        return Err(fail(
            tracer,
            CreateError::DataSemantics {
                changes: data_changes,
            },
        ));
    }
    let pack = build_packs(id, &pre, &post, &diff);
    tracer.emit(
        Stage::Create,
        Severity::Info,
        "create.packaged",
        vec![
            ("id", id.into()),
            ("units", pack.units.len().into()),
            ("replaced_fns", pack.replaced_fn_count().into()),
        ],
    );
    tracer.count("create.packs_built", 1);
    Ok((pack, patched))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(files: &[(&str, &str)]) -> SourceTree {
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    const BASE: &str = "int limit = 10;\nint check(int x) {\n    if (x > limit) {\n        return 0 - 1;\n    }\n    return x;\n}\n";

    #[test]
    fn simple_create() {
        let src = tree(&[("m.kc", BASE)]);
        let patch = "\
--- a/m.kc
+++ b/m.kc
@@ -1,5 +1,5 @@
 int limit = 10;
 int check(int x) {
-    if (x > limit) {
+    if (x >= limit) {
         return 0 - 1;
     }
";
        let (pack, patched) =
            create_update("cve-x", &src, patch, &CreateOptions::default()).unwrap();
        assert_eq!(pack.units.len(), 1);
        assert_eq!(pack.replaced_fn_count(), 1);
        assert!(patched.get("m.kc").unwrap().contains(">="));
    }

    #[test]
    fn cached_post_build_compiles_only_patched_units() {
        let src = tree(&[
            ("m.kc", BASE),
            ("other.kc", "int helper_fn(int v) { return v + 7; }"),
            ("third.kc", "int third_fn() { return 3; }"),
        ]);
        let patch = "\
--- a/m.kc
+++ b/m.kc
@@ -1,5 +1,5 @@
 int limit = 10;
 int check(int x) {
-    if (x > limit) {
+    if (x >= limit) {
         return 0 - 1;
     }
";
        let cache = BuildCache::new();
        let mut tracer = Tracer::new();
        let (pack, _) = create_update_cached_traced(
            "cve-x",
            &src,
            patch,
            &CreateOptions::default(),
            &cache,
            &mut tracer,
        )
        .unwrap();
        // Pre compiles all 3 units cold; post recompiles only m.kc and
        // hits the cache for the other two.
        assert_eq!(tracer.counter("build.units_compiled"), 4);
        assert_eq!(tracer.counter("build.cache_hits"), 2);
        // A second create against the same tree: pre is fully cached.
        let mut tracer2 = Tracer::new();
        let (pack2, _) = create_update_cached_traced(
            "cve-x",
            &src,
            patch,
            &CreateOptions::default(),
            &cache,
            &mut tracer2,
        )
        .unwrap();
        assert_eq!(tracer2.counter("build.units_compiled"), 0);
        assert_eq!(tracer2.counter("build.cache_hits"), 6);
        // Byte-identical product either way (the correctness bar: the
        // differ and run-pre matching consume these bytes).
        assert_eq!(pack.to_bytes(), pack2.to_bytes());
        let (cold, _) = create_update("cve-x", &src, patch, &CreateOptions::default()).unwrap();
        assert_eq!(cold.to_bytes(), pack.to_bytes());
    }

    #[test]
    fn data_init_change_refused_by_default() {
        let src = tree(&[("m.kc", BASE)]);
        let patch = "\
--- a/m.kc
+++ b/m.kc
@@ -1,2 +1,2 @@
-int limit = 10;
+int limit = 99;
 int check(int x) {
";
        let err = create_update("cve-x", &src, patch, &CreateOptions::default()).unwrap_err();
        assert!(matches!(err, CreateError::DataSemantics { .. }));
        // With the programmer's sign-off it packages.
        let opts = CreateOptions {
            accept_data_changes: true,
            ..CreateOptions::default()
        };
        create_update("cve-x", &src, patch, &opts).unwrap();
    }

    #[test]
    fn comment_only_patch_has_no_effect() {
        let src = tree(&[("m.kc", BASE)]);
        let patch = "\
--- a/m.kc
+++ b/m.kc
@@ -1,2 +1,3 @@
 int limit = 10;
+// audited 2008-05
 int check(int x) {
";
        let err = create_update("cve-x", &src, patch, &CreateOptions::default()).unwrap_err();
        assert!(matches!(err, CreateError::NoEffect));
    }

    #[test]
    fn broken_patch_reports_post_build_failure() {
        let src = tree(&[("m.kc", BASE)]);
        let patch = "\
--- a/m.kc
+++ b/m.kc
@@ -2,3 +2,3 @@
 int check(int x) {
-    if (x > limit) {
+    if (x > limit { // syntax error
         return 0 - 1;
";
        let err = create_update("cve-x", &src, patch, &CreateOptions::default()).unwrap_err();
        assert!(matches!(err, CreateError::Compile { phase: "post", .. }));
    }

    #[test]
    fn nonapplying_patch_rejected() {
        let src = tree(&[("m.kc", BASE)]);
        let patch = "\
--- a/m.kc
+++ b/m.kc
@@ -1,1 +1,1 @@
-int completely_unrelated;
+int nope;
";
        let err = create_update("cve-x", &src, patch, &CreateOptions::default()).unwrap_err();
        assert!(matches!(err, CreateError::PatchApply(_)));
    }
}
