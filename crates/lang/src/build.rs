//! The build driver — `kbuild` for `kc` trees.
//!
//! A [`SourceTree`] is a whole kernel's source: headers under `include/`
//! (shared struct definitions and typed global declarations), `.kc` C
//! units and `.ks` assembly units. [`build_tree`] compiles every unit
//! deterministically and returns the build's [`ObjectSet`] — the artifact
//! `ksplice-create` produces twice (pre and post) and diffs (paper §3.2,
//! Figure 1).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use ksplice_object::{Object, ObjectSet};

use crate::asmfile::assemble_unit;
use crate::cache::{options_fingerprint, BuildCache, BuildStats, Fingerprint};
use crate::ast::Unit;
use crate::codegen::gen_unit;
use crate::fold::fold_unit;
use crate::inline::inline_unit;
use crate::parser::parse_unit;
use crate::sema::{check_unit_with, HeaderContext};
use crate::{CompileError, Options};

/// An in-memory kernel source tree, keyed by path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceTree {
    files: BTreeMap<String, String>,
}

impl SourceTree {
    /// An empty tree.
    pub fn new() -> SourceTree {
        SourceTree::default()
    }

    /// Adds or replaces a file.
    pub fn insert(&mut self, path: &str, contents: &str) {
        self.files.insert(path.to_string(), contents.to_string());
    }

    /// Reads a file.
    pub fn get(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(|s| s.as_str())
    }

    /// Replaces a file's contents, returning false if absent.
    pub fn set(&mut self, path: &str, contents: String) -> bool {
        match self.files.get_mut(path) {
            Some(slot) => {
                *slot = contents;
                true
            }
            None => false,
        }
    }

    /// Removes a file.
    pub fn remove(&mut self, path: &str) -> Option<String> {
        self.files.remove(path)
    }

    /// Iterates `(path, contents)` in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// All paths, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(|k| k.as_str())
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the tree has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// True if `path` is a header (`include/…`, `.kh`).
    pub fn is_header(path: &str) -> bool {
        path.ends_with(".kh")
    }
}

impl FromIterator<(String, String)> for SourceTree {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> SourceTree {
        SourceTree {
            files: iter.into_iter().collect(),
        }
    }
}

/// Compiles a single `.kc` unit with no shared headers.
pub fn compile_unit(name: &str, src: &str, opt: &Options) -> Result<Object, CompileError> {
    compile_unit_with(name, src, opt, &HeaderContext::default())
}

/// Compiles a single `.kc` unit against header declarations.
pub fn compile_unit_with(
    name: &str,
    src: &str,
    opt: &Options,
    headers: &HeaderContext,
) -> Result<Object, CompileError> {
    let unit = parse_unit(name, src)?;
    compile_parsed(unit, opt, headers)
}

/// Checks a parsed unit once, optimises it and generates its object.
fn compile_parsed(
    mut unit: Unit,
    opt: &Options,
    headers: &HeaderContext,
) -> Result<Object, CompileError> {
    let mut sema = check_unit_with(&unit, headers)?;
    if opt.opt_level >= 1 {
        fold_unit(&mut unit, &sema);
        inline_unit(&mut unit, opt);
        // Inlining drops the statics it absorbed everywhere; nothing else
        // it does changes what the checker collected.
        let kept: HashSet<&str> = unit.functions().map(|f| f.name.as_str()).collect();
        sema.functions
            .retain(|name, _| kept.contains(name.as_str()));
    }
    gen_unit(&unit, &sema, opt)
}

/// Builds every unit of a tree, returning one object per `.kc`/`.ks`
/// file.
pub fn build_tree(tree: &SourceTree, opt: &Options) -> Result<ObjectSet, CompileError> {
    build_tree_cached(tree, opt, &BuildCache::new()).map(|(set, _)| set)
}

/// Fingerprints every header a `.kc` unit can see: the tree's `.kh`
/// files, folded in sorted path order.
fn headers_fingerprint(tree: &SourceTree) -> u64 {
    let mut fp = Fingerprint::new();
    for (path, src) in tree.iter() {
        if SourceTree::is_header(path) {
            fp.str_field(path).str_field(src);
        }
    }
    fp.finish()
}

/// The content-addressed cache key of one compilation unit: its path and
/// source, the headers it can see (`.ks` assembly sees none), and the
/// build [`Options`].
fn unit_fingerprint(path: &str, src: &str, opt_fp: u64, headers_fp: Option<u64>) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64_field(opt_fp);
    if let Some(h) = headers_fp {
        fp.u64_field(h);
    }
    fp.str_field(path).str_field(src);
    fp.finish()
}

/// [`build_tree`] through a shared [`BuildCache`]: units whose
/// fingerprint (source + visible headers + options) is cached are served
/// without recompiling, and are byte-identical to a cold build. Returns
/// the built set and this build's cache traffic.
///
/// A hit puts the cached object itself into the set, so a fully warm
/// build copies nothing. Headers are parsed lazily — a fully warm build
/// never re-parses them.
pub fn build_tree_cached(
    tree: &SourceTree,
    opt: &Options,
    cache: &BuildCache,
) -> Result<(ObjectSet, BuildStats), CompileError> {
    let opt_fp = options_fingerprint(opt);
    let headers_fp = headers_fingerprint(tree);
    let mut headers: Option<HeaderContext> = None;
    let mut stats = BuildStats::default();
    let mut set = ObjectSet::new();
    for (path, src) in tree.iter() {
        if SourceTree::is_header(path) {
            continue;
        }
        let (key, is_asm) = if path.ends_with(".ks") {
            (unit_fingerprint(path, src, opt_fp, None), true)
        } else if path.ends_with(".kc") {
            (unit_fingerprint(path, src, opt_fp, Some(headers_fp)), false)
        } else {
            continue; // READMEs, configs, etc.
        };
        if let Some(obj) = cache.lookup(key) {
            stats.hits += 1;
            set.insert(obj);
            continue;
        }
        stats.misses += 1;
        let obj = if is_asm {
            assemble_unit(path, src, opt)?
        } else {
            let ctx = match &headers {
                Some(ctx) => ctx,
                None => headers.insert(parse_headers(tree)?),
            };
            compile_unit_with(path, src, opt, ctx)?
        };
        // The cache and the set share a clone, not the compiled object:
        // a clone allocates exactly each vector's length, so no cache
        // entry keeps the compiler's spare capacity alive.
        let shared = Arc::new(obj.clone());
        stats.evictions += cache.store(key, Arc::clone(&shared));
        set.insert(shared);
    }
    Ok((set, stats))
}

/// Computes, per compilation unit, which functions the optimiser inlines
/// where under the given options — the measurement behind the paper's
/// §6.3 inlining statistics (20 of 64 patches modify an inlined function;
/// only 4 say `inline`).
pub fn tree_inline_report(
    tree: &SourceTree,
    opt: &Options,
) -> Result<std::collections::BTreeMap<String, crate::inline::InlineReport>, CompileError> {
    let headers = parse_headers(tree)?;
    let mut out = std::collections::BTreeMap::new();
    for (path, src) in tree.iter() {
        if SourceTree::is_header(path) || !path.ends_with(".kc") {
            continue;
        }
        let mut unit = parse_unit(path, src)?;
        let sema = check_unit_with(&unit, &headers)?;
        if opt.opt_level >= 1 {
            fold_unit(&mut unit, &sema);
        }
        out.insert(path.to_string(), inline_unit(&mut unit, opt));
    }
    Ok(out)
}

/// Parses a tree and returns each unit's function definitions (name,
/// `inline`-declared flag), for corpus statistics.
pub fn tree_function_index(
    tree: &SourceTree,
) -> Result<std::collections::BTreeMap<String, Vec<(String, bool)>>, CompileError> {
    let mut out = std::collections::BTreeMap::new();
    for (path, src) in tree.iter() {
        if SourceTree::is_header(path) || !path.ends_with(".kc") {
            continue;
        }
        let unit = parse_unit(path, src)?;
        out.insert(
            path.to_string(),
            unit.functions()
                .map(|f| (f.name.clone(), f.is_inline))
                .collect(),
        );
    }
    Ok(out)
}

/// Parses the tree's headers into a shared [`HeaderContext`].
pub fn parse_headers(tree: &SourceTree) -> Result<HeaderContext, CompileError> {
    let mut units = Vec::new();
    for (path, src) in tree.iter() {
        if SourceTree::is_header(path) {
            units.push(parse_unit(path, src)?);
        }
    }
    HeaderContext::from_units(&units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let mut tree = SourceTree::new();
        tree.insert(
            "include/sched.kh",
            "struct task { int pid; struct task *next; };",
        );
        tree.insert(
            "kernel/sched.kc",
            "struct task *runqueue;\
             int pick_next() { if (runqueue) { return runqueue->pid; } return 0; }",
        );
        tree.insert(
            "kernel/sys.kc",
            "int uptime;\
             int sys_uptime() { return uptime; }",
        );
        let a = build_tree(&tree, &Options::distro()).unwrap();
        let b = build_tree(&tree, &Options::distro()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn function_sections_gives_per_function_text() {
        let mut tree = SourceTree::new();
        tree.insert(
            "fs/open.kc",
            "int a() { return 1; } int b() { return a() + 1; }",
        );
        let set = build_tree(&tree, &Options::pre_post()).unwrap();
        let obj = set.get("fs/open.kc").unwrap();
        assert!(obj.section_by_name(".text.a").is_some());
        assert!(obj.section_by_name(".text.b").is_some());
        assert!(obj.section_by_name(".text").is_none());
    }

    #[test]
    fn monolithic_build_gives_single_text() {
        let mut tree = SourceTree::new();
        tree.insert(
            "fs/open.kc",
            "int a(int x) { if (x > 3) { return 1; } return 2; } int b() { return a(9) + 1; }",
        );
        let set = build_tree(&tree, &Options::distro()).unwrap();
        let obj = set.get("fs/open.kc").unwrap();
        assert!(obj.section_by_name(".text").is_some());
        assert!(obj.section_by_name(".text.a").is_none());
        // Both function symbols exist within .text.
        assert!(obj.symbol_by_name("a").is_some());
        assert!(obj.symbol_by_name("b").is_some());
    }

    #[test]
    fn one_line_change_shifts_monolithic_text() {
        // The §3.1 phenomenon: changing one function perturbs bytes across
        // the unit's single .text (relative jumps, label offsets).
        let base = "int f(int x) { if (x) { return 1; } return 2; }\
                    int g(int y) { return f(y) + f(y + 1); }";
        let patched = "int f(int x) { if (x) { if (x > 2) { return 3; } return 1; } return 2; }\
                       int g(int y) { return f(y) + f(y + 1); }";
        let mut t1 = SourceTree::new();
        t1.insert("m.kc", base);
        let mut t2 = SourceTree::new();
        t2.insert("m.kc", patched);
        let o1 = build_tree(&t1, &Options::distro()).unwrap();
        let o2 = build_tree(&t2, &Options::distro()).unwrap();
        let s1 = &o1
            .get("m.kc")
            .unwrap()
            .section_by_name(".text")
            .unwrap()
            .1
            .data;
        let s2 = &o2
            .get("m.kc")
            .unwrap()
            .section_by_name(".text")
            .unwrap()
            .1
            .data;
        assert_ne!(s1, s2);
    }

    #[test]
    fn unchanged_function_sections_identical_across_patch() {
        // With -ffunction-sections, a patch to f leaves g's section bytes
        // and relocations identical (paper §3.2).
        let base = "int f(int x) { return x + 1; }\
                    int g(int y) { return helper(y); }";
        let patched = "int f(int x) { return x + 2; }\
                       int g(int y) { return helper(y); }";
        let o1 = compile_unit("m.kc", base, &Options::pre_post()).unwrap();
        let o2 = compile_unit("m.kc", patched, &Options::pre_post()).unwrap();
        let g1 = o1.section_by_name(".text.g").unwrap().1;
        let g2 = o2.section_by_name(".text.g").unwrap().1;
        assert_eq!(g1.data, g2.data);
        assert_eq!(g1.relocs, g2.relocs);
        let f1 = o1.section_by_name(".text.f").unwrap().1;
        let f2 = o2.section_by_name(".text.f").unwrap().1;
        assert_ne!(f1.data, f2.data);
    }

    #[test]
    fn compiler_version_changes_bytes() {
        let src = "int f(int a, int b) { return a * b + 3; }";
        let v1 = compile_unit(
            "m.kc",
            src,
            &Options {
                cc_version: 1,
                ..Options::pre_post()
            },
        )
        .unwrap();
        let v2 = compile_unit(
            "m.kc",
            src,
            &Options {
                cc_version: 2,
                ..Options::pre_post()
            },
        )
        .unwrap();
        assert_ne!(
            v1.section_by_name(".text.f").unwrap().1.data,
            v2.section_by_name(".text.f").unwrap().1.data
        );
    }

    #[test]
    fn cached_build_is_byte_identical_to_cold() {
        let mut tree = SourceTree::new();
        tree.insert("include/defs.kh", "struct pair { int a; int b; };");
        tree.insert("fs/a.kc", "int f(int x) { return x + 1; }");
        tree.insert("fs/b.kc", "int g(int y) { return y * 2; }");
        tree.insert("arch/e.ks", "entry:\n    ret\n");
        let cold = build_tree(&tree, &Options::pre_post()).unwrap();
        let cache = BuildCache::new();
        let (first, s1) = build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        let (warm, s2) = build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        assert_eq!(cold, first);
        assert_eq!(cold, warm);
        assert_eq!(s1.misses, 3, "cold build compiles every unit");
        assert_eq!(s1.hits, 0);
        assert_eq!(s2.hits, 3, "warm build compiles nothing");
        assert_eq!(s2.misses, 0);
    }

    #[test]
    fn cached_builds_share_their_objects() {
        let mut tree = SourceTree::new();
        tree.insert("include/defs.kh", "struct pair { int a; int b; };");
        tree.insert("fs/a.kc", "int f(int x) { return x + 1; }");
        tree.insert("arch/e.ks", "entry:\n    ret\n");
        let cache = BuildCache::new();
        let (cold, _) = build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        let (warm, _) = build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        let (again, _) = build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        assert_eq!(cold.len(), 2);
        for (name, obj) in cold.iter() {
            assert!(std::ptr::eq(obj, warm.get(name).unwrap()), "{name} copied");
            assert!(std::ptr::eq(obj, again.get(name).unwrap()), "{name} copied");
        }
    }

    #[test]
    fn editing_one_unit_recompiles_only_it() {
        let mut tree = SourceTree::new();
        tree.insert("fs/a.kc", "int f(int x) { return x + 1; }");
        tree.insert("fs/b.kc", "int g(int y) { return y * 2; }");
        tree.insert("fs/c.kc", "int h(int z) { return z - 3; }");
        let cache = BuildCache::new();
        build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        tree.set("fs/b.kc", "int g(int y) { return y * 4; }".into());
        let (set, stats) = build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        assert_eq!(stats.misses, 1, "only the edited unit recompiles");
        assert_eq!(stats.hits, 2);
        assert_eq!(set, build_tree(&tree, &Options::pre_post()).unwrap());
    }

    #[test]
    fn header_edit_invalidates_kc_but_not_ks() {
        let mut tree = SourceTree::new();
        tree.insert("include/defs.kh", "struct pair { int a; int b; };");
        tree.insert("fs/a.kc", "int f(int x) { return x + 1; }");
        tree.insert("arch/e.ks", "entry:\n    ret\n");
        let cache = BuildCache::new();
        build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        tree.set(
            "include/defs.kh",
            "struct pair { int a; int b; int c; };".into(),
        );
        let (set, stats) = build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        // The .kc unit sees headers and must recompile; the assembly
        // unit does not and must hit.
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(set, build_tree(&tree, &Options::pre_post()).unwrap());
    }

    #[test]
    fn option_change_misses_the_cache() {
        let mut tree = SourceTree::new();
        tree.insert("m.kc", "int f() { return 7; }");
        let cache = BuildCache::new();
        build_tree_cached(&tree, &Options::pre_post(), &cache).unwrap();
        let (set, stats) = build_tree_cached(&tree, &Options::distro(), &cache).unwrap();
        assert_eq!(stats.misses, 1, "different Options must not share objects");
        assert_eq!(set, build_tree(&tree, &Options::distro()).unwrap());
    }

    #[test]
    fn non_source_files_ignored() {
        let mut tree = SourceTree::new();
        tree.insert("README", "not code");
        tree.insert("m.kc", "int f() { return 0; }");
        let set = build_tree(&tree, &Options::distro()).unwrap();
        assert_eq!(set.len(), 1);
    }
}
