//! Update packaging: extracting replacement code into primary modules and
//! bundling pre code into helper modules (paper §3.2, §5.1).
//!
//! For each affected optimisation unit the pack carries:
//!
//! * a **primary** object — the changed functions' *post* sections, any
//!   new data, any read-only data the replacement code references, and
//!   the unit's Ksplice hook sections. Its dangling references (to
//!   unchanged functions, shared mutable data, ambiguous statics) stay
//!   as undefined symbols for run-pre matching to resolve.
//! * a **helper** object — the *entire* pre optimisation unit, code and
//!   metadata, which run-pre matching walks against the running kernel.
//!   "Since the helper module must contain the entire optimization unit
//!   corresponding to each patched function, it can be much larger than
//!   the primary module" (§5.1) — measurable here as `helper_size()` vs
//!   `primary_size()`.

use std::collections::BTreeSet;

use ksplice_object::{Object, ObjectSet, ParseError, Reader, SectionKind, SymKind, Symbol, Writer};

use crate::differ::{BuildDiff, UnitDiff};

/// The pack for one affected optimisation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitPack {
    /// Compilation unit path, e.g. `fs/exec.kc`.
    pub unit: String,
    /// The entire pre object (helper module payload).
    pub helper: Object,
    /// The replacement-code object (primary module payload).
    pub primary: Object,
    /// `(section name, function symbol name)` of every function the
    /// update replaces (new functions excluded — nothing to patch over).
    pub replaced_fns: Vec<(String, String)>,
}

/// A complete hot update, the output of `ksplice-create`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePack {
    /// Human-readable update id (e.g. the CVE name).
    pub id: String,
    /// One helper/primary pair per affected optimisation unit.
    pub units: Vec<UnitPack>,
    /// The underlying object diff, kept for reporting.
    pub diff: BuildDiff,
}

impl UpdatePack {
    /// Total serialized size of all helper objects (bytes).
    pub fn helper_size(&self) -> usize {
        self.units.iter().map(|u| u.helper.to_bytes().len()).sum()
    }

    /// Total serialized size of all primary objects (bytes).
    pub fn primary_size(&self) -> usize {
        self.units.iter().map(|u| u.primary.to_bytes().len()).sum()
    }

    /// Total number of functions this update replaces.
    pub fn replaced_fn_count(&self) -> usize {
        self.units.iter().map(|u| u.replaced_fns.len()).sum()
    }
}

/// Serialization: the "update tarball" `ksplice-create` writes and
/// `ksplice-apply` consumes (paper §5's `ksplice-8c4o6u.tar.gz`).
impl UpdatePack {
    const MAGIC: &'static [u8; 4] = b"KUPD";

    /// Serializes the pack to its on-disk representation: the magic,
    /// then the id, each unit's name, helper and primary objects and
    /// replaced `(section, function)` pairs, all as [`Writer::blob`]s
    /// behind `u32` counts.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(Self::MAGIC);
        w.blob(self.id.as_bytes());
        w.u32(self.units.len() as u32);
        for u in &self.units {
            w.blob(u.unit.as_bytes());
            w.blob(&u.helper.to_bytes());
            w.blob(&u.primary.to_bytes());
            w.u32(u.replaced_fns.len() as u32);
            for (sec, f) in &u.replaced_fns {
                w.blob(sec.as_bytes());
                w.blob(f.as_bytes());
            }
        }
        w.into_bytes()
    }

    /// Parses a pack written by [`UpdatePack::to_bytes`].
    pub fn parse(bytes: &[u8]) -> Result<UpdatePack, String> {
        // The pack's own framing running short is a truncated pack; an
        // object inside it reports its own errors.
        let frame = |e: ParseError| match e {
            ParseError::Truncated => "truncated update pack".to_string(),
            e => e.to_string(),
        };
        let object = |b: &[u8]| Object::parse(b).map_err(|e| e.to_string());
        let mut r = Reader::new(bytes);
        if r.take(4).map_err(frame)? != Self::MAGIC {
            return Err("not a ksplice update pack".to_string());
        }
        let id = r.str().map_err(frame)?.to_string();
        let nunits = r.u32().map_err(frame)?;
        let mut units = Vec::new();
        for _ in 0..nunits {
            let unit = r.str().map_err(frame)?.to_string();
            let helper = object(r.blob().map_err(frame)?)?;
            let primary = object(r.blob().map_err(frame)?)?;
            let nfns = r.u32().map_err(frame)?;
            let mut replaced_fns = Vec::new();
            for _ in 0..nfns {
                let sec = r.str().map_err(frame)?.to_string();
                let f = r.str().map_err(frame)?.to_string();
                replaced_fns.push((sec, f));
            }
            units.push(UnitPack {
                unit,
                helper,
                primary,
                replaced_fns,
            });
        }
        if r.remaining() != 0 {
            return Err("trailing bytes in update pack".to_string());
        }
        Ok(UpdatePack {
            id,
            units,
            diff: BuildDiff::default(),
        })
    }
}

/// Builds the per-unit packs from a diff plus the two builds.
///
/// `data_changes` in the diff do **not** stop packaging here — policy
/// (abort vs programmer-supplied custom code) is decided by
/// `ksplice-create` (see [`crate::create`]).
pub fn build_packs(id: &str, pre: &ObjectSet, post: &ObjectSet, diff: &BuildDiff) -> UpdatePack {
    let mut units = Vec::new();
    for ud in diff.affected() {
        let post_obj = post.get(&ud.unit).expect("diffed unit exists in post");
        // A unit new in post has no pre counterpart; its helper is empty
        // (there is nothing in the running kernel to match).
        let helper = pre
            .get(&ud.unit)
            .cloned()
            .unwrap_or_else(|| Object::new(&ud.unit));
        let primary = extract_primary(post_obj, ud);
        let replaced_fns = ud
            .changed_fns
            .iter()
            .filter(|s| !ud.new_fns.contains(s))
            .map(|sec| {
                let fn_name = sec.strip_prefix(".text.").unwrap_or(sec).to_string();
                (sec.clone(), fn_name)
            })
            .collect();
        units.push(UnitPack {
            unit: ud.unit.clone(),
            helper,
            primary,
            replaced_fns,
        });
    }
    UpdatePack {
        id: id.to_string(),
        units,
        diff: diff.clone(),
    }
}

/// Extracts the replacement-code object for one unit.
pub fn extract_primary(post: &Object, ud: &UnitDiff) -> Object {
    // Seed: changed function sections, new data sections, hook sections.
    let mut wanted: BTreeSet<String> = ud.changed_fns.iter().cloned().collect();
    wanted.extend(ud.new_data.iter().cloned());
    for sec in &post.sections {
        if sec.kind == SectionKind::Note && sec.name.starts_with(".ksplice.") {
            wanted.insert(sec.name.clone());
        }
    }
    // Transitive closure: pull in *read-only* local data that wanted code
    // references (string literals; duplicating immutable bytes is safe),
    // but never pre-existing mutable data — replacement code must share
    // the running kernel's instances of those.
    loop {
        let mut grew = false;
        for sec in &post.sections {
            if !wanted.contains(&sec.name) {
                continue;
            }
            let referenced: Vec<usize> = sec.relocs.iter().map(|r| r.symbol).collect();
            for idx in referenced {
                let Some(sym) = post.symbols.get(idx) else {
                    continue;
                };
                let Some(def) = sym.def else { continue };
                let Some(target) = post.sections.get(def.section) else {
                    continue;
                };
                let is_rodata = target.is_alloc() && !target.flags.write && !target.flags.exec;
                let is_new_data = ud.new_data.contains(&target.name);
                if (is_rodata || is_new_data) && wanted.insert(target.name.clone()) {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    let mut out = Object::new(&post.name);
    // Copy wanted sections in original order, remembering new indices.
    let mut sec_map: Vec<Option<usize>> = vec![None; post.sections.len()];
    for (i, sec) in post.sections.iter().enumerate() {
        if wanted.contains(&sec.name) {
            let mut copy = sec.clone();
            copy.relocs.clear();
            sec_map[i] = Some(out.add_section(copy));
        }
    }
    // Copy symbols: defined-in-copied-section symbols stay defined;
    // anything else a reloc needs becomes undefined.
    let mut sym_map: Vec<Option<usize>> = vec![None; post.symbols.len()];
    for (i, sym) in post.symbols.iter().enumerate() {
        let copied_def = sym
            .def
            .and_then(|d| sec_map.get(d.section).copied().flatten())
            .map(|new_sec| {
                let mut s = sym.clone();
                s.def = Some(ksplice_object::SymbolDef {
                    section: new_sec,
                    ..sym.def.expect("checked above")
                });
                s
            });
        if let Some(s) = copied_def {
            sym_map[i] = Some(out.add_symbol(s));
        }
    }
    // Relocations of copied sections; unknown targets become undefined
    // symbols by name.
    for (i, sec) in post.sections.iter().enumerate() {
        let Some(new_idx) = sec_map[i] else { continue };
        for r in &sec.relocs {
            let new_sym = match sym_map.get(r.symbol).copied().flatten() {
                Some(s) => s,
                None => {
                    let name = post
                        .symbols
                        .get(r.symbol)
                        .map(|s| s.name.clone())
                        .unwrap_or_default();
                    let idx = match out.symbol_by_name(&name) {
                        Some((idx, _)) => idx,
                        None => out.add_symbol(Symbol {
                            name,
                            binding: ksplice_object::Binding::Global,
                            kind: SymKind::NoType,
                            def: None,
                        }),
                    };
                    sym_map[r.symbol] = Some(idx);
                    idx
                }
            };
            out.sections[new_idx].relocs.push(ksplice_object::Reloc {
                symbol: new_sym,
                ..r.clone()
            });
        }
    }
    debug_assert!(out.validate().is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differ::diff_builds;
    use ksplice_lang::{build_tree, Options, SourceTree};

    fn build(files: &[(&str, &str)]) -> ObjectSet {
        let t: SourceTree = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        build_tree(&t, &Options::pre_post()).unwrap()
    }

    const PRE: &str = "int limit = 10;\
        static int debug;\
        int helper_fn(int x) { int i; int s; s = x; for (i = 0; i < 3; i = i + 1) { s = s + i; } return s; }\
        int check(int x) { debug = debug + 1; if (x > limit) { return 0 - 1; } return helper_fn(x); }";

    const POST: &str = "int limit = 10;\
        static int debug;\
        int helper_fn(int x) { int i; int s; s = x; for (i = 0; i < 3; i = i + 1) { s = s + i; } return s; }\
        int check(int x) { debug = debug + 1; if (x >= limit) { printk(\"clamped\"); return 0 - 1; } return helper_fn(x); }";

    fn pack() -> UpdatePack {
        let pre = build(&[("m.kc", PRE)]);
        let post = build(&[("m.kc", POST)]);
        let diff = diff_builds(&pre, &post);
        build_packs("cve-test", &pre, &post, &diff)
    }

    #[test]
    fn primary_contains_only_changed_function() {
        let p = pack();
        assert_eq!(p.units.len(), 1);
        let primary = &p.units[0].primary;
        assert!(primary.section_by_name(".text.check").is_some());
        assert!(primary.section_by_name(".text.helper_fn").is_none());
        // The new string literal travels with the replacement code.
        assert!(
            primary
                .sections
                .iter()
                .any(|s| s.name.starts_with(".rodata.")),
            "expected the printk string to be extracted"
        );
    }

    #[test]
    fn shared_mutable_data_not_duplicated() {
        let p = pack();
        let primary = &p.units[0].primary;
        // `limit` and `debug` are pre-existing mutable data: replacement
        // code must reference the live instances, not fresh copies.
        assert!(primary.section_by_name(".data.limit").is_none());
        assert!(primary.section_by_name(".bss.debug").is_none());
        // They appear as undefined symbols instead.
        let (_, limit) = primary.symbol_by_name("limit").unwrap();
        assert!(limit.def.is_none());
        let (_, debug) = primary.symbol_by_name("debug").unwrap();
        assert!(debug.def.is_none());
    }

    #[test]
    fn unchanged_callee_is_an_undefined_reference() {
        let p = pack();
        let primary = &p.units[0].primary;
        let (_, helper) = primary.symbol_by_name("helper_fn").unwrap();
        assert!(helper.def.is_none(), "helper_fn must resolve to run code");
    }

    #[test]
    fn helper_is_the_whole_unit_and_larger() {
        let p = pack();
        let helper = &p.units[0].helper;
        assert!(helper.section_by_name(".text.check").is_some());
        assert!(helper.section_by_name(".text.helper_fn").is_some());
        assert!(helper.section_by_name(".data.limit").is_some());
        // §5.1: the helper can be much larger than the primary.
        assert!(p.helper_size() > p.primary_size());
    }

    #[test]
    fn replaced_fn_list_excludes_new_functions() {
        let pre = build(&[(
            "m.kc",
            "int f(int x) { if (x > 1) { return 1; } return 2; }",
        )]);
        let post = build(&[(
            "m.kc",
            "int fresh(int v) { int i; int s; s = v; for (i = 0; i < 9; i = i + 1) { s = s + i * v; } return s; }\
             int f(int x) { if (x > 1) { return fresh(x); } return 2; }",
        )]);
        let diff = diff_builds(&pre, &post);
        let pack = build_packs("t", &pre, &post, &diff);
        let names: Vec<&str> = pack.units[0]
            .replaced_fns
            .iter()
            .map(|(_, n)| n.as_str())
            .collect();
        assert_eq!(names, vec!["f"]);
        // But `fresh` still ships in the primary.
        assert!(pack.units[0]
            .primary
            .section_by_name(".text.fresh")
            .is_some());
    }

    #[test]
    fn pack_serialization_roundtrip() {
        let p = pack();
        let bytes = p.to_bytes();
        let back = UpdatePack::parse(&bytes).unwrap();
        assert_eq!(back.id, p.id);
        assert_eq!(back.units.len(), p.units.len());
        assert_eq!(back.units[0].helper, p.units[0].helper);
        assert_eq!(back.units[0].primary, p.units[0].primary);
        assert_eq!(back.units[0].replaced_fns, p.units[0].replaced_fns);
        assert!(UpdatePack::parse(b"XXXX").is_err());
        assert!(UpdatePack::parse(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn hook_sections_ship_in_primary() {
        let pre = build(&[(
            "m.kc",
            "int f(int x) { if (x > 1) { return 1; } return 2; }",
        )]);
        let post = build(&[(
            "m.kc",
            "int f(int x) { if (x > 1) { return 3; } return 2; }\
             int myupdate() { printk(\"fixup ran\"); return 0; }\
             ksplice_apply(myupdate);",
        )]);
        let diff = diff_builds(&pre, &post);
        let pack = build_packs("t", &pre, &post, &diff);
        let primary = &pack.units[0].primary;
        let (_, hooks) = primary.section_by_name(".ksplice.apply").unwrap();
        assert_eq!(hooks.relocs.len(), 1);
        assert!(primary.section_by_name(".text.myupdate").is_some());
    }
}
