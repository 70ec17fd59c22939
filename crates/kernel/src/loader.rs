//! The in-kernel linker: boot-time image linking and run-time module
//! loading.
//!
//! Two entry points:
//!
//! * [`load_kernel_image`] links a whole build ([`ObjectSet`]) into
//!   memory at boot — the moral equivalent of `vmlinux` plus early boot
//!   relocation. All symbols (including file-scope statics) land in
//!   kallsyms, as in Linux.
//! * [`load_module`] loads one relocatable object at run time, the
//!   `insmod` path Ksplice uses for its helper and primary modules
//!   (paper §5.1). Undefined references resolve against *exported*
//!   (unique global) symbols only; with `defer_unresolved`, unresolvable
//!   relocations are returned as [`PendingReloc`]s for Ksplice to fulfil
//!   after run-pre matching discovers the right addresses (§4.3).

use std::collections::BTreeMap;
use std::fmt;

use ksplice_object::{reloc, Object, ObjectSet, RelocKind, SectionKind, SymKind};

use crate::kallsyms::{KSym, Kallsyms};
use crate::mem::{MemFault, Memory, Perms};

/// A relocation the loader could not resolve, awaiting an address from
/// run-pre matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingReloc {
    /// Section the field lives in.
    pub section: String,
    /// Absolute address of the to-be-patched field.
    pub addr: u64,
    /// Relocation kind (absolute or ip-relative).
    pub kind: RelocKind,
    /// Symbol name awaiting resolution.
    pub symbol: String,
    /// Constant added to the resolved address.
    pub addend: i64,
}

/// A module (or one compilation unit of the boot image) resident in
/// memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedModule {
    /// Module name (or compilation-unit name for boot-image units).
    pub name: String,
    /// Section name → (load address, size). Non-alloc sections absent.
    pub sections: BTreeMap<String, (u64, u64)>,
    /// Defined symbols: (name, addr, global, is_func, size).
    pub symbols: Vec<(String, u64, bool, bool, u64)>,
    /// Unresolved relocations (empty unless loaded with
    /// `defer_unresolved`).
    pub pending: Vec<PendingReloc>,
}

impl LoadedModule {
    /// Address of a defined symbol by name (first match).
    pub fn symbol_addr(&self, name: &str) -> Option<u64> {
        self.symbols
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, a, ..)| a)
    }

    /// Address and size of a section by name.
    pub fn section(&self, name: &str) -> Option<(u64, u64)> {
        self.sections.get(name).copied()
    }
}

/// Linking errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// An undefined symbol had no unique exported definition.
    Unresolved {
        /// Module being linked.
        module: String,
        /// The symbol that failed to resolve.
        symbol: String,
    },
    /// Two units exported the same global symbol.
    DuplicateGlobal {
        /// The doubly-defined symbol.
        symbol: String,
    },
    /// The arena is out of space.
    OutOfMemory {
        /// Section that failed to fit.
        section: String,
    },
    /// A relocation overflowed or landed out of bounds.
    Reloc(String),
    /// A raw memory fault while copying section data.
    Mem(MemFault),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Unresolved { module, symbol } => {
                write!(f, "{module}: unresolved symbol `{symbol}`")
            }
            LinkError::DuplicateGlobal { symbol } => {
                write!(f, "duplicate exported symbol `{symbol}`")
            }
            LinkError::OutOfMemory { section } => {
                write!(f, "out of memory loading section {section}")
            }
            LinkError::Reloc(m) => write!(f, "relocation failed: {m}"),
            LinkError::Mem(e) => write!(f, "memory fault while loading: {e}"),
        }
    }
}

impl std::error::Error for LinkError {}

impl From<MemFault> for LinkError {
    fn from(e: MemFault) -> LinkError {
        LinkError::Mem(e)
    }
}

/// Section permissions from its flags.
fn perms_for(sec: &ksplice_object::Section) -> Perms {
    if sec.flags.exec {
        Perms::TEXT
    } else if sec.flags.write {
        Perms::DATA
    } else {
        Perms::RO
    }
}

/// Placed sections: name → (address, size).
type PlacedSections = BTreeMap<String, (u64, u64)>;
/// Defined symbols: (name, address, is_global, is_func, size).
type PlacedSymbols = Vec<(String, u64, bool, bool, u64)>;

/// Allocates and copies one object's alloc sections; defines its symbols.
/// Relocations are **not** applied here. A section that does not fit
/// fails the placement with [`LinkError::OutOfMemory`], leaving the
/// regions of the sections before it mapped ([`load_module`] unmaps
/// them).
fn place_object(
    mem: &mut Memory,
    obj: &Object,
) -> Result<(PlacedSections, PlacedSymbols), LinkError> {
    // Every region first, in section order, so an object that cannot
    // fit fails before any byte is written.
    let mut placed = Vec::new();
    for sec in &obj.sections {
        if !sec.is_alloc() || sec.kind == SectionKind::Note {
            continue;
        }
        let name = format!("{}:{}", obj.name, sec.name);
        let align = sec.align.max(1) as u64;
        let Some(addr) = mem.alloc_region(&name, sec.size.max(1), align, perms_for(sec)) else {
            return Err(LinkError::OutOfMemory { section: name });
        };
        placed.push((sec, addr));
    }
    let mut sections = BTreeMap::new();
    for (sec, addr) in placed {
        if sec.kind == SectionKind::Progbits && !sec.data.is_empty() {
            mem.poke(addr, &sec.data)?;
        }
        sections.insert(sec.name.clone(), (addr, sec.size));
    }
    let mut symbols = Vec::new();
    for sym in &obj.symbols {
        let Some(def) = sym.def else { continue };
        if sym.kind == SymKind::Section || sym.name.is_empty() {
            continue;
        }
        let Some(sec) = obj.sections.get(def.section) else {
            continue;
        };
        let Some(&(base, _)) = sections.get(&sec.name) else {
            continue; // symbol in a non-alloc section
        };
        symbols.push((
            sym.name.clone(),
            base + def.offset,
            sym.binding == ksplice_object::Binding::Global,
            sym.kind == SymKind::Func,
            def.size,
        ));
    }
    Ok((sections, symbols))
}

/// Applies one object's relocations given its placement. `resolve` maps an
/// undefined symbol name to an address; unresolvable relocations either
/// error or are deferred.
fn relocate_object(
    mem: &mut Memory,
    obj: &Object,
    sections: &BTreeMap<String, (u64, u64)>,
    resolve: &dyn Fn(&str) -> Option<u64>,
    defer_unresolved: bool,
) -> Result<Vec<PendingReloc>, LinkError> {
    let mut pending = Vec::new();
    // Local symbol addresses by index.
    let sym_addr = |idx: usize| -> Option<u64> {
        let sym = obj.symbols.get(idx)?;
        let def = sym.def?;
        let sec = obj.sections.get(def.section)?;
        let &(base, _) = sections.get(&sec.name)?;
        Some(base + def.offset)
    };
    for sec in &obj.sections {
        let Some(&(base, _)) = sections.get(&sec.name) else {
            continue;
        };
        for r in &sec.relocs {
            let sym = obj
                .symbols
                .get(r.symbol)
                .ok_or_else(|| LinkError::Reloc(format!("bad symbol index in {}", sec.name)))?;
            let target = match sym_addr(r.symbol) {
                Some(a) => Some(a),
                None => resolve(&sym.name),
            };
            match target {
                Some(s) => {
                    apply_reloc_at(mem, r.kind, base + r.offset, s, r.addend)?;
                }
                None if defer_unresolved => pending.push(PendingReloc {
                    section: sec.name.clone(),
                    addr: base + r.offset,
                    kind: r.kind,
                    symbol: sym.name.clone(),
                    addend: r.addend,
                }),
                None => {
                    return Err(LinkError::Unresolved {
                        module: obj.name.clone(),
                        symbol: sym.name.clone(),
                    })
                }
            }
        }
    }
    Ok(pending)
}

/// Patches a relocation field in kernel memory (also used by Ksplice to
/// fulfil deferred relocations after run-pre matching).
pub fn apply_reloc_at(
    mem: &mut Memory,
    kind: RelocKind,
    field_addr: u64,
    s: u64,
    addend: i64,
) -> Result<(), LinkError> {
    let value = reloc::stored_value(kind, s, addend, field_addr)
        .map_err(|e| LinkError::Reloc(e.to_string()))?;
    let w = kind.width();
    mem.poke(field_addr, &value.to_le_bytes()[..w])?;
    Ok(())
}

/// Links a whole build into memory at boot; returns one [`LoadedModule`]
/// per compilation unit, in deterministic order.
pub fn load_kernel_image(
    mem: &mut Memory,
    syms: &mut Kallsyms,
    set: &ObjectSet,
    natives: &dyn Fn(&str) -> Option<u64>,
) -> Result<Vec<LoadedModule>, LinkError> {
    // Pass 1: place everything and collect exported symbols.
    let mut placed = Vec::new();
    let mut globals: BTreeMap<String, u64> = BTreeMap::new();
    for (_, obj) in set.iter() {
        let (sections, symbols) = place_object(mem, obj)?;
        for (name, addr, global, ..) in &symbols {
            if *global && globals.insert(name.clone(), *addr).is_some() {
                return Err(LinkError::DuplicateGlobal {
                    symbol: name.clone(),
                });
            }
        }
        placed.push((obj, sections, symbols));
    }
    // Pass 2: relocate, resolving cross-unit references against exported
    // symbols and the native (built-in) API.
    let mut out = Vec::new();
    for (obj, sections, symbols) in placed {
        let resolve = |name: &str| globals.get(name).copied().or_else(|| natives(name));
        relocate_object(mem, obj, &sections, &resolve, false)?;
        for (name, addr, global, is_func, size) in &symbols {
            syms.insert(KSym {
                name: name.clone(),
                addr: *addr,
                size: *size,
                global: *global,
                is_func: *is_func,
                unit: obj.name.clone(),
            });
        }
        out.push(LoadedModule {
            name: obj.name.clone(),
            sections,
            symbols,
            pending: Vec::new(),
        });
    }
    Ok(out)
}

/// Loads one module at run time. Undefined references resolve against
/// unique exported kallsyms entries and the native API; with
/// `defer_unresolved` anything else becomes a [`PendingReloc`]. A load
/// that fails unmaps the `<module>:` regions it placed, so the error
/// leaves the region table as it found it.
pub fn load_module(
    mem: &mut Memory,
    syms: &Kallsyms,
    obj: &Object,
    natives: &dyn Fn(&str) -> Option<u64>,
    defer_unresolved: bool,
) -> Result<LoadedModule, LinkError> {
    let resolve = |name: &str| {
        syms.lookup_global(name)
            .map(|s| s.addr)
            .or_else(|| natives(name))
    };
    let loaded = place_object(mem, obj).and_then(|(sections, symbols)| {
        let pending = relocate_object(mem, obj, &sections, &resolve, defer_unresolved)?;
        Ok(LoadedModule {
            name: obj.name.clone(),
            sections,
            symbols,
            pending,
        })
    });
    if loaded.is_err() {
        mem.unmap_prefix(&format!("{}:", obj.name));
    }
    loaded
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksplice_lang::{build_tree, Options, SourceTree};

    fn tree(files: &[(&str, &str)]) -> ObjectSet {
        let t: SourceTree = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        build_tree(&t, &Options::distro()).unwrap()
    }

    #[test]
    fn links_cross_unit_calls() {
        let set = tree(&[
            ("a.kc", "int shared() { return 7; }"),
            ("b.kc", "int caller() { return shared() + 1; }"),
        ]);
        let mut mem = Memory::new();
        let mut syms = Kallsyms::new();
        let mods = load_kernel_image(&mut mem, &mut syms, &set, &|_| None).unwrap();
        assert_eq!(mods.len(), 2);
        assert!(syms.lookup_global("shared").is_some());
        assert!(syms.lookup_global("caller").is_some());
    }

    #[test]
    fn unresolved_symbol_fails_strict() {
        let set = tree(&[("a.kc", "int f() { return missing_fn(); }")]);
        let mut mem = Memory::new();
        let mut syms = Kallsyms::new();
        let err = load_kernel_image(&mut mem, &mut syms, &set, &|_| None).unwrap_err();
        assert!(matches!(err, LinkError::Unresolved { .. }));
    }

    #[test]
    fn natives_satisfy_undefined_symbols() {
        let set = tree(&[("a.kc", "int f() { return kmalloc(64); }")]);
        let mut mem = Memory::new();
        let mut syms = Kallsyms::new();
        load_kernel_image(&mut mem, &mut syms, &set, &|n| {
            (n == "kmalloc").then_some(0xffff_0000)
        })
        .unwrap();
    }

    #[test]
    fn duplicate_export_rejected() {
        let set = tree(&[
            ("a.kc", "int dup() { return 1; }"),
            ("b.kc", "int dup() { return 2; }"),
        ]);
        let mut mem = Memory::new();
        let mut syms = Kallsyms::new();
        let err = load_kernel_image(&mut mem, &mut syms, &set, &|_| None).unwrap_err();
        assert!(matches!(err, LinkError::DuplicateGlobal { .. }));
    }

    #[test]
    fn local_statics_do_not_collide() {
        let set = tree(&[
            ("a.kc", "static int debug; int fa() { return debug; }"),
            ("b.kc", "static int debug; int fb() { return debug; }"),
        ]);
        let mut mem = Memory::new();
        let mut syms = Kallsyms::new();
        load_kernel_image(&mut mem, &mut syms, &set, &|_| None).unwrap();
        // Both statics are in kallsyms under the same name.
        assert_eq!(syms.lookup_name("debug").len(), 2);
        assert!(syms.lookup_global("debug").is_none());
    }

    #[test]
    fn module_defers_unresolved_when_asked() {
        let set = tree(&[("mod.kc", "int probe() { return hidden_static() + 1; }")]);
        let obj = set.get("mod.kc").unwrap();
        let mut mem = Memory::new();
        let syms = Kallsyms::new();
        let m = load_module(&mut mem, &syms, obj, &|_| None, true).unwrap();
        assert_eq!(m.pending.len(), 1);
        assert_eq!(m.pending[0].symbol, "hidden_static");
        assert_eq!(m.pending[0].kind, RelocKind::Pcrel32);
        // Fulfil it later, as Ksplice does after run-pre matching.
        apply_reloc_at(
            &mut mem,
            m.pending[0].kind,
            m.pending[0].addr,
            m.section(".text").unwrap().0, // any in-range target
            m.pending[0].addend,
        )
        .unwrap();
    }

    #[test]
    fn strict_module_load_fails_on_unresolved() {
        let set = tree(&[("mod.kc", "int probe() { return hidden_static(); }")]);
        let obj = set.get("mod.kc").unwrap();
        let mut mem = Memory::new();
        let syms = Kallsyms::new();
        assert!(matches!(
            load_module(&mut mem, &syms, obj, &|_| None, false),
            Err(LinkError::Unresolved { .. })
        ));
    }

    #[test]
    fn data_initialisers_with_relocations_load() {
        let set = tree(&[(
            "ops.kc",
            "int open_impl(int f) { return f; }\
             int fops = &open_impl;\
             int call_open(int f) { return fops(f); }",
        )]);
        let mut mem = Memory::new();
        let mut syms = Kallsyms::new();
        let mods = load_kernel_image(&mut mem, &mut syms, &set, &|_| None).unwrap();
        let fops_addr = mods[0].symbol_addr("fops").unwrap();
        let open_addr = mods[0].symbol_addr("open_impl").unwrap();
        assert_eq!(mem.peek(fops_addr, 8).unwrap(), &open_addr.to_le_bytes());
    }
}
