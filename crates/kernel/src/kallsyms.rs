//! The kernel symbol table (`kallsyms`).
//!
//! Like Linux's, it contains **every** symbol — exported globals and
//! file-scope statics alike — and, like Linux's, a bare name lookup may be
//! ambiguous: the paper measures 6,164 duplicate-named symbols (7.9 % of
//! the total) in Linux 2.6.27 (§6.3). [`Kallsyms::lookup_name`] therefore
//! returns *all* candidates; resolving which one a relocation meant is
//! exactly what run-pre matching exists for (§4.1). The `unit` field
//! records the defining compilation unit for diagnostics and evaluation
//! statistics only — Ksplice itself never consults it, since real
//! kallsyms has no such column.

use std::collections::BTreeMap;
use std::sync::Arc;

/// One symbol table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KSym {
    /// Symbol name (not necessarily unique).
    pub name: String,
    /// Load address.
    pub addr: u64,
    /// Size in bytes (0 when unknown).
    pub size: u64,
    /// Exported (global binding) vs file-local (static).
    pub global: bool,
    /// True for function symbols, false for data.
    pub is_func: bool,
    /// Defining compilation unit — diagnostics/statistics only.
    pub unit: String,
}

/// Symbols in insertion order plus a name index into them.
#[derive(Debug, Clone, Default)]
struct Table {
    syms: Vec<KSym>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Table {
    fn insert(&mut self, sym: KSym) {
        let idx = self.syms.len();
        self.by_name.entry(sym.name.clone()).or_default().push(idx);
        self.syms.push(sym);
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &KSym> {
        self.by_name
            .get(name)
            .into_iter()
            .flatten()
            .map(|&i| &self.syms[i])
    }
}

/// The kernel's symbol table.
///
/// Logically one insertion-ordered list. Physically it is a `frozen`
/// prefix, shared between a kernel snapshot and every kernel forked from
/// it, followed by the entries this kernel added since (`own`), so a fork
/// never copies the boot image's symbols.
#[derive(Debug, Clone, Default)]
pub struct Kallsyms {
    frozen: Arc<Table>,
    own: Table,
}

impl Kallsyms {
    /// An empty table.
    pub fn new() -> Kallsyms {
        Kallsyms::default()
    }

    /// Moves every entry into the shared prefix, so clones of the table
    /// share all of it and a later [`Kallsyms::remove_unit`] of an
    /// entry added since re-indexes only those. Order is unchanged.
    pub(crate) fn freeze(&mut self) {
        if self.own.syms.is_empty() {
            return;
        }
        let own = std::mem::take(&mut self.own);
        if self.frozen.syms.is_empty() {
            self.frozen = Arc::new(own);
            return;
        }
        let mut all = Table::default();
        for sym in self.frozen.syms.iter().chain(&own.syms) {
            all.insert(sym.clone());
        }
        self.frozen = Arc::new(all);
    }

    /// Adds a symbol.
    pub fn insert(&mut self, sym: KSym) {
        self.own.insert(sym);
    }

    /// All symbols with the given name (possibly several — local symbols
    /// collide across units).
    pub fn lookup_name(&self, name: &str) -> Vec<&KSym> {
        self.named(name).collect()
    }

    /// Symbols with the given name, in insertion order.
    fn named(&self, name: &str) -> impl Iterator<Item = &KSym> {
        self.frozen.named(name).chain(self.own.named(name))
    }

    /// The unique *global* symbol with this name, if exactly one exists —
    /// the analogue of `kallsyms_lookup_name` for exported symbols, used
    /// by the ordinary module loader.
    pub fn lookup_global(&self, name: &str) -> Option<&KSym> {
        let mut globals = self.named(name).filter(|s| s.global);
        let first = globals.next()?;
        if globals.next().is_some() {
            return None;
        }
        Some(first)
    }

    /// The symbol covering `addr`, if any (ties broken by closest start).
    pub fn lookup_addr(&self, addr: u64) -> Option<&KSym> {
        self.iter()
            .filter(|s| addr >= s.addr && (s.size == 0 || addr < s.addr + s.size))
            .max_by_key(|s| s.addr)
    }

    /// Removes every symbol belonging to `unit` (module unload).
    pub fn remove_unit(&mut self, unit: &str) {
        let mut kept = Table::default();
        if self.frozen.syms.iter().any(|s| s.unit == unit) {
            for sym in self.iter().filter(|s| s.unit != unit) {
                kept.insert(sym.clone());
            }
            self.frozen = Arc::default();
        } else {
            for sym in self.own.syms.drain(..).filter(|s| s.unit != unit) {
                kept.insert(sym);
            }
        }
        self.own = kept;
    }

    /// Iterates all symbols.
    pub fn iter(&self) -> impl Iterator<Item = &KSym> {
        self.frozen.syms.iter().chain(&self.own.syms)
    }

    /// Total number of symbols.
    pub fn len(&self) -> usize {
        self.frozen.syms.len() + self.own.syms.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Symbols grouped by name, for the ambiguity statistics.
    fn groups(&self) -> BTreeMap<&str, Vec<&KSym>> {
        let mut groups: BTreeMap<&str, Vec<&KSym>> = BTreeMap::new();
        for sym in self.iter() {
            groups.entry(sym.name.as_str()).or_default().push(sym);
        }
        groups
    }

    /// Evaluation statistic: how many symbols share their name with at
    /// least one other symbol (the paper's "6,164 symbols … 7.9 %").
    pub fn ambiguous_symbol_count(&self) -> usize {
        self.groups()
            .values()
            .filter(|v| v.len() > 1)
            .map(|v| v.len())
            .sum()
    }

    /// Evaluation statistic: units containing at least one symbol whose
    /// name is shared (the paper's "21.1 % of the compilation units").
    pub fn units_with_ambiguous_symbols(&self) -> Vec<&str> {
        let mut units: Vec<&str> = self
            .groups()
            .into_values()
            .filter(|v| v.len() > 1)
            .flat_map(|v| v.into_iter().map(|s| s.unit.as_str()))
            .collect();
        units.sort_unstable();
        units.dedup();
        units
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(name: &str, addr: u64, global: bool, unit: &str) -> KSym {
        KSym {
            name: name.to_string(),
            addr,
            size: 16,
            global,
            is_func: true,
            unit: unit.to_string(),
        }
    }

    #[test]
    fn ambiguous_names_return_all_candidates() {
        let mut k = Kallsyms::new();
        k.insert(sym("debug", 0x1000, false, "drivers/dst.kc"));
        k.insert(sym("debug", 0x2000, false, "drivers/dst_ca.kc"));
        k.insert(sym("printk", 0x3000, true, "kernel/printk.kc"));
        assert_eq!(k.lookup_name("debug").len(), 2);
        assert_eq!(k.lookup_name("printk").len(), 1);
        assert!(k.lookup_name("missing").is_empty());
    }

    #[test]
    fn global_lookup_requires_uniqueness() {
        let mut k = Kallsyms::new();
        k.insert(sym("a", 0x1000, true, "x.kc"));
        k.insert(sym("a", 0x2000, true, "y.kc")); // duplicate export
        k.insert(sym("b", 0x3000, true, "x.kc"));
        k.insert(sym("c", 0x4000, false, "x.kc"));
        assert!(k.lookup_global("a").is_none());
        assert_eq!(k.lookup_global("b").unwrap().addr, 0x3000);
        assert!(k.lookup_global("c").is_none()); // local only
    }

    #[test]
    fn addr_lookup() {
        let mut k = Kallsyms::new();
        k.insert(sym("f", 0x1000, true, "x.kc"));
        k.insert(sym("g", 0x1010, true, "x.kc"));
        assert_eq!(k.lookup_addr(0x1008).unwrap().name, "f");
        assert_eq!(k.lookup_addr(0x1010).unwrap().name, "g");
        assert!(k.lookup_addr(0x900).is_none());
    }

    #[test]
    fn ambiguity_statistics() {
        let mut k = Kallsyms::new();
        k.insert(sym("debug", 0x1000, false, "a.kc"));
        k.insert(sym("debug", 0x2000, false, "b.kc"));
        k.insert(sym("x", 0x3000, true, "a.kc"));
        k.insert(sym("y", 0x4000, true, "c.kc"));
        assert_eq!(k.ambiguous_symbol_count(), 2);
        assert_eq!(k.units_with_ambiguous_symbols(), vec!["a.kc", "b.kc"]);
    }

    #[test]
    fn frozen_prefix_keeps_order_and_unit_removal() {
        let mut base = Kallsyms::new();
        base.insert(sym("debug", 0x1000, false, "a.kc"));
        base.insert(sym("f", 0x2000, true, "b.kc"));
        base.freeze();
        let mut fork = base.clone();
        fork.insert(sym("debug", 0x3000, false, "mod"));
        fork.insert(sym("g", 0x4000, true, "mod"));
        let addrs = |k: &Kallsyms, n: &str| -> Vec<u64> {
            k.lookup_name(n).iter().map(|s| s.addr).collect()
        };
        assert_eq!(addrs(&fork, "debug"), vec![0x1000, 0x3000]);
        assert_eq!(fork.len(), 4);
        assert_eq!(fork.ambiguous_symbol_count(), 2);
        // Freezing a table with a prefix and added entries keeps order.
        let mut merged = fork.clone();
        merged.freeze();
        assert!(merged.own.syms.is_empty());
        assert_eq!(addrs(&merged, "debug"), vec![0x1000, 0x3000]);
        // Removing an added unit leaves the shared prefix alone...
        fork.remove_unit("mod");
        assert_eq!(addrs(&fork, "debug"), vec![0x1000]);
        assert!(Arc::ptr_eq(&fork.frozen, &base.frozen));
        // ...removing a frozen one drops it from this table only.
        fork.insert(sym("h", 0x5000, true, "mod"));
        fork.remove_unit("a.kc");
        let names: Vec<&str> = fork.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["f", "h"]);
        assert_eq!(base.len(), 2);
        assert_eq!(fork.lookup_global("h").unwrap().addr, 0x5000);
    }

    #[test]
    fn rmmod_keeps_the_boot_table_shared() {
        use crate::Kernel;
        use ksplice_lang::{build_tree, Options, SourceTree};

        let mut tree = SourceTree::new();
        tree.insert(
            "a.kc",
            "static int debug;\nint f(int x) { debug = x; return x + 1; }\n",
        );
        tree.insert(
            "b.kc",
            "static int debug;\nint g(int x) { debug = x; return x * 2; }\n",
        );
        let mut kernel = Kernel::boot(&tree, &Options::distro()).unwrap();
        let boot = Arc::clone(&kernel.syms.frozen);
        assert!(
            kernel.syms.own.syms.is_empty(),
            "boot moves the image into the prefix"
        );
        let order = |k: &Kernel| -> Vec<(u64, String)> {
            k.syms
                .lookup_name("debug")
                .iter()
                .map(|s| (s.addr, s.unit.clone()))
                .collect()
        };
        let booted = order(&kernel);
        assert_eq!(booted.len(), 2);

        let mut module_tree = SourceTree::new();
        module_tree.insert(
            "m.kc",
            "static int debug;\nint h(int x) { debug = x; return x; }\n",
        );
        let module = build_tree(&module_tree, &Options::distro()).unwrap();
        let mut obj = module.get("m.kc").unwrap().clone();
        obj.name = "mod".to_string();
        kernel.insmod(&obj, false).unwrap();
        assert_eq!(order(&kernel).len(), 3);
        assert!(kernel.rmmod("mod"));
        assert!(Arc::ptr_eq(&kernel.syms.frozen, &boot));
        assert_eq!(order(&kernel), booted);
        assert!(kernel.syms.own.syms.is_empty());
    }
}
