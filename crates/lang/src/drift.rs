//! Seeded kernel-version drift: evolves a source tree the way a distro's
//! tree evolves between release N and N+k.
//!
//! A hot patch is written against the exact tree the running kernel was
//! built from; real fleets run N+k. This module synthesizes that gap
//! deterministically so the rebase pipeline (`ksplice-core`) can be
//! measured against known ground truth: every structural change the
//! generator makes — a rename, a cross-unit function move, a deletion —
//! is recorded in a [`DriftLog`] the evaluator can consult to decide
//! what a *correct* port of each patch would have been.
//!
//! Drift comes in four cumulative levels:
//!
//! | level | new op classes |
//! |-------|----------------|
//! | `D1`  | hunk-context drift (dead statements inserted between live ones) |
//! | `D2`  | static and exported function renames |
//! | `D3`  | inlining shifts, constant tweaks, cross-unit function moves |
//! | `D4`  | function deletions and splits (the manual-port cases) |
//!
//! The generator reuses the PR 5 mutators ([`crate::mutate`]) for the
//! textual noise (insertions, constant tweaks) and implements the
//! tree-wide structural ops (exported renames, moves, deletes, splits)
//! itself, keeping the result compilable: moved functions get `extern`
//! declarations at their old call sites, deleted functions have every
//! call site replaced by a constant, and hooks referencing a deleted
//! function are dropped with it.
//!
//! Output trees are canonical: every `.kc` unit is parsed and
//! pretty-printed, so feeding a canonical tree in yields byte-stable
//! output for untouched units and the same seed always produces the
//! same drifted tree.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::ast::{Expr, ExprKind, FileItem, Function, Init, Stmt, StmtKind, Type, Unit};
use crate::build::SourceTree;
use crate::mutate::{apply_mutation, FuzzRng, Mutation, MutatorKind};
use crate::parser::parse_unit;
use crate::pretty::pretty_unit;
use crate::visit::{walk_expr_mut, walk_stmts_exprs_mut};

/// How far the tree has evolved from the patch's base version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftLevel {
    /// Hunk-context drift only: dead statements inserted around live code.
    D1,
    /// D1 plus function renames (static and exported).
    D2,
    /// D2 plus inlining shifts, constant tweaks and cross-unit moves.
    D3,
    /// D3 plus function deletions and splits — the manual-port cases.
    D4,
}

impl DriftLevel {
    /// Every level, shallowest first.
    pub const ALL: [DriftLevel; 4] = [
        DriftLevel::D1,
        DriftLevel::D2,
        DriftLevel::D3,
        DriftLevel::D4,
    ];

    /// Stable name, `"D1"`…`"D4"`.
    pub fn name(self) -> &'static str {
        match self {
            DriftLevel::D1 => "D1",
            DriftLevel::D2 => "D2",
            DriftLevel::D3 => "D3",
            DriftLevel::D4 => "D4",
        }
    }

    /// Inverse of [`DriftLevel::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<DriftLevel> {
        DriftLevel::ALL
            .into_iter()
            .find(|l| l.name().eq_ignore_ascii_case(s))
    }

    /// 1-based depth, for scaling op budgets.
    fn depth(self) -> u64 {
        match self {
            DriftLevel::D1 => 1,
            DriftLevel::D2 => 2,
            DriftLevel::D3 => 3,
            DriftLevel::D4 => 4,
        }
    }
}

impl fmt::Display for DriftLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The mutator class of one drift operation — the axis the evaluation
/// matrix reports auto-port success per.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftClass {
    /// Dead statements inserted between live ones (hunk-context drift).
    ContextDrift,
    /// A unit-local `static` function renamed, all unit refs updated.
    RenameStatic,
    /// An exported function renamed tree-wide.
    RenameExported,
    /// A small callee padded so the optimiser's inline decision flips.
    InlineShift,
    /// A numeric literal nudged (the "constants change between versions"
    /// drift that defeats exact-context matching inside a hunk).
    ConstTweak,
    /// A function moved to a different compilation unit.
    MoveFn,
    /// A function deleted; call sites replaced by a constant.
    DeleteFn,
    /// A function split into a wrapper plus a heavily drifted body.
    SplitFn,
}

impl DriftClass {
    /// Every class, in application order.
    pub const ALL: [DriftClass; 8] = [
        DriftClass::DeleteFn,
        DriftClass::SplitFn,
        DriftClass::MoveFn,
        DriftClass::RenameExported,
        DriftClass::RenameStatic,
        DriftClass::InlineShift,
        DriftClass::ConstTweak,
        DriftClass::ContextDrift,
    ];

    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DriftClass::ContextDrift => "context-drift",
            DriftClass::RenameStatic => "rename-static",
            DriftClass::RenameExported => "rename-exported",
            DriftClass::InlineShift => "inline-shift",
            DriftClass::ConstTweak => "const-tweak",
            DriftClass::MoveFn => "move-fn",
            DriftClass::DeleteFn => "delete-fn",
            DriftClass::SplitFn => "split-fn",
        }
    }
}

impl fmt::Display for DriftClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One applied drift operation, for the ground-truth log.
#[derive(Debug, Clone)]
pub struct DriftOp {
    /// The mutator class.
    pub class: DriftClass,
    /// The unit the op primarily touched.
    pub unit: String,
    /// The function the op touched (empty when not attributable).
    pub func: String,
    /// Human-readable specifics, e.g. `"sys_prctl -> sys_prctl_v42"`.
    pub detail: String,
}

/// What became of a function under drift, per the ground-truth log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FnFate {
    /// Still present; possibly renamed and/or in a different unit.
    /// `unit` is `None` when the function was never moved (same unit).
    Present {
        /// The unit it lives in now, when it moved.
        unit: Option<String>,
        /// Its (possibly new) name.
        name: String,
    },
    /// Deleted outright — a patch touching it cannot auto-port.
    Deleted,
    /// Split into a wrapper plus a drift-scrambled body — a line-based
    /// port is expected to refuse rather than guess.
    Split,
}

/// The ground-truth record of everything [`generate_drift`] did.
///
/// The rebase pipeline never sees this — it is the *evaluator's* answer
/// key: for each function a patch edits, [`DriftLog::fate`] says what a
/// correct port should have targeted (or that no automatic port exists).
#[derive(Debug, Clone, Default)]
pub struct DriftLog {
    /// Seed the drift was generated from.
    pub seed: u64,
    /// Level name, `"D1"`…`"D4"`.
    pub level: String,
    /// Every applied op, in application order.
    pub ops: Vec<DriftOp>,
    /// `(unit, old, new)` for every rename (static and exported).
    pub renames: Vec<(String, String, String)>,
    /// `(func, from_unit, to_unit)` for every cross-unit move.
    pub moves: Vec<(String, String, String)>,
    /// `(unit, func)` for every deletion.
    pub deleted: Vec<(String, String)>,
    /// `(unit, func, body_fn)` for every split: `func` remains as a
    /// wrapper delegating to `body_fn`.
    pub split: Vec<(String, String, String)>,
}

impl DriftLog {
    /// Resolves what became of `func` under this drift.
    pub fn fate(&self, func: &str) -> FnFate {
        if self.deleted.iter().any(|(_, f)| f == func) {
            return FnFate::Deleted;
        }
        if self.split.iter().any(|(_, f, _)| f == func) {
            return FnFate::Split;
        }
        let mut name = func.to_string();
        let mut unit = None;
        if let Some((_, _, to)) = self.moves.iter().find(|(f, _, _)| *f == func) {
            unit = Some(to.clone());
        }
        if let Some((_, _, new)) = self.renames.iter().find(|(_, old, _)| *old == func) {
            name = new.clone();
        }
        FnFate::Present { unit, name }
    }

    /// Deterministic one-op-per-line rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "drift {} seed={} ops={}", self.level, self.seed, self.ops.len());
        for op in &self.ops {
            let _ = writeln!(s, "  {:<15} {:<22} {}", op.class.name(), op.unit, op.detail);
        }
        s
    }
}

/// Parses and pretty-prints every `.kc` unit, leaving files that do not
/// parse (and non-`.kc` files) untouched. Drift and rebase both operate
/// in this canonical space so formatting differences never masquerade
/// as version drift.
pub fn canonicalize_tree(tree: &SourceTree) -> SourceTree {
    let mut canon = SourceTree::new();
    for (path, src) in tree.iter() {
        if path.ends_with(".kc") {
            if let Ok(unit) = parse_unit(path, src) {
                canon.insert(path, &pretty_unit(&unit));
                continue;
            }
        }
        canon.insert(path, src);
    }
    canon
}

/// Per-level op budgets. Levels are cumulative: D3 includes D2's rename
/// pressure plus its own structural classes, with counts growing so
/// deeper levels are strictly noisier.
struct Budget {
    context: u64,
    rename_static: u64,
    rename_exported: u64,
    inline_shift: u64,
    const_tweak: u64,
    move_fn: u64,
    delete_fn: u64,
    split_fn: u64,
}

impl Budget {
    fn for_level(level: DriftLevel) -> Budget {
        let d = level.depth();
        Budget {
            context: 6 + 4 * d,
            rename_static: if d >= 2 { 2 + 2 * d } else { 0 },
            rename_exported: if d >= 2 { d } else { 0 },
            inline_shift: if d >= 3 { d } else { 0 },
            const_tweak: if d >= 3 { d } else { 0 },
            move_fn: if d >= 3 { d - 1 } else { 0 },
            delete_fn: if d >= 4 { 2 } else { 0 },
            split_fn: if d >= 4 { 2 } else { 0 },
        }
    }
}

/// Evolves `base` to a synthetic "version N+k" at the given drift level.
///
/// `victims` biases the destructive D4 ops (delete/split) toward the
/// given function names — the evaluator passes the set of functions the
/// CVE corpus patches so every D4 run is guaranteed to contain genuine
/// manual-port cells. Functions referenced from assembly units or
/// absent from the tree are skipped. An empty pool disables delete/split.
///
/// Returns the drifted tree (canonical formatting) and the ground-truth
/// log. Same inputs always produce the same outputs. The drifted tree
/// is guaranteed parseable; callers should still build it (the generator
/// is conservative, but compilation is the contract that matters).
pub fn generate_drift(
    base: &SourceTree,
    level: DriftLevel,
    seed: u64,
    victims: &[String],
) -> Result<(SourceTree, DriftLog), String> {
    let mut rng = FuzzRng::new(seed ^ (0xd41f7 * level.depth()));
    let budget = Budget::for_level(level);
    let mut log = DriftLog {
        seed,
        level: level.name().to_string(),
        ..DriftLog::default()
    };

    // Parse every .kc unit once; all ops work on ASTs.
    let mut units: BTreeMap<String, Unit> = BTreeMap::new();
    let mut passthrough: Vec<(String, String)> = Vec::new();
    for (path, src) in base.iter() {
        if path.ends_with(".kc") {
            let unit = parse_unit(path, src).map_err(|e| format!("drift parse: {e}"))?;
            units.insert(path.to_string(), unit);
        } else {
            passthrough.push((path.to_string(), src.to_string()));
        }
    }
    // Names mentioned in assembly or string literals are anchored: the
    // generator never renames, moves or deletes them.
    let anchored = anchored_names(&units, &passthrough);
    // Names already claimed by a structural op (old or new); later ops
    // must not touch them or the log's fate() composition breaks.
    let mut touched: BTreeSet<String> = BTreeSet::new();

    // D4: deletions, then splits (disjoint victims).
    let pool: Vec<String> = victims.to_vec();
    for _ in 0..budget.delete_fn {
        if let Some((unit, func)) = pick_victim(&units, &pool, &anchored, &touched, &mut rng) {
            delete_fn(&mut units, &unit, &func);
            touched.insert(func.clone());
            log.ops.push(DriftOp {
                class: DriftClass::DeleteFn,
                unit: unit.clone(),
                func: func.clone(),
                detail: format!("{func} deleted, call sites constant-folded"),
            });
            log.deleted.push((unit, func));
        }
    }
    for i in 0..budget.split_fn {
        if let Some((unit, func)) = pick_victim(&units, &pool, &anchored, &touched, &mut rng) {
            let body_fn = format!("{func}_body_v{}", 10 + rng.below(90));
            split_fn(units.get_mut(&unit).expect("victim unit"), &func, &body_fn, i);
            touched.insert(func.clone());
            touched.insert(body_fn.clone());
            log.ops.push(DriftOp {
                class: DriftClass::SplitFn,
                unit: unit.clone(),
                func: func.clone(),
                detail: format!("{func} split: wrapper + drifted {body_fn}"),
            });
            log.split.push((unit, func, body_fn));
        }
    }

    // D3: cross-unit moves.
    for _ in 0..budget.move_fn {
        if let Some((from, func, to)) = pick_movable(&units, &anchored, &touched, &mut rng) {
            move_fn(&mut units, &from, &func, &to);
            touched.insert(func.clone());
            log.ops.push(DriftOp {
                class: DriftClass::MoveFn,
                unit: from.clone(),
                func: func.clone(),
                detail: format!("{func}: {from} -> {to}"),
            });
            log.moves.push((func, from, to));
        }
    }

    // D2: exported renames (tree-wide), then static renames (unit-local).
    for _ in 0..budget.rename_exported {
        if let Some((unit, old)) = pick_exported(&units, &anchored, &touched, &mut rng) {
            let new = fresh_name(&units, &old, &mut rng);
            for u in units.values_mut() {
                rename_in_unit(u, &old, &new);
            }
            touched.insert(old.clone());
            touched.insert(new.clone());
            log.ops.push(DriftOp {
                class: DriftClass::RenameExported,
                unit: unit.clone(),
                func: old.clone(),
                detail: format!("{old} -> {new} (exported, tree-wide)"),
            });
            log.renames.push((unit, old, new));
        }
    }
    for _ in 0..budget.rename_static {
        if let Some((unit, old)) = pick_static(&units, &anchored, &touched, &mut rng) {
            let new = fresh_name(&units, &old, &mut rng);
            rename_in_unit(units.get_mut(&unit).expect("static unit"), &old, &new);
            touched.insert(old.clone());
            touched.insert(new.clone());
            log.ops.push(DriftOp {
                class: DriftClass::RenameStatic,
                unit: unit.clone(),
                func: old.clone(),
                detail: format!("{old} -> {new} (static)"),
            });
            log.renames.push((unit, old, new));
        }
    }

    // D3: inline shifts — pad a small callee so the optimiser's decision
    // flips and callers' object code drifts without any source change in
    // the callers themselves.
    for _ in 0..budget.inline_shift {
        if let Some((unit, func)) = pick_small_callee(&units, &touched, &mut rng) {
            let salt = rng.below(1 << 16);
            pad_function(units.get_mut(&unit).expect("callee unit"), &func, salt, 3);
            touched.insert(func.clone());
            log.ops.push(DriftOp {
                class: DriftClass::InlineShift,
                unit: unit.clone(),
                func: func.clone(),
                detail: format!("{func} padded past the inline budget"),
            });
        }
    }

    // D3: constant tweaks (reuses the PR 5 mutator).
    for _ in 0..budget.const_tweak {
        let paths: Vec<String> = units.keys().cloned().collect();
        let path = paths[rng.below(paths.len() as u64) as usize].clone();
        let m = Mutation {
            kind: MutatorKind::TweakConst,
            site: rng.next_u64(),
            payload: rng.next_u64() as i64,
        };
        let unit = units.get_mut(&path).expect("tweak unit");
        let before = unit.clone();
        if apply_mutation(unit, &m).is_ok() {
            let func = changed_function(&before, unit).unwrap_or_default();
            log.ops.push(DriftOp {
                class: DriftClass::ConstTweak,
                unit: path,
                func: func.clone(),
                detail: format!("literal nudged in {}", nonempty(&func)),
            });
        }
    }

    // All levels: hunk-context drift (reuses the PR 5 insert mutator,
    // whose synthesized statements are dead at runtime but fully
    // compiled — they shift line layout without changing behaviour).
    for _ in 0..budget.context {
        let paths: Vec<String> = units.keys().cloned().collect();
        let path = paths[rng.below(paths.len() as u64) as usize].clone();
        let m = Mutation {
            kind: MutatorKind::InsertStmt,
            site: rng.next_u64(),
            payload: rng.next_u64() as i64,
        };
        let unit = units.get_mut(&path).expect("context unit");
        let before = unit.clone();
        if apply_mutation(unit, &m).is_ok() {
            let func = changed_function(&before, unit).unwrap_or_default();
            log.ops.push(DriftOp {
                class: DriftClass::ContextDrift,
                unit: path,
                func: func.clone(),
                detail: format!("dead stmt inserted in {}", nonempty(&func)),
            });
        }
    }

    // Reassemble: canonical pretty-print of every unit.
    let mut tree = SourceTree::new();
    for (path, unit) in &units {
        tree.insert(path, &pretty_unit(unit));
    }
    for (path, src) in &passthrough {
        tree.insert(path, src);
    }
    Ok((tree, log))
}

fn nonempty(f: &str) -> &str {
    if f.is_empty() {
        "file scope"
    } else {
        f
    }
}

/// Names that must not be structurally drifted: anything mentioned in an
/// assembly unit (symbol references resolved at link time by name),
/// anything mentioned in a string literal (kallsyms-style lookups), and
/// the entry points.
fn anchored_names(units: &BTreeMap<String, Unit>, passthrough: &[(String, String)]) -> BTreeSet<String> {
    let mut anchored: BTreeSet<String> = BTreeSet::new();
    anchored.insert("main".to_string());
    anchored.insert("init".to_string());
    let mut words = String::new();
    for (path, src) in passthrough {
        if path.ends_with(".ks") || path.ends_with(".kh") {
            words.push_str(src);
            words.push('\n');
        }
    }
    for unit in units.values() {
        for item in &unit.items {
            if let FileItem::Func(f) = item {
                let mut scan = |e: &Expr| {
                    if let ExprKind::Str(bytes) = &e.kind {
                        if let Ok(s) = std::str::from_utf8(bytes) {
                            words.push_str(s);
                            words.push('\n');
                        }
                    }
                };
                for s in &f.body {
                    walk_stmt_exprs(s, &mut scan);
                }
            }
        }
    }
    let names: BTreeSet<&str> = units
        .values()
        .flat_map(|u| u.functions().map(|f| f.name.as_str()))
        .collect();
    for name in names {
        if contains_word(&words, name) {
            anchored.insert(name.to_string());
        }
    }
    anchored
}

fn contains_word(haystack: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !haystack.as_bytes()[at - 1].is_ascii_alphanumeric()
                && haystack.as_bytes()[at - 1] != b'_';
        let end = at + word.len();
        let after_ok = end >= haystack.len()
            || !haystack.as_bytes()[end].is_ascii_alphanumeric() && haystack.as_bytes()[end] != b'_';
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Read-only pre-order expression walk over one statement.
fn walk_stmt_exprs(stmt: &Stmt, f: &mut impl FnMut(&Expr)) {
    fn walk_e(e: &Expr, f: &mut impl FnMut(&Expr)) {
        f(e);
        match &e.kind {
            ExprKind::Unary(_, x) => walk_e(x, f),
            ExprKind::Binary(_, l, r) => {
                walk_e(l, f);
                walk_e(r, f);
            }
            ExprKind::Call { callee, args } => {
                walk_e(callee, f);
                for a in args {
                    walk_e(a, f);
                }
            }
            ExprKind::Index(b, i) => {
                walk_e(b, f);
                walk_e(i, f);
            }
            ExprKind::Field(b, _) | ExprKind::PField(b, _) => walk_e(b, f),
            ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Ident(_) | ExprKind::Sizeof(_) => {}
        }
    }
    match &stmt.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                walk_e(e, f)
            }
        }
        StmtKind::Expr(e) => walk_e(e, f),
        StmtKind::Assign { target, value } => {
            walk_e(target, f);
            walk_e(value, f);
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            walk_e(cond, f);
            for s in then_body {
                walk_stmt_exprs(s, f);
            }
            for s in else_body {
                walk_stmt_exprs(s, f);
            }
        }
        StmtKind::While { cond, body } => {
            walk_e(cond, f);
            for s in body {
                walk_stmt_exprs(s, f);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(s) = init {
                walk_stmt_exprs(s, f);
            }
            if let Some(e) = cond {
                walk_e(e, f);
            }
            if let Some(s) = step {
                walk_stmt_exprs(s, f);
            }
            for s in body {
                walk_stmt_exprs(s, f);
            }
        }
        StmtKind::Return(Some(e)) => walk_e(e, f),
        StmtKind::Block(body) => {
            for s in body {
                walk_stmt_exprs(s, f);
            }
        }
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
    }
}

/// The function whose body differs between `before` and `after`, if any.
fn changed_function(before: &Unit, after: &Unit) -> Option<String> {
    for (b, a) in before.functions().zip(after.functions()) {
        if b.name == a.name && b.body != a.body {
            return Some(b.name.clone());
        }
    }
    None
}

/// A name of the form `<old>_vNN` not yet defined anywhere in the tree.
fn fresh_name(units: &BTreeMap<String, Unit>, old: &str, rng: &mut FuzzRng) -> String {
    let all: BTreeSet<&str> = units
        .values()
        .flat_map(|u| {
            u.items.iter().filter_map(|i| match i {
                FileItem::Func(f) => Some(f.name.as_str()),
                FileItem::Global(g) => Some(g.name.as_str()),
                _ => None,
            })
        })
        .collect();
    loop {
        let cand = format!("{old}_v{}", 10 + rng.below(90));
        if !all.contains(cand.as_str()) {
            return cand;
        }
    }
}

/// Picks a victim from the pool: a function that exists, is not anchored
/// in assembly/strings, and is not already claimed by another op.
fn pick_victim(
    units: &BTreeMap<String, Unit>,
    pool: &[String],
    anchored: &BTreeSet<String>,
    touched: &BTreeSet<String>,
    rng: &mut FuzzRng,
) -> Option<(String, String)> {
    let candidates: Vec<(String, String)> = units
        .iter()
        .flat_map(|(path, u)| {
            u.functions()
                .filter(|f| {
                    pool.iter().any(|v| v == &f.name)
                        && !anchored.contains(&f.name)
                        && !touched.contains(&f.name)
                        && !is_hooked(u, &f.name)
                })
                .map(move |f| (path.clone(), f.name.clone()))
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.below(candidates.len() as u64) as usize].clone())
}

fn is_hooked(unit: &Unit, name: &str) -> bool {
    unit.items
        .iter()
        .any(|i| matches!(i, FileItem::Hook { func, .. } if func == name))
}

/// Picks an exported, unanchored, unclaimed function for a tree-wide
/// rename.
fn pick_exported(
    units: &BTreeMap<String, Unit>,
    anchored: &BTreeSet<String>,
    touched: &BTreeSet<String>,
    rng: &mut FuzzRng,
) -> Option<(String, String)> {
    let candidates: Vec<(String, String)> = units
        .iter()
        .flat_map(|(path, u)| {
            u.functions()
                .filter(|f| {
                    !f.is_static && !anchored.contains(&f.name) && !touched.contains(&f.name)
                })
                .map(move |f| (path.clone(), f.name.clone()))
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.below(candidates.len() as u64) as usize].clone())
}

/// Picks a static function for a unit-local rename. Statics whose name
/// collides across units are fine — the rename stays inside one unit,
/// exactly like the PR 5 mutator.
fn pick_static(
    units: &BTreeMap<String, Unit>,
    anchored: &BTreeSet<String>,
    touched: &BTreeSet<String>,
    rng: &mut FuzzRng,
) -> Option<(String, String)> {
    let candidates: Vec<(String, String)> = units
        .iter()
        .flat_map(|(path, u)| {
            u.functions()
                .filter(|f| {
                    f.is_static && !anchored.contains(&f.name) && !touched.contains(&f.name)
                })
                .map(move |f| (path.clone(), f.name.clone()))
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.below(candidates.len() as u64) as usize].clone())
}

/// Picks a small function (≤ 3 top-level statements) for inline-shift
/// padding.
fn pick_small_callee(
    units: &BTreeMap<String, Unit>,
    touched: &BTreeSet<String>,
    rng: &mut FuzzRng,
) -> Option<(String, String)> {
    let candidates: Vec<(String, String)> = units
        .iter()
        .flat_map(|(path, u)| {
            u.functions()
                .filter(|f| f.body.len() <= 3 && !f.body.is_empty() && !touched.contains(&f.name))
                .map(move |f| (path.clone(), f.name.clone()))
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.below(candidates.len() as u64) as usize].clone())
}

/// Renames `old` to `new` inside one unit: definition, call sites,
/// identifier references (ops tables), hooks and extern declarations.
/// Mirrors the PR 5 rename mutator, extended to `extern` items.
fn rename_in_unit(unit: &mut Unit, old: &str, new: &str) {
    let mut rename = |e: &mut Expr| {
        if let ExprKind::Ident(n) = &mut e.kind {
            if n == old {
                *n = new.to_string();
            }
        }
    };
    for item in &mut unit.items {
        match item {
            FileItem::Func(func) => {
                if func.name == old {
                    func.name = new.to_string();
                }
                walk_stmts_exprs_mut(&mut func.body, &mut rename);
            }
            FileItem::Global(g) => match &mut g.init {
                Some(Init::Scalar(e)) => walk_expr_mut(e, &mut rename),
                Some(Init::List(items)) => {
                    for e in items {
                        walk_expr_mut(e, &mut rename);
                    }
                }
                None => {}
            },
            FileItem::Hook { func, .. } => {
                if func == old {
                    *func = new.to_string();
                }
            }
            FileItem::Extern { name, .. } => {
                if name == old {
                    *name = new.to_string();
                }
            }
            FileItem::Struct(_) => {}
        }
    }
}

/// Free names referenced by a function body (identifiers that are not
/// parameters or locals declared anywhere in the body — conservative:
/// nested scopes are flattened).
fn free_names(f: &Function) -> BTreeSet<String> {
    let mut bound: BTreeSet<String> = f.params.iter().map(|(n, _)| n.clone()).collect();
    let mut decls: Vec<String> = Vec::new();
    collect_decls(&f.body, &mut decls);
    bound.extend(decls);
    let mut free = BTreeSet::new();
    for s in &f.body {
        walk_stmt_exprs(s, &mut |e| {
            if let ExprKind::Ident(n) = &e.kind {
                if !bound.contains(n) {
                    free.insert(n.clone());
                }
            }
        });
    }
    free
}

fn collect_decls(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Decl { name, .. } => out.push(name.clone()),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                collect_decls(then_body, out);
                collect_decls(else_body, out);
            }
            StmtKind::While { body, .. } => collect_decls(body, out),
            StmtKind::For { init, body, .. } => {
                if let Some(s) = init {
                    if let StmtKind::Decl { name, .. } = &s.kind {
                        out.push(name.clone());
                    }
                }
                collect_decls(body, out);
            }
            StmtKind::Block(body) => collect_decls(body, out),
            _ => {}
        }
    }
}

/// Where a name is defined, tree-wide: `(unit, is_static, is_func)`.
fn definition_sites(units: &BTreeMap<String, Unit>) -> BTreeMap<String, (String, bool, bool)> {
    let mut defs = BTreeMap::new();
    for (path, u) in units {
        for item in &u.items {
            match item {
                FileItem::Func(f) => {
                    defs.entry(f.name.clone())
                        .or_insert((path.clone(), f.is_static, true));
                }
                FileItem::Global(g) => {
                    defs.entry(g.name.clone())
                        .or_insert((path.clone(), g.is_static, false));
                }
                _ => {}
            }
        }
    }
    defs
}

/// Picks `(from_unit, func, to_unit)` for a safe cross-unit move: the
/// function must be exported, unanchored, unhooked, reference only
/// exported functions or header-declared names, and its name must be
/// free in the target.
fn pick_movable(
    units: &BTreeMap<String, Unit>,
    anchored: &BTreeSet<String>,
    touched: &BTreeSet<String>,
    rng: &mut FuzzRng,
) -> Option<(String, String, String)> {
    let defs = definition_sites(units);
    let mut candidates: Vec<(String, String)> = Vec::new();
    for (path, u) in units {
        for f in u.functions() {
            if f.is_static
                || f.is_inline
                || anchored.contains(&f.name)
                || touched.contains(&f.name)
                || is_hooked(u, &f.name)
            {
                continue;
            }
            // Every free name must resolve to a non-static *function*
            // definition: an `extern` declaration in the destination
            // unit can re-import a call, but it is untyped, so a moved
            // body referencing a struct or array global would lose the
            // type and stop compiling. Header-declared names (absent
            // from `defs`) are visible everywhere and survive the move.
            let movable = free_names(f).iter().all(|n| match defs.get(n) {
                Some((_, is_static, is_func)) => !is_static && *is_func,
                None => true,
            });
            if movable {
                candidates.push((path.clone(), f.name.clone()));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (from, func) = candidates[rng.below(candidates.len() as u64) as usize].clone();
    let targets: Vec<String> = units
        .iter()
        .filter(|(p, u)| {
            **p != from
                && p.ends_with(".kc")
                && !u.items.iter().any(|i| match i {
                    FileItem::Func(f) => f.name == func,
                    FileItem::Global(g) => g.name == func,
                    FileItem::Extern { name, .. } => *name == func,
                    _ => false,
                })
        })
        .map(|(p, _)| p.clone())
        .collect();
    if targets.is_empty() {
        return None;
    }
    let to = targets[rng.below(targets.len() as u64) as usize].clone();
    Some((from, func, to))
}

/// Moves `func` from `from` to `to`, inserting `extern` declarations on
/// both sides as needed so every unit still resolves.
fn move_fn(units: &mut BTreeMap<String, Unit>, from: &str, func: &str, to: &str) {
    let defs = definition_sites(units);
    let from_unit = units.get_mut(from).expect("move source unit");
    let idx = from_unit
        .items
        .iter()
        .position(|i| matches!(i, FileItem::Func(f) if f.name == func))
        .expect("moved function present");
    let item = from_unit.items.remove(idx);
    let FileItem::Func(f) = &item else {
        unreachable!("filtered to function");
    };
    // The old unit keeps calling it cross-unit.
    ensure_extern(from_unit, func, true);
    // The new unit needs externs for the function's free names it does
    // not define itself.
    let needed: Vec<(String, bool)> = free_names(f)
        .into_iter()
        .filter_map(|n| {
            defs.get(&n)
                .filter(|(def_unit, _, _)| def_unit != to)
                .map(|(_, _, is_func)| (n, *is_func))
        })
        .collect();
    let to_unit = units.get_mut(to).expect("move target unit");
    for (name, is_func) in needed {
        ensure_extern(to_unit, &name, is_func);
    }
    to_unit.items.push(item);
}

/// Adds an `extern` declaration at the top of the unit unless the name
/// is already defined or declared there.
fn ensure_extern(unit: &mut Unit, name: &str, is_func: bool) {
    let present = unit.items.iter().any(|i| match i {
        FileItem::Func(f) => f.name == name,
        FileItem::Global(g) => g.name == name,
        FileItem::Extern { name: n, .. } => n == name,
        _ => false,
    });
    if !present {
        unit.items.insert(
            0,
            FileItem::Extern {
                name: name.to_string(),
                is_func,
                line: 1,
            },
        );
    }
}

/// Deletes `func` from `unit`, replacing every call site tree-wide with
/// the constant `0` and dropping any hook that registered it (the way a
/// later kernel version retires a helper).
fn delete_fn(units: &mut BTreeMap<String, Unit>, unit: &str, func: &str) {
    let home = units.get_mut(unit).expect("delete unit");
    home.items
        .retain(|i| !matches!(i, FileItem::Func(f) if f.name == func));
    home.items
        .retain(|i| !matches!(i, FileItem::Hook { func: h, .. } if h == func));
    for u in units.values_mut() {
        let erase = &mut |e: &mut Expr| {
            let is_call_to = match &e.kind {
                ExprKind::Call { callee, .. } => {
                    matches!(&callee.kind, ExprKind::Ident(n) if n == func)
                }
                ExprKind::Ident(n) => n == func,
                _ => false,
            };
            if is_call_to {
                *e = Expr::num(0, e.line);
            }
        };
        for item in &mut u.items {
            match item {
                FileItem::Func(f) => walk_stmts_exprs_mut(&mut f.body, erase),
                FileItem::Global(g) => match &mut g.init {
                    Some(Init::Scalar(e)) => walk_expr_mut(e, erase),
                    Some(Init::List(items)) => {
                        for e in items {
                            walk_expr_mut(e, erase);
                        }
                    }
                    None => {}
                },
                _ => {}
            }
        }
        u.items
            .retain(|i| !matches!(i, FileItem::Extern { name, .. } if name == func));
    }
}

/// Splits `func`: its body moves (scrambled with interleaved dead
/// statements) into `body_fn`, and `func` becomes a thin wrapper. All
/// callers keep calling `func`, so the tree's behaviour is preserved —
/// but a line-based patch against the old body can no longer find a
/// contiguous match anywhere.
fn split_fn(unit: &mut Unit, func: &str, body_fn: &str, salt: u64) {
    let idx = unit
        .items
        .iter()
        .position(|i| matches!(i, FileItem::Func(f) if f.name == func))
        .expect("split function present");
    let FileItem::Func(orig) = &unit.items[idx] else {
        unreachable!("filtered to function");
    };
    let mut body = Function {
        name: body_fn.to_string(),
        params: orig.params.clone(),
        body: orig.body.clone(),
        is_static: orig.is_static,
        is_inline: false,
        line: orig.line,
    };
    interleave_dead(&mut body.body, salt);
    let call = Expr::new(
        ExprKind::Call {
            callee: Box::new(Expr::new(ExprKind::Ident(body_fn.to_string()), 1)),
            args: orig
                .params
                .iter()
                .map(|(n, _)| Expr::new(ExprKind::Ident(n.clone()), 1))
                .collect(),
        },
        1,
    );
    let wrapper = Function {
        name: func.to_string(),
        params: orig.params.clone(),
        body: vec![Stmt::new(StmtKind::Return(Some(call)), 1)],
        is_static: orig.is_static,
        is_inline: false,
        line: orig.line,
    };
    unit.items[idx] = FileItem::Func(wrapper);
    unit.items.insert(idx + 1, FileItem::Func(body));
}

/// Inserts a self-contained dead statement between every pair of
/// consecutive statements, recursively — the "heavily drifted" half of a
/// split.
fn interleave_dead(stmts: &mut Vec<Stmt>, salt: u64) {
    let mut counter = salt << 8;
    interleave_dead_inner(stmts, &mut counter);
}

fn interleave_dead_inner(stmts: &mut Vec<Stmt>, counter: &mut u64) {
    for s in stmts.iter_mut() {
        match &mut s.kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                interleave_dead_inner(then_body, counter);
                interleave_dead_inner(else_body, counter);
            }
            StmtKind::While { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Block(body) => interleave_dead_inner(body, counter),
            _ => {}
        }
    }
    let mut pos = stmts.len();
    while pos > 0 {
        *counter += 1;
        stmts.insert(pos, dead_stmt(*counter));
        pos -= 1;
    }
}

/// A dead-but-compiled statement needing no ambient scope: a block with
/// its own local.
fn dead_stmt(n: u64) -> Stmt {
    let name = format!("drift{n}");
    let ident = Expr::new(ExprKind::Ident(name.clone()), 1);
    Stmt::new(
        StmtKind::Block(vec![
            Stmt::new(
                StmtKind::Decl {
                    name,
                    ty: Type::Int,
                    is_static: false,
                    init: Some(Expr::num((n % 251) as i64, 1)),
                },
                1,
            ),
            Stmt::new(
                StmtKind::Assign {
                    target: ident.clone(),
                    value: Expr::new(
                        ExprKind::Binary(
                            crate::ast::BinaryOp::BitXor,
                            Box::new(ident),
                            Box::new(Expr::num(1, 1)),
                        ),
                        1,
                    ),
                },
                1,
            ),
        ]),
        1,
    )
}

/// Pads a function with `k` dead statements at the front — enough to
/// push a small callee past the optimiser's inline budget.
fn pad_function(unit: &mut Unit, func: &str, salt: u64, k: usize) {
    for item in &mut unit.items {
        if let FileItem::Func(f) = item {
            if f.name == func {
                for i in 0..k {
                    f.body.insert(i, dead_stmt((salt << 4) + i as u64 + 1));
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_tree;
    use crate::Options;

    fn tree() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert(
            "a.kc",
            "static int helper(int x) { return x + 1; }\n\
             int alpha(int a) { int v; v = helper(a); return v * 2; }\n\
             int beta(int b) { if (b > 3) { return alpha(b); } return 0; }\n",
        );
        t.insert("b.kc", "int gamma(int g) { return g + 7; }\n");
        canonicalize_tree(&t)
    }

    #[test]
    fn drift_is_deterministic() {
        let base = tree();
        let (t1, l1) = generate_drift(&base, DriftLevel::D2, 7, &[]).unwrap();
        let (t2, l2) = generate_drift(&base, DriftLevel::D2, 7, &[]).unwrap();
        let flat1: Vec<(String, String)> =
            t1.iter().map(|(a, b)| (a.into(), b.into())).collect();
        let flat2: Vec<(String, String)> =
            t2.iter().map(|(a, b)| (a.into(), b.into())).collect();
        assert_eq!(flat1, flat2);
        assert_eq!(l1.render(), l2.render());
    }

    #[test]
    fn drifted_tree_compiles_at_every_level() {
        let base = tree();
        for level in DriftLevel::ALL {
            let (t, log) = generate_drift(&base, level, 11, &["beta".to_string()]).unwrap();
            build_tree(&t, &Options::distro()).unwrap_or_else(|e| {
                panic!("{level}: drifted tree fails to build: {e}\n{}", log.render())
            });
            build_tree(&t, &Options::pre_post()).unwrap();
        }
    }

    #[test]
    fn d4_deletes_or_splits_the_victim() {
        let base = tree();
        let (_, log) =
            generate_drift(&base, DriftLevel::D4, 3, &["beta".to_string()]).unwrap();
        match log.fate("beta") {
            FnFate::Deleted | FnFate::Split => {}
            other => panic!("victim survived untouched: {other:?}"),
        }
    }

    #[test]
    fn fate_follows_renames() {
        let base = tree();
        let (_, log) = generate_drift(&base, DriftLevel::D2, 5, &[]).unwrap();
        for (_, old, new) in &log.renames {
            assert_eq!(
                log.fate(old),
                FnFate::Present {
                    unit: None,
                    name: new.clone()
                }
            );
        }
    }

    #[test]
    fn level_parse_roundtrip() {
        for l in DriftLevel::ALL {
            assert_eq!(DriftLevel::parse(l.name()), Some(l));
        }
        assert_eq!(DriftLevel::parse("d3"), Some(DriftLevel::D3));
        assert_eq!(DriftLevel::parse("D9"), None);
    }
}
