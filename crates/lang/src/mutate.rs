//! Seeded AST mutators for `ksplice-fuzz`.
//!
//! Each mutator is tagged with the hot-update pipeline feature it is
//! designed to stress ([`MutatorKind::targets`]). Mutations are
//! identified by *site indices* — the N-th candidate node in the
//! canonical walk order of [`crate::visit`] — so a serialized
//! [`Mutation`] replays byte-identically on the same unit, which is what
//! the campaign shrinker and the checked-in regression cases rely on.

use crate::ast::*;
use crate::visit::{walk_expr_mut, walk_unit_blocks_mut, walk_unit_fn_exprs_mut};

/// The seven mutation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MutatorKind {
    /// Insert dead-but-compiled statements: shifts text layout, forcing
    /// run-pre nop-padding and PC-relative retargeting to earn their keep.
    InsertStmt,
    /// Delete an expression/assignment/declaration statement: shrinks
    /// text (nop-tail cases) or breaks the post build (compile kill).
    DeleteStmt,
    /// Tweak an integer literal: single-immediate byte differences the
    /// differ must detect and the packager must carry.
    TweakConst,
    /// Swap a binary operator for a same-shape alternative: minimal
    /// codegen deltas (often one opcode byte).
    SwapOp,
    /// Clone a function (optionally retargeting one call site): new
    /// symbols the packager must export and run-pre must not confuse
    /// with the original.
    CloneFn,
    /// Rename a `static` function and every same-unit reference: local
    /// symbol churn, the kallsyms-ambiguity path (§4.1).
    RenameFn,
    /// Edit a global initialiser: must be *refused* by the data-semantics
    /// gate (Table 1) — a mutant that sails through is an oracle finding.
    EditData,
}

impl MutatorKind {
    /// All mutators, in serialization order.
    pub const ALL: [MutatorKind; 7] = [
        MutatorKind::InsertStmt,
        MutatorKind::DeleteStmt,
        MutatorKind::TweakConst,
        MutatorKind::SwapOp,
        MutatorKind::CloneFn,
        MutatorKind::RenameFn,
        MutatorKind::EditData,
    ];

    /// The stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            MutatorKind::InsertStmt => "insert-stmt",
            MutatorKind::DeleteStmt => "delete-stmt",
            MutatorKind::TweakConst => "tweak-const",
            MutatorKind::SwapOp => "swap-op",
            MutatorKind::CloneFn => "clone-fn",
            MutatorKind::RenameFn => "rename-fn",
            MutatorKind::EditData => "edit-data",
        }
    }

    /// Parses a serialized mutator name.
    pub fn parse(s: &str) -> Option<MutatorKind> {
        MutatorKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Which pipeline feature this mutator stresses (documentation and
    /// per-mutator campaign stats).
    pub fn targets(self) -> &'static str {
        match self {
            MutatorKind::InsertStmt => "text layout shift / nop padding / rel32 retargeting",
            MutatorKind::DeleteStmt => "text shrink / nop tails / post-build kills",
            MutatorKind::TweakConst => "immediate-byte diff detection",
            MutatorKind::SwapOp => "single-opcode diff detection",
            MutatorKind::CloneFn => "new-symbol packaging",
            MutatorKind::RenameFn => "local-symbol churn / kallsyms ambiguity",
            MutatorKind::EditData => "data-semantics gate (Table 1)",
        }
    }
}

impl std::fmt::Display for MutatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One serializable mutation: a mutator, a site index (reduced modulo
/// the live candidate count at application time), and a payload that
/// parameterizes the edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mutation {
    /// Which operator.
    pub kind: MutatorKind,
    /// Candidate-site selector (`site % candidate_count` picks the node).
    pub site: u64,
    /// Operator-specific parameter (delta, template choice, suffix…).
    pub payload: i64,
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.kind.name(), self.site, self.payload)
    }
}

impl Mutation {
    /// Parses the `Display` form: `<kind> <site> <payload>`.
    pub fn parse(s: &str) -> Result<Mutation, String> {
        let mut parts = s.split_whitespace();
        let kind = parts
            .next()
            .and_then(MutatorKind::parse)
            .ok_or_else(|| format!("bad mutator in {s:?}"))?;
        let site = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad site in {s:?}"))?;
        let payload = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad payload in {s:?}"))?;
        if parts.next().is_some() {
            return Err(format!("trailing tokens in {s:?}"));
        }
        Ok(Mutation {
            kind,
            site,
            payload,
        })
    }
}

/// Why a mutation could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// The unit has no candidate site for this mutator.
    NoSites(MutatorKind),
}

impl std::fmt::Display for MutateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutateError::NoSites(k) => write!(f, "no candidate sites for {k}"),
        }
    }
}

impl std::error::Error for MutateError {}

/// The deterministic xorshift64* generator used across the fuzzer, the
/// SMP load sweep and the fleet (same recurrence as the kernel's fault
/// plan and the chaos suite).
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Seeds the generator; a zero seed is remapped (xorshift fixpoint).
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng::from_state(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Starts the generator at exactly `state`, with no remap: a zero
    /// state stays at the xorshift fixpoint and draws only zeros.
    pub fn from_state(state: u64) -> FuzzRng {
        FuzzRng { state }
    }

    /// The raw state, which the next draw advances.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (n must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Applies one mutation in place. Site indices reduce modulo the live
/// candidate count, so any `site` value is valid whenever at least one
/// candidate exists.
pub fn apply_mutation(unit: &mut Unit, m: &Mutation) -> Result<(), MutateError> {
    match m.kind {
        MutatorKind::InsertStmt => insert_stmt(unit, m),
        MutatorKind::DeleteStmt => delete_stmt(unit, m),
        MutatorKind::TweakConst => tweak_const(unit, m),
        MutatorKind::SwapOp => swap_op(unit, m),
        MutatorKind::CloneFn => clone_fn(unit, m),
        MutatorKind::RenameFn => rename_fn(unit, m),
        MutatorKind::EditData => edit_data(unit, m),
    }
}

/// Generates a mutant: up to `max_mutations` randomly chosen, applicable
/// mutations on a copy of `unit`. Returns `None` when the unit offers no
/// mutation site at all (e.g. an assembly-only or empty unit).
pub fn generate_mutant(
    unit: &Unit,
    rng: &mut FuzzRng,
    max_mutations: usize,
) -> Option<(Unit, Vec<Mutation>)> {
    let mut work = unit.clone();
    let mut applied = Vec::new();
    // Mostly single mutations; occasional 2–3-long sequences so shrinking
    // has something to do and mutators compose.
    let want = match rng.below(10) {
        0..=6 => 1,
        7 | 8 => 2,
        _ => 3,
    }
    .min(max_mutations.max(1));
    for _ in 0..want {
        let mut placed = false;
        for _attempt in 0..14 {
            let m = Mutation {
                kind: MutatorKind::ALL[rng.below(7) as usize],
                site: rng.next_u64(),
                payload: (rng.below(201) as i64) - 100,
            };
            if apply_mutation(&mut work, &m).is_ok() {
                applied.push(m);
                placed = true;
                break;
            }
        }
        if !placed {
            break;
        }
    }
    if applied.is_empty() {
        None
    } else {
        Some((work, applied))
    }
}

// ---- individual mutators -------------------------------------------------

/// A nonzero delta derived from the payload.
fn delta(payload: i64) -> i64 {
    if payload == 0 {
        1
    } else {
        payload
    }
}

fn insert_stmt(unit: &mut Unit, m: &Mutation) -> Result<(), MutateError> {
    // Pass 1: count insertion slots (every position in every block).
    let mut total: u64 = 0;
    walk_unit_blocks_mut(unit, &mut |block, _| {
        total += block.len() as u64 + 1;
    });
    if total == 0 {
        return Err(MutateError::NoSites(m.kind));
    }
    let target = m.site % total;
    let k = delta(m.payload).rem_euclid(97) + 1;
    let template = m.payload.rem_euclid(3);
    // Pass 2: find the block containing the slot and insert.
    let mut seen: u64 = 0;
    let mut done = false;
    walk_unit_blocks_mut(unit, &mut |block, cx| {
        if done {
            return;
        }
        let slots = block.len() as u64 + 1;
        if target < seen + slots {
            let pos = (target - seen) as usize;
            let stmts = synth_stmts(cx.scope_ints, target, k, template);
            for (i, s) in stmts.into_iter().enumerate() {
                block.insert(pos + i, s);
            }
            done = true;
        }
        seen += slots;
    });
    Ok(())
}

/// Builds the inserted statements: dead-at-runtime but fully compiled,
/// so they perturb code layout without changing workload behaviour.
fn synth_stmts(scope_ints: &[String], slot: u64, k: i64, template: i64) -> Vec<Stmt> {
    let num = |v: i64| Expr::num(v, 1);
    let ident = |n: &str| Expr::new(ExprKind::Ident(n.to_string()), 1);
    let bin = |op, l: Expr, r: Expr| Expr::new(ExprKind::Binary(op, Box::new(l), Box::new(r)), 1);
    if let Some(v) = scope_ints.last().filter(|_| template != 2) {
        if template == 0 {
            // if (v != v) { v = v + k; }  — never taken, real codegen.
            let cond = bin(BinaryOp::Ne, ident(v), ident(v));
            let assign = Stmt::new(
                StmtKind::Assign {
                    target: ident(v),
                    value: bin(BinaryOp::Add, ident(v), num(k)),
                },
                1,
            );
            return vec![Stmt::new(
                StmtKind::If {
                    cond,
                    then_body: vec![assign],
                    else_body: Vec::new(),
                },
                1,
            )];
        }
        // v = v + k; v = v - k;  — net no-op, two live stores.
        let add = Stmt::new(
            StmtKind::Assign {
                target: ident(v),
                value: bin(BinaryOp::Add, ident(v), num(k)),
            },
            1,
        );
        let sub = Stmt::new(
            StmtKind::Assign {
                target: ident(v),
                value: bin(BinaryOp::Sub, ident(v), num(k)),
            },
            1,
        );
        return vec![add, sub];
    }
    // Self-contained fallback: a scoped local and a never-entered loop.
    // The name carries the slot index so stacked insertions rarely clash
    // (a clash is just a compile kill, which the campaign counts).
    let name = format!("fz{slot}x{k}");
    let decl = Stmt::new(
        StmtKind::Decl {
            name: name.clone(),
            ty: Type::Int,
            is_static: false,
            init: None,
        },
        1,
    );
    let set = Stmt::new(
        StmtKind::Assign {
            target: ident(&name),
            value: num(k),
        },
        1,
    );
    let dec = Stmt::new(
        StmtKind::Assign {
            target: ident(&name),
            value: bin(BinaryOp::Sub, ident(&name), num(1)),
        },
        1,
    );
    let looped = Stmt::new(
        StmtKind::While {
            cond: bin(BinaryOp::Gt, ident(&name), num(k)),
            body: vec![dec],
        },
        1,
    );
    vec![Stmt::new(StmtKind::Block(vec![decl, set, looped]), 1)]
}

fn delete_stmt(unit: &mut Unit, m: &Mutation) -> Result<(), MutateError> {
    let deletable =
        |s: &Stmt| matches!(s.kind, StmtKind::Expr(_) | StmtKind::Assign { .. } | StmtKind::Decl { .. });
    let mut total: u64 = 0;
    walk_unit_blocks_mut(unit, &mut |block, _| {
        total += block.iter().filter(|s| deletable(s)).count() as u64;
    });
    if total == 0 {
        return Err(MutateError::NoSites(m.kind));
    }
    let target = m.site % total;
    let mut seen: u64 = 0;
    let mut done = false;
    walk_unit_blocks_mut(unit, &mut |block, _| {
        if done {
            return;
        }
        for i in 0..block.len() {
            if deletable(&block[i]) {
                if seen == target {
                    block.remove(i);
                    done = true;
                    return;
                }
                seen += 1;
            }
        }
    });
    Ok(())
}

fn tweak_const(unit: &mut Unit, m: &Mutation) -> Result<(), MutateError> {
    let mut total: u64 = 0;
    walk_unit_fn_exprs_mut(unit, &mut |e| {
        if matches!(e.kind, ExprKind::Num(_)) {
            total += 1;
        }
    });
    if total == 0 {
        return Err(MutateError::NoSites(m.kind));
    }
    let target = m.site % total;
    let d = delta(m.payload);
    let mut seen: u64 = 0;
    walk_unit_fn_exprs_mut(unit, &mut |e| {
        if let ExprKind::Num(v) = &mut e.kind {
            if seen == target {
                let mut nv = v.wrapping_add(d);
                if nv == i64::MIN {
                    nv += 1;
                }
                *v = nv;
            }
            seen += 1;
        }
    });
    Ok(())
}

/// Same-precedence substitutes for each operator (parenthesization of
/// the rendered mutant is unchanged, so the textual diff stays minimal).
fn op_alternatives(op: BinaryOp) -> &'static [BinaryOp] {
    match op {
        BinaryOp::Add => &[BinaryOp::Sub],
        BinaryOp::Sub => &[BinaryOp::Add],
        BinaryOp::Mul => &[BinaryOp::Div, BinaryOp::Mod],
        BinaryOp::Div => &[BinaryOp::Mul, BinaryOp::Mod],
        BinaryOp::Mod => &[BinaryOp::Div, BinaryOp::Mul],
        BinaryOp::BitAnd => &[BinaryOp::BitOr, BinaryOp::BitXor],
        BinaryOp::BitOr => &[BinaryOp::BitAnd, BinaryOp::BitXor],
        BinaryOp::BitXor => &[BinaryOp::BitAnd, BinaryOp::BitOr],
        BinaryOp::Shl => &[BinaryOp::Shr],
        BinaryOp::Shr => &[BinaryOp::Shl],
        BinaryOp::Eq => &[BinaryOp::Ne],
        BinaryOp::Ne => &[BinaryOp::Eq],
        BinaryOp::Lt => &[BinaryOp::Le, BinaryOp::Ge],
        BinaryOp::Le => &[BinaryOp::Lt, BinaryOp::Gt],
        BinaryOp::Gt => &[BinaryOp::Ge, BinaryOp::Le],
        BinaryOp::Ge => &[BinaryOp::Gt, BinaryOp::Lt],
        BinaryOp::LAnd => &[BinaryOp::LOr],
        BinaryOp::LOr => &[BinaryOp::LAnd],
    }
}

fn swap_op(unit: &mut Unit, m: &Mutation) -> Result<(), MutateError> {
    let mut total: u64 = 0;
    walk_unit_fn_exprs_mut(unit, &mut |e| {
        if matches!(e.kind, ExprKind::Binary(..)) {
            total += 1;
        }
    });
    if total == 0 {
        return Err(MutateError::NoSites(m.kind));
    }
    let target = m.site % total;
    let choice = m.payload.unsigned_abs();
    let mut seen: u64 = 0;
    walk_unit_fn_exprs_mut(unit, &mut |e| {
        if let ExprKind::Binary(op, ..) = &mut e.kind {
            if seen == target {
                let alts = op_alternatives(*op);
                *op = alts[(choice % alts.len() as u64) as usize];
            }
            seen += 1;
        }
    });
    Ok(())
}

fn clone_fn(unit: &mut Unit, m: &Mutation) -> Result<(), MutateError> {
    let fn_indices: Vec<usize> = unit
        .items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| matches!(it, FileItem::Func(_)).then_some(i))
        .collect();
    if fn_indices.is_empty() {
        return Err(MutateError::NoSites(m.kind));
    }
    let idx = fn_indices[(m.site % fn_indices.len() as u64) as usize];
    let FileItem::Func(orig) = &unit.items[idx] else {
        unreachable!("filtered to functions");
    };
    let base_name = orig.name.clone();
    let clone_name = format!("{base_name}_fz{}", m.payload.rem_euclid(90) + 10);
    let mut cloned = orig.clone();
    cloned.name = clone_name.clone();
    // Retarget the first direct call to the original (anywhere in the
    // unit) at the clone, so the clone is live; without call sites the
    // clone still exercises the new-symbol packaging path.
    let mut retargeted = false;
    for item in &mut unit.items {
        if retargeted {
            break;
        }
        if let FileItem::Func(f) = item {
            crate::visit::walk_stmts_exprs_mut(&mut f.body, &mut |e| {
                if retargeted {
                    return;
                }
                if let ExprKind::Call { callee, .. } = &mut e.kind {
                    if let ExprKind::Ident(n) = &mut callee.kind {
                        if *n == base_name {
                            *n = clone_name.clone();
                            retargeted = true;
                        }
                    }
                }
            });
        }
    }
    unit.items.insert(idx + 1, FileItem::Func(cloned));
    Ok(())
}

fn rename_fn(unit: &mut Unit, m: &Mutation) -> Result<(), MutateError> {
    let static_fns: Vec<usize> = unit
        .items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| match it {
            FileItem::Func(f) if f.is_static => Some(i),
            _ => None,
        })
        .collect();
    if static_fns.is_empty() {
        return Err(MutateError::NoSites(m.kind));
    }
    let idx = static_fns[(m.site % static_fns.len() as u64) as usize];
    let FileItem::Func(f) = &unit.items[idx] else {
        unreachable!("filtered to functions");
    };
    let old = f.name.clone();
    let new = format!("{old}_r{}", m.payload.rem_euclid(90) + 10);
    let mut rename = |e: &mut Expr| {
        if let ExprKind::Ident(n) = &mut e.kind {
            if *n == old {
                *n = new.clone();
            }
        }
    };
    for item in &mut unit.items {
        match item {
            FileItem::Func(func) => {
                if func.name == old {
                    func.name = new.clone();
                }
                crate::visit::walk_stmts_exprs_mut(&mut func.body, &mut rename);
            }
            FileItem::Global(g) => {
                // Ops tables hold function addresses in initialisers.
                match &mut g.init {
                    Some(Init::Scalar(e)) => walk_expr_mut(e, &mut rename),
                    Some(Init::List(items)) => {
                        for e in items {
                            walk_expr_mut(e, &mut rename);
                        }
                    }
                    None => {}
                }
            }
            FileItem::Hook { func, .. } => {
                if *func == old {
                    *func = new.clone();
                }
            }
            FileItem::Struct(_) | FileItem::Extern { .. } => {}
        }
    }
    Ok(())
}

fn edit_data(unit: &mut Unit, m: &Mutation) -> Result<(), MutateError> {
    let candidates: Vec<usize> = unit
        .items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| match it {
            FileItem::Global(g) if g.init.is_some() => Some(i),
            _ => None,
        })
        .collect();
    if candidates.is_empty() {
        return Err(MutateError::NoSites(m.kind));
    }
    let idx = candidates[(m.site % candidates.len() as u64) as usize];
    let FileItem::Global(g) = &mut unit.items[idx] else {
        unreachable!("filtered to globals");
    };
    let d = delta(m.payload);
    let tweak_expr = |e: &mut Expr| match &mut e.kind {
        ExprKind::Num(v) => {
            let mut nv = v.wrapping_add(d);
            if nv == i64::MIN {
                nv += 1;
            }
            *v = nv;
        }
        ExprKind::Str(bytes) => {
            if bytes.is_empty() {
                bytes.push(b'x');
            } else {
                let i = (d.unsigned_abs() as usize) % bytes.len();
                // Stay in the printable range the pretty-printer keeps.
                bytes[i] = b'a' + ((bytes[i].wrapping_add(1)) % 26);
            }
        }
        _ => {}
    };
    match g.init.as_mut().expect("filtered to initialised globals") {
        Init::Scalar(e) => tweak_expr(e),
        Init::List(items) => {
            if items.is_empty() {
                items.push(Expr::num(d, g.line));
            } else {
                let i = (m.payload.unsigned_abs() as usize) % items.len();
                tweak_expr(&mut items[i]);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;
    use crate::pretty::pretty_unit;

    #[test]
    fn from_state_is_new_without_the_zero_remap() {
        for seed in [1, 42, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            let (mut a, mut b) = (FuzzRng::new(seed), FuzzRng::from_state(seed));
            for _ in 0..8 {
                assert_eq!(a.next_u64(), b.next_u64());
                assert_eq!(a.state(), b.state());
            }
        }
        // Zero is the xorshift fixpoint: `new` remaps it, `from_state`
        // keeps it.
        let mut zero = FuzzRng::from_state(0);
        assert_eq!((zero.next_u64(), zero.state()), (0, 0));
        assert_ne!(FuzzRng::new(0).next_u64(), 0);
    }

    const SRC: &str = "static int debug;\n\
        int table[3] = {10, 20, 30};\n\
        static int helper(int v) {\n\
            return v * 2 + 1;\n\
        }\n\
        int entry(int a) {\n\
            int x;\n\
            x = helper(a) + table[1];\n\
            if (x > 5) {\n\
                x = x - debug;\n\
            }\n\
            return x;\n\
        }\n";

    fn unit() -> Unit {
        parse_unit("t.kc", SRC).unwrap()
    }

    #[test]
    fn mutation_serialization_roundtrips() {
        for kind in MutatorKind::ALL {
            let m = Mutation {
                kind,
                site: 12345,
                payload: -17,
            };
            assert_eq!(Mutation::parse(&m.to_string()).unwrap(), m);
        }
        assert!(Mutation::parse("bogus 1 2").is_err());
        assert!(Mutation::parse("tweak-const 1").is_err());
    }

    #[test]
    fn every_mutator_applies_and_replays_identically() {
        for (i, kind) in MutatorKind::ALL.into_iter().enumerate() {
            let m = Mutation {
                kind,
                site: 7 + i as u64,
                payload: 13,
            };
            let mut a = unit();
            apply_mutation(&mut a, &m).unwrap();
            let mut b = unit();
            apply_mutation(&mut b, &m).unwrap();
            assert_eq!(pretty_unit(&a), pretty_unit(&b), "{kind} must replay");
            assert_ne!(pretty_unit(&a), pretty_unit(&unit()), "{kind} must change the unit");
            // The mutant must still be parseable source.
            parse_unit("t.kc", &pretty_unit(&a)).expect("mutant parses");
        }
    }

    #[test]
    fn rename_updates_every_reference() {
        let mut u = unit();
        apply_mutation(
            &mut u,
            &Mutation {
                kind: MutatorKind::RenameFn,
                site: 1, // helper is the second... site % 1 static fn set
                payload: 3,
            },
        )
        .unwrap();
        let printed = pretty_unit(&u);
        // `helper` has exactly one static fn... debug is a global. The
        // static fn set here is {helper}; every call site must follow.
        assert!(!printed.contains("helper(a)"), "{printed}");
        assert!(printed.contains("helper_r13(a)"), "{printed}");
    }

    #[test]
    fn generate_mutant_is_deterministic() {
        let u = unit();
        let (m1, s1) = generate_mutant(&u, &mut FuzzRng::new(42), 3).unwrap();
        let (m2, s2) = generate_mutant(&u, &mut FuzzRng::new(42), 3).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(pretty_unit(&m1), pretty_unit(&m2));
        let (m3, _) = generate_mutant(&u, &mut FuzzRng::new(43), 3).unwrap();
        // Overwhelmingly likely to differ.
        assert_ne!(pretty_unit(&m1), pretty_unit(&m3));
    }

    #[test]
    fn edit_data_touches_only_initialisers() {
        let mut u = unit();
        apply_mutation(
            &mut u,
            &Mutation {
                kind: MutatorKind::EditData,
                site: 1,
                payload: 5,
            },
        )
        .unwrap();
        let printed = pretty_unit(&u);
        assert!(printed.contains("table[3] = {"));
        assert_ne!(printed, pretty_unit(&unit()));
    }
}
