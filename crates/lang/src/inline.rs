//! AST-level function inlining — the compiler freedom at the heart of the
//! paper's safety argument.
//!
//! "Compilers commonly inline functions that do not have the `inline`
//! keyword, so this concern is not limited to some small subset of
//! functions that say inline in the source" (paper §4.2). Accordingly,
//! this pass inlines *any* sufficiently small same-unit function at `-O1`
//! and above; the `inline` keyword only raises the size budget. A patched
//! function may therefore have stale copies hiding inside other functions
//! of the unit — which is why Ksplice diffs whole optimisation units and
//! verifies the run code rather than trusting source-level reasoning.
//!
//! Inlining is semantics-preserving and deliberately conservative:
//!
//! * only callees without loops, `break`/`continue`, or static locals are
//!   candidates (their bodies are wrapped in a one-shot `while` so early
//!   `return`s become `break`s);
//! * call sites in `while`/`for` conditions or steps, or on the
//!   short-circuit side of `&&`/`||`, are left alone (hoisting would
//!   change evaluation);
//! * recursion is cut off by an inlining depth limit.
//!
//! A `static` function whose every use has been inlined away is dropped
//! from the unit, as gcc drops it — so a patch to such a function changes
//! *only* its inlined copies, the hardest case for a hot updater.

use std::collections::BTreeMap;

use crate::ast::*;
use crate::visit::{walk_expr, walk_expr_mut, walk_stmts, Node};
use crate::Options;

/// Maximum transitive inlining depth.
const MAX_DEPTH: u32 = 3;

/// Which functions were inlined where: callee → callers that absorbed a
/// copy. Used both by the build pipeline and by evaluation statistics
/// (paper §6.3 reports 20 of 64 patches modified an inlined function).
pub type InlineReport = BTreeMap<String, Vec<String>>;

/// Inlines calls within `unit` according to `opt`, dropping fully-inlined
/// static functions, and reports what was inlined where.
pub fn inline_unit(unit: &mut Unit, opt: &Options) -> InlineReport {
    let mut report = InlineReport::new();
    if opt.opt_level == 0 {
        return report;
    }
    // Snapshot candidate bodies (pre-inlining, like gcc's early inliner).
    let candidates: BTreeMap<String, Function> = unit
        .functions()
        .filter(|f| is_candidate(f, opt))
        .map(|f| (f.name.clone(), f.clone()))
        .collect();
    let mut counter = 0u32;
    for item in &mut unit.items {
        let FileItem::Func(f) = item else { continue };
        let caller = f.name.clone();
        let mut body = std::mem::take(&mut f.body);
        for _ in 0..MAX_DEPTH {
            let mut any = false;
            body = inline_block(
                body,
                &candidates,
                &caller,
                &mut counter,
                &mut any,
                &mut report,
            );
            if !any {
                break;
            }
        }
        f.body = body;
    }
    drop_dead_statics(unit, &report);
    report
}

fn is_candidate(f: &Function, opt: &Options) -> bool {
    let budget = match (opt.opt_level, f.is_inline) {
        (0, _) => return false,
        (1, false) => 12,
        (1, true) => 32,
        (_, false) => 20,
        (_, true) => 48,
    };
    // Size is statements plus expression nodes. Candidates may not
    // contain loops, loop control, static locals or a call to themselves.
    let mut size = 0;
    let mut ok = f.params.len() <= 6;
    walk_stmts(&f.body, &mut |n| {
        size += 1;
        ok &= match n {
            Node::Stmt(s) => !matches!(
                s.kind,
                StmtKind::While { .. }
                    | StmtKind::For { .. }
                    | StmtKind::Break
                    | StmtKind::Continue
                    | StmtKind::Decl {
                        is_static: true,
                        ..
                    }
            ),
            Node::Expr(e) => !matches!(
                &e.kind,
                ExprKind::Call { callee, .. }
                    if matches!(&callee.kind, ExprKind::Ident(n) if *n == f.name)
            ),
        };
    });
    ok && size <= budget
}

/// Inlines eligible calls in a statement list, returning the new list.
fn inline_block(
    body: Vec<Stmt>,
    candidates: &BTreeMap<String, Function>,
    caller: &str,
    counter: &mut u32,
    any: &mut bool,
    report: &mut InlineReport,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(body.len());
    for mut s in body {
        // First hoist calls out of this statement's hoistable expressions.
        let mut prefix = Vec::new();
        match &mut s.kind {
            StmtKind::Decl { init: Some(e), .. }
            | StmtKind::Expr(e)
            | StmtKind::Return(Some(e)) => {
                hoist_calls(
                    e,
                    candidates,
                    caller,
                    counter,
                    &mut prefix,
                    any,
                    report,
                    true,
                );
            }
            StmtKind::Assign { target, value } => {
                hoist_calls(
                    target,
                    candidates,
                    caller,
                    counter,
                    &mut prefix,
                    any,
                    report,
                    true,
                );
                hoist_calls(
                    value,
                    candidates,
                    caller,
                    counter,
                    &mut prefix,
                    any,
                    report,
                    true,
                );
            }
            StmtKind::If { cond, .. } => {
                hoist_calls(
                    cond,
                    candidates,
                    caller,
                    counter,
                    &mut prefix,
                    any,
                    report,
                    true,
                );
            }
            // Loop conditions and steps are re-evaluated; leave them.
            StmtKind::While { .. } | StmtKind::For { .. } => {}
            _ => {}
        }
        // Then recurse into nested blocks.
        s.kind = match s.kind {
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => StmtKind::If {
                cond,
                then_body: inline_block(then_body, candidates, caller, counter, any, report),
                else_body: inline_block(else_body, candidates, caller, counter, any, report),
            },
            StmtKind::While { cond, body } => StmtKind::While {
                cond,
                body: inline_block(body, candidates, caller, counter, any, report),
            },
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => StmtKind::For {
                init,
                cond,
                step,
                body: inline_block(body, candidates, caller, counter, any, report),
            },
            StmtKind::Block(b) => {
                StmtKind::Block(inline_block(b, candidates, caller, counter, any, report))
            }
            other => other,
        };
        out.extend(prefix);
        out.push(s);
    }
    out
}

/// Replaces eligible `Call` sub-expressions with fresh temporaries,
/// appending the expanded callee bodies to `prefix`. `hoistable` is false
/// under short-circuit right-hand sides.
#[allow(clippy::too_many_arguments)]
fn hoist_calls(
    e: &mut Expr,
    candidates: &BTreeMap<String, Function>,
    caller: &str,
    counter: &mut u32,
    prefix: &mut Vec<Stmt>,
    any: &mut bool,
    report: &mut InlineReport,
    hoistable: bool,
) {
    // Recurse first (innermost calls hoist first, preserving order).
    match &mut e.kind {
        ExprKind::Unary(_, i) => hoist_calls(
            i, candidates, caller, counter, prefix, any, report, hoistable,
        ),
        ExprKind::Binary(op, l, r) => {
            hoist_calls(
                l, candidates, caller, counter, prefix, any, report, hoistable,
            );
            let rhs_hoistable = hoistable && !matches!(op, BinaryOp::LAnd | BinaryOp::LOr);
            hoist_calls(
                r,
                candidates,
                caller,
                counter,
                prefix,
                any,
                report,
                rhs_hoistable,
            );
        }
        ExprKind::Call { callee, args } => {
            for a in args.iter_mut() {
                hoist_calls(
                    a, candidates, caller, counter, prefix, any, report, hoistable,
                );
            }
            hoist_calls(
                callee, candidates, caller, counter, prefix, any, report, hoistable,
            );
        }
        ExprKind::Index(b, i) => {
            hoist_calls(
                b, candidates, caller, counter, prefix, any, report, hoistable,
            );
            hoist_calls(
                i, candidates, caller, counter, prefix, any, report, hoistable,
            );
        }
        ExprKind::Field(b, _) | ExprKind::PField(b, _) => hoist_calls(
            b, candidates, caller, counter, prefix, any, report, hoistable,
        ),
        _ => {}
    }
    if !hoistable {
        return;
    }
    // Now consider this node itself.
    let ExprKind::Call { callee, args } = &e.kind else {
        return;
    };
    let ExprKind::Ident(name) = &callee.kind else {
        return;
    };
    let Some(f) = candidates.get(name) else {
        return;
    };
    if f.name == caller || f.params.len() != args.len() {
        return;
    }
    *any = true;
    report
        .entry(f.name.clone())
        .or_default()
        .push(caller.to_string());
    let id = *counter;
    *counter += 1;
    let line = e.line;
    let pfx = format!("__inl{id}_");
    let ret = format!("{pfx}ret");
    // Temporaries for the return slot and each argument.
    prefix.push(Stmt::new(
        StmtKind::Decl {
            name: ret.clone(),
            ty: Type::Int,
            is_static: false,
            init: Some(Expr::num(0, line)),
        },
        line,
    ));
    for ((pname, pty), arg) in f.params.iter().zip(args) {
        prefix.push(Stmt::new(
            StmtKind::Decl {
                name: format!("{pfx}{pname}"),
                ty: pty.clone(),
                is_static: false,
                init: Some(arg.clone()),
            },
            line,
        ));
    }
    // Rename the body's locals/params and turn returns into
    // `ret = ...; break;`, then wrap in a one-shot loop so early returns
    // exit cleanly (candidates contain no loops of their own).
    let mut body = f.body.clone();
    let param_names: Vec<&str> = f.params.iter().map(|(n, _)| n.as_str()).collect();
    let mut renames: BTreeMap<String, String> = param_names
        .iter()
        .map(|n| (n.to_string(), format!("{pfx}{n}")))
        .collect();
    for s in &mut body {
        rename_stmt(s, &pfx, &mut renames, &ret);
    }
    body.push(Stmt::new(StmtKind::Break, line));
    prefix.push(Stmt::new(
        StmtKind::While {
            cond: Expr::num(1, line),
            body,
        },
        line,
    ));
    e.kind = ExprKind::Ident(ret);
}

/// Renames locals (declaring new names on the fly) and rewrites returns.
fn rename_stmt(s: &mut Stmt, pfx: &str, renames: &mut BTreeMap<String, String>, ret: &str) {
    let line = s.line;
    match &mut s.kind {
        StmtKind::Decl { name, init, .. } => {
            if let Some(e) = init {
                rename_expr(e, renames);
            }
            let new = format!("{pfx}{name}");
            renames.insert(name.clone(), new.clone());
            *name = new;
        }
        StmtKind::Expr(e) => rename_expr(e, renames),
        StmtKind::Assign { target, value } => {
            rename_expr(target, renames);
            rename_expr(value, renames);
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            rename_expr(cond, renames);
            for st in then_body.iter_mut().chain(else_body.iter_mut()) {
                rename_stmt(st, pfx, renames, ret);
            }
        }
        StmtKind::Block(b) => {
            for st in b {
                rename_stmt(st, pfx, renames, ret);
            }
        }
        StmtKind::Return(value) => {
            let assigned = match value.take() {
                Some(mut e) => {
                    rename_expr(&mut e, renames);
                    e
                }
                None => Expr::num(0, line),
            };
            s.kind = StmtKind::Block(vec![
                Stmt::new(
                    StmtKind::Assign {
                        target: Expr::new(ExprKind::Ident(ret.to_string()), line),
                        value: assigned,
                    },
                    line,
                ),
                Stmt::new(StmtKind::Break, line),
            ]);
        }
        // Candidates contain no loops or loop-control statements.
        StmtKind::While { .. } | StmtKind::For { .. } | StmtKind::Break | StmtKind::Continue => {
            unreachable!("non-candidate body slipped through")
        }
    }
}

/// Renames every identifier in `renames`, direct callees included (an
/// indirect call through a renamed local must follow it).
fn rename_expr(e: &mut Expr, renames: &BTreeMap<String, String>) {
    walk_expr_mut(e, &mut |e| {
        if let ExprKind::Ident(n) = &mut e.kind {
            if let Some(new) = renames.get(n) {
                *n = new.clone();
            }
        }
    });
}

/// Drops `static` functions that were inlined at every call site and are
/// no longer referenced anywhere in the unit.
fn drop_dead_statics(unit: &mut Unit, report: &InlineReport) {
    let inlined: Vec<String> = report.keys().cloned().collect();
    let mut dead = Vec::new();
    for name in &inlined {
        let Some(f) = unit.function(name) else {
            continue;
        };
        if !f.is_static {
            continue;
        }
        let mut referenced = false;
        for item in &unit.items {
            let mut mentions = |n: Node<'_>| {
                referenced |=
                    matches!(n, Node::Expr(Expr { kind: ExprKind::Ident(id), .. }) if id == name);
            };
            match item {
                FileItem::Func(g) if g.name != *name => walk_stmts(&g.body, &mut mentions),
                FileItem::Global(g) => {
                    for e in g.init.iter().flat_map(Init::exprs) {
                        walk_expr(e, &mut mentions);
                    }
                }
                FileItem::Hook { func, .. } => referenced |= func == name,
                _ => {}
            }
        }
        if !referenced {
            dead.push(name.clone());
        }
    }
    unit.items.retain(|item| match item {
        FileItem::Func(f) => !dead.contains(&f.name),
        _ => true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    fn opt2() -> Options {
        Options {
            opt_level: 2,
            ..Options::distro()
        }
    }

    #[test]
    fn inlines_small_function_without_keyword() {
        let mut u = parse_unit(
            "t.kc",
            "static int min(int a, int b) { if (a < b) return a; return b; }\
             int f(int x) { return min(x, 10); }",
        )
        .unwrap();
        let report = inline_unit(&mut u, &opt2());
        assert_eq!(report["min"], vec!["f".to_string()]);
        // min was static and fully inlined: dropped.
        assert!(u.function("min").is_none());
        // The call site became an identifier read.
        let f = u.function("f").unwrap();
        assert!(f.body.len() > 1, "body should contain the expanded callee");
    }

    #[test]
    fn keeps_nonstatic_out_of_line_copy() {
        let mut u = parse_unit(
            "t.kc",
            "int min(int a, int b) { if (a < b) return a; return b; }\
             int f(int x) { return min(x, 10); }",
        )
        .unwrap();
        let report = inline_unit(&mut u, &opt2());
        assert!(report.contains_key("min"));
        assert!(u.function("min").is_some());
    }

    #[test]
    fn address_taken_static_kept() {
        let mut u = parse_unit(
            "t.kc",
            "static int tick() { return 1; }\
             int ops = &tick;\
             int f() { return tick(); }",
        )
        .unwrap();
        inline_unit(&mut u, &opt2());
        assert!(u.function("tick").is_some());
    }

    #[test]
    fn loops_prevent_inlining() {
        let mut u = parse_unit(
            "t.kc",
            "static int spin(int n) { while (n > 0) { n = n - 1; } return n; }\
             int f() { return spin(5); }",
        )
        .unwrap();
        let report = inline_unit(&mut u, &opt2());
        assert!(report.is_empty());
        assert!(u.function("spin").is_some());
    }

    #[test]
    fn short_circuit_rhs_not_hoisted() {
        let mut u = parse_unit(
            "t.kc",
            "static int side() { return 1; }\
             int f(int x) { if (x && side()) return 1; return 0; }",
        )
        .unwrap();
        let report = inline_unit(&mut u, &opt2());
        assert!(!report.contains_key("side"), "rhs of && must not hoist");
    }

    #[test]
    fn loop_condition_not_hoisted() {
        let mut u = parse_unit(
            "t.kc",
            "static int limit() { return 10; }\
             int f(int i) { int n; n = 0; while (i < limit()) { i = i + 1; n = n + 1; } return n; }",
        )
        .unwrap();
        let report = inline_unit(&mut u, &opt2());
        assert!(!report.contains_key("limit"));
    }

    #[test]
    fn recursion_not_inlined() {
        let mut u = parse_unit(
            "t.kc",
            "static int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\
             int f() { return fact(5); }",
        )
        .unwrap();
        let report = inline_unit(&mut u, &opt2());
        assert!(report.is_empty());
    }

    #[test]
    fn opt0_disables_inlining() {
        let mut u = parse_unit(
            "t.kc",
            "static int one() { return 1; }\
             int f() { return one(); }",
        )
        .unwrap();
        let report = inline_unit(
            &mut u,
            &Options {
                opt_level: 0,
                ..Options::distro()
            },
        );
        assert!(report.is_empty());
        assert!(u.function("one").is_some());
    }

    #[test]
    fn transitive_inlining_bounded() {
        let mut u = parse_unit(
            "t.kc",
            "static int a() { return 1; }\
             static int b() { return a() + 1; }\
             static int c() { return b() + 1; }\
             int f() { return c(); }",
        )
        .unwrap();
        let report = inline_unit(&mut u, &opt2());
        assert!(report.contains_key("c"));
        // All three collapse into f.
        assert!(u.function("a").is_none());
        assert!(u.function("b").is_none());
        assert!(u.function("c").is_none());
    }
}
