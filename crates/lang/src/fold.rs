//! Constant folding (`-O1` and above).
//!
//! Folds integer arithmetic and `sizeof` into literals. Folding changes
//! object code without changing semantics, which is exactly the class of
//! "extraneous differences" pre-post differencing must tolerate (paper
//! §3.2): a patch that perturbs a constant expression can change bytes in
//! functions the source diff never mentions.

use crate::ast::*;
use crate::sema::{eval_binop, Sema};

/// Folds constants in every function body of the unit.
pub fn fold_unit(unit: &mut Unit, sema: &Sema) {
    for item in &mut unit.items {
        if let FileItem::Func(f) = item {
            for s in &mut f.body {
                fold_stmt(s, sema);
            }
        }
    }
}

fn fold_stmt(s: &mut Stmt, sema: &Sema) {
    match &mut s.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                fold_expr(e, sema);
            }
        }
        StmtKind::Expr(e) => fold_expr(e, sema),
        StmtKind::Assign { target, value } => {
            fold_expr(target, sema);
            fold_expr(value, sema);
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            fold_expr(cond, sema);
            for s in then_body.iter_mut().chain(else_body.iter_mut()) {
                fold_stmt(s, sema);
            }
        }
        StmtKind::While { cond, body } => {
            fold_expr(cond, sema);
            for s in body {
                fold_stmt(s, sema);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                fold_stmt(i, sema);
            }
            if let Some(c) = cond {
                fold_expr(c, sema);
            }
            if let Some(st) = step {
                fold_stmt(st, sema);
            }
            for s in body {
                fold_stmt(s, sema);
            }
        }
        StmtKind::Return(Some(e)) => fold_expr(e, sema),
        StmtKind::Block(body) => {
            for s in body {
                fold_stmt(s, sema);
            }
        }
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
    }
}

fn fold_expr(e: &mut Expr, sema: &Sema) {
    match &mut e.kind {
        ExprKind::Sizeof(ty) => {
            // The checker sized it; codegen reports a type it cannot.
            if let Ok(size) = sema.size_of(ty, e.line) {
                e.kind = ExprKind::Num(size as i64);
            }
        }
        ExprKind::Unary(op, inner) => {
            fold_expr(inner, sema);
            if let ExprKind::Num(v) = inner.kind {
                let folded = match op {
                    UnaryOp::Neg => Some(v.wrapping_neg()),
                    UnaryOp::BitNot => Some(!v),
                    UnaryOp::LNot => Some((v == 0) as i64),
                    UnaryOp::Deref | UnaryOp::Addr => None,
                };
                if let Some(v) = folded {
                    e.kind = ExprKind::Num(v);
                }
            }
        }
        ExprKind::Binary(op, l, r) => {
            fold_expr(l, sema);
            fold_expr(r, sema);
            if let (ExprKind::Num(a), ExprKind::Num(b)) = (&l.kind, &r.kind) {
                if let Some(v) = eval_binop(*op, *a, *b) {
                    e.kind = ExprKind::Num(v);
                }
            }
        }
        ExprKind::Call { callee, args } => {
            fold_expr(callee, sema);
            for a in args {
                fold_expr(a, sema);
            }
        }
        ExprKind::Index(b, i) => {
            fold_expr(b, sema);
            fold_expr(i, sema);
        }
        ExprKind::Field(b, _) | ExprKind::PField(b, _) => fold_expr(b, sema),
        ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Ident(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;
    use crate::sema::check_unit;

    fn folded_return(src: &str) -> ExprKind {
        let mut u = parse_unit("t.kc", src).unwrap();
        let sema = check_unit(&u).unwrap();
        fold_unit(&mut u, &sema);
        let f = u.function("f").unwrap();
        match &f.body.last().unwrap().kind {
            StmtKind::Return(Some(e)) => e.kind.clone(),
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_folds() {
        assert_eq!(
            folded_return("int f() { return 2 * 21; }"),
            ExprKind::Num(42)
        );
        assert_eq!(
            folded_return("int f() { return (1 << 4) | 3; }"),
            ExprKind::Num(19)
        );
        assert_eq!(
            folded_return("int f() { return -(5 - 8); }"),
            ExprKind::Num(3)
        );
    }

    #[test]
    fn sizeof_folds_with_layout() {
        assert_eq!(
            folded_return("struct s { int a; byte b; }; int f() { return sizeof(struct s); }"),
            ExprKind::Num(16)
        );
        assert_eq!(
            folded_return("int f() { return sizeof(int); }"),
            ExprKind::Num(8)
        );
    }

    #[test]
    fn division_by_zero_not_folded() {
        assert!(matches!(
            folded_return("int f() { return 1 / 0; }"),
            ExprKind::Binary(..)
        ));
    }

    #[test]
    fn nonconst_untouched() {
        assert!(matches!(
            folded_return("int f(int x) { return x + 1; }"),
            ExprKind::Binary(..)
        ));
    }
}
