//! Constant folding (`-O1` and above).
//!
//! Folds integer arithmetic and `sizeof` into literals. Folding changes
//! object code without changing semantics, which is exactly the class of
//! "extraneous differences" pre-post differencing must tolerate (paper
//! §3.2): a patch that perturbs a constant expression can change bytes in
//! functions the source diff never mentions.

use crate::ast::*;
use crate::sema::{eval_binop, Sema};
use crate::visit::walk_stmts_roots_mut;

/// Folds constants in every function body of the unit, one statement
/// root expression at a time, each bottom-up.
pub fn fold_unit(unit: &mut Unit, sema: &Sema) {
    for item in &mut unit.items {
        if let FileItem::Func(f) = item {
            walk_stmts_roots_mut(&mut f.body, &mut |e| fold_expr(e, sema));
        }
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
    fn every_statement_root_folds() {
        // Roots in a `for` header, a nested block and an `else` body.
        let mut u = parse_unit(
            "t.kc",
            "int f(int x) { int s; s = 0;\
             for (x = 2 * 3; x < 4 + 4; x = x + (1 << 1)) { { s = s + 5 * 5; } }\
             if (x) { return 1; } else { return 6 * 7; } }",
        )
        .unwrap();
        let sema = check_unit(&u).unwrap();
        fold_unit(&mut u, &sema);
        let text = crate::pretty::pretty_unit(&u);
        for folded in ["x = 6", "x < 8", "x = x + 2", "s = s + 25", "return 42"] {
            assert!(text.contains(folded), "{folded} in {text}");
        }
    }

    #[test]
    fn nonconst_untouched() {
        assert!(matches!(
            folded_return("int f(int x) { return x + 1; }"),
            ExprKind::Binary(..)
        ));
    }
}
