//! The AST traversals: the one place that knows each node's children and
//! the order they are visited in.
//!
//! Every walker visits nodes in a single canonical order (item order,
//! then statement order, then left-to-right inside expressions), so a
//! "site index" — the N-th visited node of some kind — identifies the
//! same node on every walk of the same unit. Mutation descriptors are
//! serialized as site indices and replayed deterministically on top of
//! this guarantee. The inliner, the drift generator and codegen's frame
//! sizing read the tree through [`walk_stmts`]; the mutators and the
//! drift generator rewrite it through the `_mut` walkers and
//! [`rename_symbol`].

use crate::ast::*;

/// One node of a read-only walk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Node<'a> {
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

/// Visits every statement (a `for` loop's init and step included) and
/// every expression in a statement list, read-only, each node before its
/// children and in the order of [`walk_stmts_exprs_mut`].
pub(crate) fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(Node<'a>)) {
    for s in stmts {
        walk_stmt(s, f);
    }
}

fn walk_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(Node<'a>)) {
    f(Node::Stmt(stmt));
    match &stmt.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                walk_expr(e, f);
            }
        }
        StmtKind::Expr(e) => walk_expr(e, f),
        StmtKind::Assign { target, value } => {
            walk_expr(target, f);
            walk_expr(value, f);
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            walk_expr(cond, f);
            walk_stmts(then_body, f);
            walk_stmts(else_body, f);
        }
        StmtKind::While { cond, body } => {
            walk_expr(cond, f);
            walk_stmts(body, f);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(s) = init {
                walk_stmt(s, f);
            }
            if let Some(c) = cond {
                walk_expr(c, f);
            }
            if let Some(s) = step {
                walk_stmt(s, f);
            }
            walk_stmts(body, f);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                walk_expr(e, f);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Block(body) => walk_stmts(body, f),
    }
}

/// Visits an expression tree in pre-order, read-only.
pub(crate) fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(Node<'a>)) {
    f(Node::Expr(e));
    match &e.kind {
        ExprKind::Unary(_, operand) => walk_expr(operand, f),
        ExprKind::Binary(_, l, r) => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Index(base, idx) => {
            walk_expr(base, f);
            walk_expr(idx, f);
        }
        ExprKind::Field(base, _) | ExprKind::PField(base, _) => walk_expr(base, f),
        ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Ident(_) | ExprKind::Sizeof(_) => {}
    }
}

/// Visits every expression in a statement list in pre-order (each node
/// before its children), mutably.
pub fn walk_stmts_exprs_mut(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Expr)) {
    walk_stmts_roots_mut(stmts, &mut |e| walk_expr_mut(e, f));
}

/// Visits the root expression of every statement in a statement list
/// (a `for` loop's init and step included), mutably and in statement
/// order: the expressions [`walk_stmts_exprs_mut`] descends from. The
/// callback owns the descent into each root's subexpressions.
pub(crate) fn walk_stmts_roots_mut(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Expr)) {
    for s in stmts {
        walk_stmt_roots_mut(s, f);
    }
}

fn walk_stmt_roots_mut(stmt: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match &mut stmt.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                f(e);
            }
        }
        StmtKind::Expr(e) => f(e),
        StmtKind::Assign { target, value } => {
            f(target);
            f(value);
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            f(cond);
            walk_stmts_roots_mut(then_body, f);
            walk_stmts_roots_mut(else_body, f);
        }
        StmtKind::While { cond, body } => {
            f(cond);
            walk_stmts_roots_mut(body, f);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(s) = init {
                walk_stmt_roots_mut(s, f);
            }
            if let Some(c) = cond {
                f(c);
            }
            if let Some(s) = step {
                walk_stmt_roots_mut(s, f);
            }
            walk_stmts_roots_mut(body, f);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                f(e);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Block(body) => walk_stmts_roots_mut(body, f),
    }
}

/// Visits an expression tree in pre-order, mutably.
pub fn walk_expr_mut(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    f(e);
    match &mut e.kind {
        ExprKind::Unary(_, operand) => walk_expr_mut(operand, f),
        ExprKind::Binary(_, l, r) => {
            walk_expr_mut(l, f);
            walk_expr_mut(r, f);
        }
        ExprKind::Call { callee, args } => {
            walk_expr_mut(callee, f);
            for a in args {
                walk_expr_mut(a, f);
            }
        }
        ExprKind::Index(base, idx) => {
            walk_expr_mut(base, f);
            walk_expr_mut(idx, f);
        }
        ExprKind::Field(base, _) | ExprKind::PField(base, _) => walk_expr_mut(base, f),
        ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Ident(_) | ExprKind::Sizeof(_) => {}
    }
}

/// Visits every expression in every function body of the unit, in
/// canonical order (global initialisers are *not* visited — data edits
/// are a separate mutator with different pipeline semantics).
pub fn walk_unit_fn_exprs_mut(unit: &mut Unit, f: &mut impl FnMut(&mut Expr)) {
    for item in &mut unit.items {
        if let FileItem::Func(func) = item {
            walk_stmts_exprs_mut(&mut func.body, f);
        }
    }
}

/// Renames the symbol `old` to `new` throughout one unit: its function
/// definition, every identifier reference (direct calls, address-takes,
/// ops tables in global initialisers), hook registrations and `extern`
/// declarations.
pub(crate) fn rename_symbol(unit: &mut Unit, old: &str, new: &str) {
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
            FileItem::Global(g) => {
                for e in g.init.iter_mut().flat_map(Init::exprs_mut) {
                    walk_expr_mut(e, &mut rename);
                }
            }
            FileItem::Hook { func: name, .. } | FileItem::Extern { name, .. } => {
                if name == old {
                    *name = new.to_string();
                }
            }
            FileItem::Struct(_) => {}
        }
    }
}

/// A statement-list visitor context: the `int`-typed variable names in
/// scope at the *start* of the visited block (parameters plus locals
/// declared in enclosing blocks before it).
pub struct BlockCx<'a> {
    /// Scalar `int` variables usable by synthesized statements.
    pub scope_ints: &'a [String],
    /// Nesting depth: 0 for a function's top-level body.
    pub depth: usize,
}

/// Visits every statement list (function bodies and all nested
/// control-flow bodies) of every function, in canonical order, with the
/// in-scope `int` variables at block entry. The callback may insert or
/// remove statements in the visited block; nested blocks of *newly
/// inserted* statements are not re-visited (the walk snapshots the list
/// length on entry).
pub fn walk_unit_blocks_mut(unit: &mut Unit, f: &mut impl FnMut(&mut Vec<Stmt>, &BlockCx)) {
    for item in &mut unit.items {
        if let FileItem::Func(func) = item {
            let mut scope: Vec<String> = func
                .params
                .iter()
                .filter(|(_, ty)| matches!(ty, Type::Int))
                .map(|(n, _)| n.clone())
                .collect();
            walk_block_mut(&mut func.body, &mut scope, 0, f);
        }
    }
}

fn walk_block_mut(
    block: &mut Vec<Stmt>,
    scope: &mut Vec<String>,
    depth: usize,
    f: &mut impl FnMut(&mut Vec<Stmt>, &BlockCx),
) {
    let scope_base = scope.len();
    f(
        block,
        &BlockCx {
            scope_ints: &scope[..],
            depth,
        },
    );
    let visit_len = block.len();
    for i in 0..visit_len {
        if i >= block.len() {
            break;
        }
        // Record declarations as they pass so nested blocks see them.
        if let StmtKind::Decl { name, ty, .. } = &block[i].kind {
            if matches!(ty, Type::Int) {
                scope.push(name.clone());
            }
            continue;
        }
        match &mut block[i].kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                walk_block_mut(then_body, scope, depth + 1, f);
                walk_block_mut(else_body, scope, depth + 1, f);
            }
            StmtKind::While { body, .. } => walk_block_mut(body, scope, depth + 1, f),
            StmtKind::For { body, .. } => walk_block_mut(body, scope, depth + 1, f),
            StmtKind::Block(body) => walk_block_mut(body, scope, depth + 1, f),
            _ => {}
        }
    }
    scope.truncate(scope_base);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    const SRC: &str = "int f(int a, byte *p) {\
        int x;\
        x = a + 1;\
        if (x > 2) { int y; y = x * 3; while (y) { y = y - 1; } }\
        return x;\
    }";

    #[test]
    fn expr_walk_order_is_stable() {
        let mut u = parse_unit("t.kc", SRC).unwrap();
        let mut nums = Vec::new();
        walk_unit_fn_exprs_mut(&mut u, &mut |e| {
            if let ExprKind::Num(v) = e.kind {
                nums.push(v);
            }
        });
        assert_eq!(nums, vec![1, 2, 3, 1]);
    }

    #[test]
    fn read_only_walk_sees_for_headers_in_mut_walk_order() {
        let src = "int g(int n) { int s; s = 0; for (n = n + 1; n > 2; n = n - 3) { s = s + 4; } return s; }";
        let mut u = parse_unit("t.kc", src).unwrap();
        let (mut stmts, mut nums) = (0, Vec::new());
        walk_stmts(&u.function("g").unwrap().body, &mut |n| match n {
            Node::Stmt(_) => stmts += 1,
            Node::Expr(Expr {
                kind: ExprKind::Num(v),
                ..
            }) => nums.push(*v),
            Node::Expr(_) => {}
        });
        // decl, assign, for (with its init and step), body assign, return.
        assert_eq!(stmts, 7);
        assert_eq!(nums, vec![0, 1, 2, 3, 4]);
        let mut mut_nums = Vec::new();
        walk_unit_fn_exprs_mut(&mut u, &mut |e| {
            if let ExprKind::Num(v) = e.kind {
                mut_nums.push(v);
            }
        });
        assert_eq!(nums, mut_nums);
    }

    #[test]
    fn rename_symbol_reaches_every_reference() {
        let unit = |f: &str, h: &str| {
            let src = format!(
                "extern int {h}(); static int {f}() {{ return {h}(); }} int ops = &{f};\
                 int g() {{ return {f}() + {h}(); }} ksplice_apply({f});"
            );
            parse_unit("t.kc", &src).unwrap()
        };
        let mut u = unit("f", "h");
        rename_symbol(&mut u, "f", "f2");
        rename_symbol(&mut u, "h", "h2");
        assert_eq!(u, unit("f2", "h2"));
    }

    #[test]
    fn block_walk_sees_scope() {
        let mut u = parse_unit("t.kc", SRC).unwrap();
        let mut seen = Vec::new();
        walk_unit_blocks_mut(&mut u, &mut |block, cx| {
            seen.push((block.len(), cx.depth, cx.scope_ints.to_vec()));
        });
        // Function body (param a, not byte* p), then if-then block (a, x),
        // then the while body nested in it (a, x, y), then the empty else.
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0].2, vec!["a".to_string()]);
        assert_eq!(seen[1].2, vec!["a".to_string(), "x".to_string()]);
        assert_eq!(seen[2].2, vec!["a".to_string(), "x".to_string(), "y".to_string()]);
        assert_eq!(seen[3].2, vec!["a".to_string(), "x".to_string()]);
    }
}
