//! Recursive-descent parser for `kc`.

use crate::ast::*;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use crate::CompileError;

/// The deepest nesting a unit may have: statements, expressions and a
/// type's pointer stars, counted together along one path from a function
/// down. Every pass after the parser (checker, folder, inliner, codegen,
/// printer, even dropping the AST) recurses along such a path, so a unit
/// nested past this is refused here rather than overflowing a worker
/// thread's stack. A chain built in a loop (`a + b + c`, `p->a->b`,
/// `f(x)(y)`) nests one level per link. 128 levels of every shape parse,
/// print and compile on a 2 MiB thread in a debug build; the base tree
/// nests under ten.
pub const MAX_DEPTH: u32 = 128;

/// Parses one compilation unit from source text.
pub fn parse_unit(name: &str, src: &str) -> Result<Unit, CompileError> {
    let tokens = lex(name, src)?;
    let mut p = Parser {
        unit: name.to_string(),
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut items = Vec::new();
    while !p.at(&TokenKind::Eof) {
        items.push(p.item()?);
    }
    Ok(Unit {
        name: name.to_string(),
        items,
    })
}

struct Parser {
    unit: String,
    /// The unit's tokens, ending in `Eof`. The parser never backtracks,
    /// so [`Parser::next`] moves each token's kind out as it consumes it.
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of nesting open at the current token (see [`MAX_DEPTH`]).
    depth: u32,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Consumes the current token and returns its kind. The final `Eof`
    /// is never consumed: it stays for every later peek.
    fn next(&mut self) -> TokenKind {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1].kind, TokenKind::Eof)
        } else {
            TokenKind::Eof
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), CompileError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> CompileError {
        CompileError::new(&self.unit, self.line(), message)
    }

    /// Opens one more level of nesting at the current token, refusing
    /// to pass [`MAX_DEPTH`]. The caller closes what it opened with
    /// [`Parser::close`]; an error ends the parse, so error paths need
    /// not.
    fn open(&mut self) -> Result<(), CompileError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn close(&mut self, levels: u32) {
        self.depth -= levels;
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        self.open()?;
        let out = parse(self);
        self.close(1);
        out
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        match self.next() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(CompileError::new(
                &self.unit,
                self.tokens[self.pos.saturating_sub(1)].line,
                format!("expected identifier, found {other}"),
            )),
        }
    }

    // ---- file-scope items ------------------------------------------------

    fn item(&mut self) -> Result<FileItem, CompileError> {
        let line = self.line();
        // Struct definition: `struct S { ... };` (vs `struct S x;` global).
        if self.at(&TokenKind::KwStruct) {
            if let TokenKind::Ident(_) = self.peek2() {
                if self.tokens[(self.pos + 2).min(self.tokens.len() - 1)].kind == TokenKind::LBrace
                {
                    return self.struct_def().map(FileItem::Struct);
                }
            }
        }
        if self.eat(&TokenKind::KwExtern) {
            // `extern int name;` or `extern int name(...);` — parameter
            // lists are skipped; everything external is int-shaped.
            self.expect(&TokenKind::KwInt)?;
            while self.eat(&TokenKind::Star) {}
            let name = self.ident()?;
            let mut is_func = false;
            if self.eat(&TokenKind::LParen) {
                is_func = true;
                let mut depth = 1;
                while depth > 0 {
                    match self.next() {
                        TokenKind::LParen => depth += 1,
                        TokenKind::RParen => depth -= 1,
                        TokenKind::Eof => return Err(self.err("unterminated extern".into())),
                        _ => {}
                    }
                }
            }
            self.expect(&TokenKind::Semi)?;
            return Ok(FileItem::Extern {
                name,
                is_func,
                line,
            });
        }
        // Ksplice hook macros: `ksplice_apply(fn);` at file scope.
        if let TokenKind::Ident(id) = self.peek() {
            if let Some(kind) = HookKind::ALL.iter().find(|k| k.macro_name() == id) {
                let kind = *kind;
                self.next();
                self.expect(&TokenKind::LParen)?;
                let func = self.ident()?;
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::Semi)?;
                return Ok(FileItem::Hook { kind, func, line });
            }
        }
        // Function or global: [static] [inline] type stars name ...
        let is_static = self.eat(&TokenKind::KwStatic);
        let is_inline = self.eat(&TokenKind::KwInline);
        let base = self.base_type()?;
        let ty = self.pointer_suffix(base)?;
        let name = self.ident()?;
        if self.at(&TokenKind::LParen) {
            let f = self.function_rest(name, is_static, is_inline, line)?;
            return Ok(FileItem::Func(f));
        }
        if is_inline {
            return Err(self.err("`inline` is only valid on functions".into()));
        }
        let ty = self.array_suffix(ty)?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.initializer()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(FileItem::Global(Global {
            name,
            ty,
            is_static,
            init,
            line,
        }))
    }

    fn struct_def(&mut self) -> Result<StructDef, CompileError> {
        let line = self.line();
        self.expect(&TokenKind::KwStruct)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            let base = self.base_type()?;
            let ty = self.pointer_suffix(base)?;
            let fname = self.ident()?;
            let ty = self.array_suffix(ty)?;
            self.expect(&TokenKind::Semi)?;
            fields.push((fname, ty));
        }
        self.expect(&TokenKind::Semi)?;
        Ok(StructDef { name, fields, line })
    }

    fn base_type(&mut self) -> Result<Type, CompileError> {
        if self.eat(&TokenKind::KwInt) {
            Ok(Type::Int)
        } else if self.eat(&TokenKind::KwByte) {
            Ok(Type::Byte)
        } else if self.eat(&TokenKind::KwStruct) {
            Ok(Type::Struct(self.ident()?))
        } else {
            Err(self.err(format!("expected type, found {}", self.peek())))
        }
    }

    /// Wraps `ty` in one pointer per `*`; each nests one level.
    fn pointer_suffix(&mut self, mut ty: Type) -> Result<Type, CompileError> {
        let mut stars = 0;
        while self.at(&TokenKind::Star) {
            self.open()?;
            stars += 1;
            self.next();
            ty = Type::ptr(ty);
        }
        self.close(stars);
        Ok(ty)
    }

    fn array_suffix(&mut self, ty: Type) -> Result<Type, CompileError> {
        if self.eat(&TokenKind::LBracket) {
            let n = match self.next() {
                TokenKind::Int(v) if v >= 0 => v as u64,
                other => return Err(self.err(format!("expected array length, found {other}"))),
            };
            self.expect(&TokenKind::RBracket)?;
            Ok(Type::Array(Box::new(ty), n))
        } else {
            Ok(ty)
        }
    }

    fn initializer(&mut self) -> Result<Init, CompileError> {
        if self.eat(&TokenKind::LBrace) {
            let mut items = Vec::new();
            if !self.at(&TokenKind::RBrace) {
                loop {
                    items.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                    // Allow a trailing comma.
                    if self.at(&TokenKind::RBrace) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RBrace)?;
            Ok(Init::List(items))
        } else {
            Ok(Init::Scalar(self.expr()?))
        }
    }

    fn function_rest(
        &mut self,
        name: String,
        is_static: bool,
        is_inline: bool,
        line: u32,
    ) -> Result<Function, CompileError> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let base = self.base_type()?;
                let ty = self.pointer_suffix(base)?;
                if !ty.is_scalar() {
                    return Err(
                        self.err("parameters must be scalar (pass structs by pointer)".into())
                    );
                }
                let pname = self.ident()?;
                params.push((pname, ty));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::LBrace)?;
        let body = self.block_body()?;
        Ok(Function {
            name,
            params,
            body,
            is_static,
            is_inline,
            line,
        })
    }

    // ---- statements ------------------------------------------------------

    fn block_body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(self.err("unterminated block".into()));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn braced_or_single(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.eat(&TokenKind::LBrace) {
            self.block_body()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn is_decl_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::KwInt | TokenKind::KwByte | TokenKind::KwStatic
        ) || (self.at(&TokenKind::KwStruct) && matches!(self.peek2(), TokenKind::Ident(_)))
    }

    /// One statement, nested one level below its enclosing statement.
    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        if self.eat(&TokenKind::KwIf) {
            self.expect(&TokenKind::LParen)?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            let then_body = self.braced_or_single()?;
            let else_body = if self.eat(&TokenKind::KwElse) {
                self.braced_or_single()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::new(
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                },
                line,
            ));
        }
        if self.eat(&TokenKind::KwWhile) {
            self.expect(&TokenKind::LParen)?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            let body = self.braced_or_single()?;
            return Ok(Stmt::new(StmtKind::While { cond, body }, line));
        }
        if self.eat(&TokenKind::KwFor) {
            self.expect(&TokenKind::LParen)?;
            let init = if self.at(&TokenKind::Semi) {
                None
            } else {
                Some(Box::new(self.simple_stmt_no_semi()?))
            };
            self.expect(&TokenKind::Semi)?;
            let cond = if self.at(&TokenKind::Semi) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(&TokenKind::Semi)?;
            let step = if self.at(&TokenKind::RParen) {
                None
            } else {
                Some(Box::new(self.simple_stmt_no_semi()?))
            };
            self.expect(&TokenKind::RParen)?;
            let body = self.braced_or_single()?;
            return Ok(Stmt::new(
                StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                },
                line,
            ));
        }
        if self.eat(&TokenKind::KwReturn) {
            let value = if self.at(&TokenKind::Semi) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::new(StmtKind::Return(value), line));
        }
        if self.eat(&TokenKind::KwBreak) {
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::new(StmtKind::Break, line));
        }
        if self.eat(&TokenKind::KwContinue) {
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::new(StmtKind::Continue, line));
        }
        if self.eat(&TokenKind::LBrace) {
            let body = self.block_body()?;
            return Ok(Stmt::new(StmtKind::Block(body), line));
        }
        if self.is_decl_start() {
            let is_static = self.eat(&TokenKind::KwStatic);
            let base = self.base_type()?;
            let ty = self.pointer_suffix(base)?;
            let name = self.ident()?;
            let ty = self.array_suffix(ty)?;
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::new(
                StmtKind::Decl {
                    name,
                    ty,
                    is_static,
                    init,
                },
                line,
            ));
        }
        let s = self.simple_stmt_no_semi()?;
        self.expect(&TokenKind::Semi)?;
        Ok(s)
    }

    /// An expression statement or assignment, without the trailing `;`
    /// (shared by ordinary statements and `for` headers).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let e = self.expr()?;
        if self.eat(&TokenKind::Assign) {
            let value = self.expr()?;
            Ok(Stmt::new(StmtKind::Assign { target: e, value }, line))
        } else {
            Ok(Stmt::new(StmtKind::Expr(e), line))
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.nested(|p| p.binary(0))
    }

    /// Precedence-climbing over binary operators. Level 0 is the loosest.
    /// Each operator folded into `lhs` nests it one level deeper.
    fn binary(&mut self, min_level: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        let mut links = 0;
        loop {
            let (op, level) = match self.peek() {
                TokenKind::OrOr => (BinaryOp::LOr, 1),
                TokenKind::AndAnd => (BinaryOp::LAnd, 2),
                TokenKind::Pipe => (BinaryOp::BitOr, 3),
                TokenKind::Caret => (BinaryOp::BitXor, 4),
                TokenKind::Amp => (BinaryOp::BitAnd, 5),
                TokenKind::EqEq => (BinaryOp::Eq, 6),
                TokenKind::NotEq => (BinaryOp::Ne, 6),
                TokenKind::Lt => (BinaryOp::Lt, 7),
                TokenKind::Le => (BinaryOp::Le, 7),
                TokenKind::Gt => (BinaryOp::Gt, 7),
                TokenKind::Ge => (BinaryOp::Ge, 7),
                TokenKind::Shl => (BinaryOp::Shl, 8),
                TokenKind::Shr => (BinaryOp::Shr, 8),
                TokenKind::Plus => (BinaryOp::Add, 9),
                TokenKind::Minus => (BinaryOp::Sub, 9),
                TokenKind::Star => (BinaryOp::Mul, 10),
                TokenKind::Slash => (BinaryOp::Div, 10),
                TokenKind::Percent => (BinaryOp::Mod, 10),
                _ => break,
            };
            if level < min_level {
                break;
            }
            let line = self.line();
            self.open()?;
            links += 1;
            self.next();
            let rhs = self.binary(level + 1)?;
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), line);
        }
        self.close(links);
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Tilde => Some(UnaryOp::BitNot),
            TokenKind::Bang => Some(UnaryOp::LNot),
            TokenKind::Star => Some(UnaryOp::Deref),
            TokenKind::Amp => Some(UnaryOp::Addr),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let operand = self.nested(Self::unary)?;
            return Ok(Expr::new(ExprKind::Unary(op, Box::new(operand)), line));
        }
        self.postfix()
    }

    /// A primary expression and its postfix operators; each operator
    /// nests the expression one level deeper.
    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary()?;
        let mut links = 0;
        loop {
            let line = self.line();
            if !matches!(
                self.peek(),
                TokenKind::LParen | TokenKind::LBracket | TokenKind::Dot | TokenKind::Arrow
            ) {
                self.close(links);
                return Ok(e);
            }
            self.open()?;
            links += 1;
            let kind = match self.next() {
                TokenKind::LParen => {
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    }
                }
                TokenKind::LBracket => {
                    let idx = self.expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    ExprKind::Index(Box::new(e), Box::new(idx))
                }
                TokenKind::Dot => ExprKind::Field(Box::new(e), self.ident()?),
                _ => ExprKind::PField(Box::new(e), self.ident()?),
            };
            e = Expr::new(kind, line);
        }
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.next() {
            TokenKind::Int(v) => Ok(Expr::new(ExprKind::Num(v), line)),
            TokenKind::Str(s) => Ok(Expr::new(ExprKind::Str(s), line)),
            TokenKind::Ident(name) => Ok(Expr::new(ExprKind::Ident(name), line)),
            TokenKind::KwSizeof => {
                self.expect(&TokenKind::LParen)?;
                let base = self.base_type()?;
                let ty = self.pointer_suffix(base)?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::new(ExprKind::Sizeof(ty), line))
            }
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(CompileError::new(
                &self.unit,
                line,
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Unit {
        parse_unit("t.kc", src).unwrap()
    }

    #[test]
    fn parses_function_with_control_flow() {
        let u = parse(
            "int f(int a, int b) {\
               int i;\
               for (i = 0; i < a; i = i + 1) { b = b + i; }\
               if (b > 10) return b; else return 0;\
             }",
        );
        let f = u.function("f").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn parses_struct_and_global() {
        let u = parse(
            "struct task { int pid; struct task *next; int name[16]; };\
             static struct task init_task;\
             int jiffies = 100;",
        );
        let s = u.structs().next().unwrap();
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[1].1, Type::ptr(Type::Struct("task".into())));
        let globals: Vec<_> = u.globals().collect();
        assert!(globals[0].is_static);
        match &globals[1].init {
            Some(Init::Scalar(e)) => assert_eq!(e.kind, ExprKind::Num(100)),
            other => panic!("expected scalar init, got {other:?}"),
        }
    }

    #[test]
    fn parses_hooks_and_extern() {
        let u = parse(
            "extern int printk(byte *fmt);\
             int myupdate() { return 0; }\
             ksplice_apply(myupdate);",
        );
        assert!(matches!(
            u.items[2],
            FileItem::Hook {
                kind: HookKind::Apply,
                ..
            }
        ));
        assert!(matches!(u.items[0], FileItem::Extern { .. }));
    }

    #[test]
    fn precedence() {
        let u = parse("int f() { return 1 + 2 * 3 == 7 && 1; }");
        let f = u.function("f").unwrap();
        let StmtKind::Return(Some(e)) = &f.body[0].kind else {
            panic!("expected return");
        };
        // Top level must be &&.
        assert!(matches!(e.kind, ExprKind::Binary(BinaryOp::LAnd, ..)));
    }

    #[test]
    fn pointer_and_field_postfix() {
        let u = parse("int f(struct file *fp) { fp->mode = fp->mode | 1; return (*fp).mode; }");
        assert!(u.function("f").is_some());
    }

    #[test]
    fn static_local_and_array_decl() {
        let u = parse("int f() { static int calls; int buf[8]; buf[0] = calls; return 0; }");
        let f = u.function("f").unwrap();
        assert!(matches!(
            f.body[0].kind,
            StmtKind::Decl {
                is_static: true,
                ..
            }
        ));
    }

    #[test]
    fn inline_keyword() {
        let u = parse("static inline int min(int a, int b) { if (a < b) return a; return b; }");
        let f = u.function("min").unwrap();
        assert!(f.is_static && f.is_inline);
    }

    #[test]
    fn error_messages_carry_position() {
        let e = parse_unit("bad.kc", "int f( {").unwrap_err();
        assert_eq!(e.unit, "bad.kc");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_inline_global() {
        assert!(parse_unit("t.kc", "inline int x;").is_err());
    }

    #[test]
    fn global_array_initializer() {
        let u = parse("int prime[4] = {2, 3, 5, 7,};");
        let g = u.globals().next().unwrap();
        match &g.init {
            Some(Init::List(items)) => assert_eq!(items.len(), 4),
            other => panic!("expected list init, got {other:?}"),
        }
    }
}
