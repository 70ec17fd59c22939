//! Semantic analysis: struct layouts, name resolution, type checking.
//!
//! `kc` follows kernel C's weak scalar discipline — `int` and pointers
//! convert freely — but structural properties are checked strictly:
//! struct layouts are computed (and by-value recursion rejected), field
//! accesses must name real fields, lvalues are required where addresses
//! or assignments need them, and global initialisers must be
//! link-time constants.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use crate::ast::*;
use crate::CompileError;

/// Word size in bytes: every scalar occupies one 64-bit word.
pub const WORD: u64 = 8;

/// The largest type, global or stack frame `kc` lays out, in bytes:
/// codegen reaches fields, frame slots and array strides through signed
/// 32-bit displacements and immediates.
pub(crate) const MAX_SIZE: u64 = i32::MAX as u64;

/// A computed struct layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructLayout {
    /// Total size including tail padding.
    pub size: u64,
    /// Alignment of the whole struct.
    pub align: u64,
    /// `(name, byte offset, type)` per field, in declaration order.
    pub fields: Vec<(String, u64, Type)>,
}

impl StructLayout {
    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<(u64, &Type)> {
        self.fields
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, off, ty)| (*off, ty))
    }
}

/// A link-time constant value, the result of const-evaluating a global
/// initialiser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstVal {
    /// A plain integer.
    Int(i64),
    /// The address of a symbol plus a byte offset (needs a relocation).
    SymAddr(String, i64),
    /// A string literal (emitted to `.rodata`, needs a relocation).
    Str(Vec<u8>),
}

/// Semantic summary of a compilation unit, consumed by code generation.
#[derive(Debug, Clone)]
pub struct Sema {
    /// Unit path (for error messages).
    pub unit: String,
    /// The headers' struct layouts, shared by every unit of a build.
    header_structs: Arc<BTreeMap<String, StructLayout>>,
    /// The unit's own struct layouts.
    structs: BTreeMap<String, StructLayout>,
    /// Functions defined in this unit, with arity.
    pub(crate) functions: BTreeMap<String, usize>,
    /// Globals defined in this unit.
    globals: BTreeMap<String, Type>,
    /// Globals declared by headers (typed externals, no storage here),
    /// shared by every unit of a build.
    header_globals: Arc<BTreeMap<String, Type>>,
    /// Names declared `extern` in this unit.
    externs: HashSet<String>,
    /// The subset of `externs` declared with a parameter list (functions).
    pub(crate) extern_funcs: HashSet<String>,
}

impl Sema {
    /// The size in bytes of a type, refused at `line` when it names an
    /// unknown struct or is larger than a `kc` object may be. The checker
    /// sizes every type the unit declares, so only a type a header
    /// declares can fail here.
    pub fn size_of(&self, ty: &Type, line: u32) -> Result<u64, CompileError> {
        let mut layout = |name: &str| match self.layout(name) {
            Some(l) => Ok((l.size, l.align)),
            None => Err(self.err(line, format!("unknown struct `{name}`"))),
        };
        size_align(ty, &self.unit, line, &mut layout).map(|(size, _)| size)
    }

    /// Looks up a struct layout, the unit's own or a header's.
    pub fn layout(&self, name: &str) -> Option<&StructLayout> {
        self.structs
            .get(name)
            .or_else(|| self.header_structs.get(name))
    }

    /// Field offset and type within a named struct.
    pub fn field(&self, sname: &str, fname: &str) -> Option<(u64, &Type)> {
        self.layout(sname)?.field(fname)
    }

    /// The type of a named global visible in this unit (unit definitions
    /// shadow header declarations).
    pub fn global_type(&self, name: &str) -> Option<&Type> {
        self.globals
            .get(name)
            .or_else(|| self.header_globals.get(name))
    }

    fn err(&self, line: u32, message: impl Into<String>) -> CompileError {
        CompileError::new(&self.unit, line, message)
    }

    /// Checks that every struct `ty` names, pointees included, is known,
    /// and that `ty` is not too large.
    fn check_type(&self, ty: &Type, line: u32) -> Result<(), CompileError> {
        match ty {
            Type::Int | Type::Byte => Ok(()),
            Type::Ptr(t) => self.check_type(t, line),
            Type::Struct(name) => {
                if self.layout(name).is_some() {
                    Ok(())
                } else {
                    Err(self.err(line, format!("unknown struct `{name}`")))
                }
            }
            Type::Array(t, _) => {
                self.check_type(t, line)?;
                self.size_of(ty, line).map(drop)
            }
        }
    }

    fn require_scalar(&self, t: &Type, line: u32) -> Result<(), CompileError> {
        // Arrays decay to pointers when used as values.
        if t.is_scalar() || matches!(t, Type::Array(..)) {
            Ok(())
        } else {
            Err(self.err(line, format!("expected a scalar value, found {t:?}")))
        }
    }

    /// Types an expression. Weak typing: `int` and pointers interconvert;
    /// `byte` reads widen to `int`. Locals resolve through the caller's
    /// scope stack — the checker's while it checks, codegen's while it
    /// emits — so both passes type every expression by this one rule.
    pub(crate) fn type_of(&self, e: &Expr, locals: &dyn Locals) -> Result<Type, CompileError> {
        match &e.kind {
            ExprKind::Num(_) => Ok(Type::Int),
            ExprKind::Str(_) => Ok(Type::ptr(Type::Byte)),
            ExprKind::Sizeof(ty) => {
                self.check_type(ty, e.line)?;
                Ok(Type::Int)
            }
            ExprKind::Ident(name) => {
                if let Some(t) = locals.local_type(name) {
                    return Ok(t.clone());
                }
                if let Some(t) = self.global_type(name) {
                    return Ok(t.clone());
                }
                // Function designators and declared externals are
                // address-valued; an implicit (C89-style) external is an
                // int-shaped symbol.
                Ok(Type::Int)
            }
            ExprKind::Unary(op, inner) => {
                let t = self.type_of(inner, locals)?;
                match op {
                    UnaryOp::Neg | UnaryOp::BitNot | UnaryOp::LNot => {
                        self.require_scalar(&t, inner.line)?;
                        Ok(Type::Int)
                    }
                    UnaryOp::Deref => match t {
                        Type::Ptr(elem) => Ok(*elem),
                        // Deref of a plain int: word pointer semantics.
                        Type::Int => Ok(Type::Int),
                        other => Err(self.err(
                            inner.line,
                            format!("cannot dereference a value of type {other:?}"),
                        )),
                    },
                    UnaryOp::Addr => {
                        // A function's name is an lvalue too: `&f` is its
                        // address.
                        if !is_lvalue(inner) {
                            return Err(self.err(inner.line, "cannot take address of rvalue"));
                        }
                        Ok(Type::ptr(t))
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                let lt = self.type_of(l, locals)?;
                let rt = self.type_of(r, locals)?;
                // Arrays decay to pointers in arithmetic.
                let lt = decay(lt);
                let rt = decay(rt);
                self.require_scalar(&lt, l.line)?;
                self.require_scalar(&rt, r.line)?;
                match op {
                    BinaryOp::Add | BinaryOp::Sub => {
                        if let Type::Ptr(_) = lt {
                            Ok(lt)
                        } else if let Type::Ptr(_) = rt {
                            Ok(rt)
                        } else {
                            Ok(Type::Int)
                        }
                    }
                    _ => Ok(Type::Int),
                }
            }
            ExprKind::Call { callee, args } => {
                // Direct calls: an identifier that is not a local variable.
                if let ExprKind::Ident(name) = &callee.kind {
                    if locals.local_type(name).is_none() {
                        if let Some(&arity) = self.functions.get(name) {
                            if arity != args.len() {
                                return Err(self.err(
                                    e.line,
                                    format!(
                                        "`{name}` takes {arity} argument(s), {} given",
                                        args.len()
                                    ),
                                ));
                            }
                        }
                        for a in args {
                            let t = self.type_of(a, locals)?;
                            self.require_scalar(&decay(t), a.line)?;
                        }
                        if args.len() > 6 {
                            return Err(self.err(e.line, "calls support at most 6 arguments"));
                        }
                        return Ok(Type::Int);
                    }
                }
                // Indirect call through a scalar value.
                let ct = self.type_of(callee, locals)?;
                self.require_scalar(&decay(ct), callee.line)?;
                if args.len() > 6 {
                    return Err(self.err(e.line, "calls support at most 6 arguments"));
                }
                for a in args {
                    let t = self.type_of(a, locals)?;
                    self.require_scalar(&decay(t), a.line)?;
                }
                Ok(Type::Int)
            }
            ExprKind::Index(base, idx) => {
                let bt = self.type_of(base, locals)?;
                let it = self.type_of(idx, locals)?;
                self.require_scalar(&it, idx.line)?;
                match bt {
                    Type::Array(elem, _) | Type::Ptr(elem) => Ok(*elem),
                    Type::Int => Ok(Type::Int),
                    other => {
                        Err(self.err(base.line, format!("cannot index a value of type {other:?}")))
                    }
                }
            }
            ExprKind::Field(base, fname) => {
                let bt = self.type_of(base, locals)?;
                let Type::Struct(sname) = bt else {
                    return Err(self.err(base.line, "`.` requires a struct value"));
                };
                self.field_type(&sname, fname, e.line)
            }
            ExprKind::PField(base, fname) => {
                let bt = self.type_of(base, locals)?;
                let Type::Ptr(inner) = decay(bt) else {
                    return Err(self.err(base.line, "`->` requires a struct pointer"));
                };
                let Type::Struct(sname) = *inner else {
                    return Err(self.err(base.line, "`->` requires a struct pointer"));
                };
                self.field_type(&sname, fname, e.line)
            }
        }
    }

    /// Evaluates a link-time constant expression, if it is one: the rule
    /// behind global and static-local initialisers, for checking and for
    /// emitting them.
    pub(crate) fn const_eval(&self, e: &Expr) -> Option<ConstVal> {
        // A bare function / global name in a const context denotes its
        // address (function pointers in ops tables).
        let sym_addr = |name: &String| {
            (self.functions.contains_key(name)
                || self.global_type(name).is_some()
                || self.externs.contains(name))
            .then(|| ConstVal::SymAddr(name.clone(), 0))
        };
        match &e.kind {
            ExprKind::Num(v) => Some(ConstVal::Int(*v)),
            ExprKind::Str(s) => Some(ConstVal::Str(s.clone())),
            ExprKind::Ident(name) => sym_addr(name),
            ExprKind::Unary(UnaryOp::Addr, inner) => match &inner.kind {
                ExprKind::Ident(name) => sym_addr(name),
                _ => None,
            },
            ExprKind::Unary(op, inner) => {
                let ConstVal::Int(v) = self.const_eval(inner)? else {
                    return None;
                };
                Some(ConstVal::Int(match op {
                    UnaryOp::Neg => v.wrapping_neg(),
                    UnaryOp::BitNot => !v,
                    UnaryOp::LNot => (v == 0) as i64,
                    _ => return None,
                }))
            }
            ExprKind::Binary(op, l, r) => match (self.const_eval(l)?, self.const_eval(r)?) {
                (ConstVal::Int(a), ConstVal::Int(b)) => eval_binop(*op, a, b).map(ConstVal::Int),
                (ConstVal::SymAddr(s, off), ConstVal::Int(b)) => match op {
                    BinaryOp::Add => Some(ConstVal::SymAddr(s, off.wrapping_add(b))),
                    BinaryOp::Sub => Some(ConstVal::SymAddr(s, off.wrapping_sub(b))),
                    _ => None,
                },
                _ => None,
            },
            // sizeof needs layout context; fold replaced it earlier.
            _ => None,
        }
    }

    fn field_type(&self, sname: &str, fname: &str, line: u32) -> Result<Type, CompileError> {
        self.field(sname, fname)
            .map(|(_, t)| t.clone())
            .ok_or_else(|| self.err(line, format!("struct `{sname}` has no field `{fname}`")))
    }
}

/// Shared declarations parsed from `include/*.kh` headers, laid out once
/// per build: every unit's [`Sema`] shares the header struct layouts and
/// the header globals through an `Arc`.
#[derive(Debug, Clone)]
pub struct HeaderContext {
    structs: HeaderStructs,
    /// Header globals by name (a later declaration wins).
    globals: Arc<BTreeMap<String, Type>>,
}

/// The headers' structs, as the units of a build see them.
#[derive(Debug, Clone)]
enum HeaderStructs {
    /// Laid out once, shared by every unit.
    LaidOut(Arc<BTreeMap<String, StructLayout>>),
    /// The definitions, in header order, of structs that do not lay out
    /// alone: two headers define one struct, or a header struct contains
    /// itself, is too large or embeds a struct no header defines. Each
    /// unit lays them out together with its own structs, so it reports
    /// the error (or embeds the struct) exactly as if it had included
    /// the headers.
    PerUnit(Vec<StructDef>),
}

impl Default for HeaderContext {
    /// No headers.
    fn default() -> HeaderContext {
        HeaderContext {
            structs: HeaderStructs::LaidOut(Arc::default()),
            globals: Arc::default(),
        }
    }
}

impl HeaderContext {
    /// Builds a header context from parsed header units and lays out
    /// their structs.
    ///
    /// Headers may contain struct definitions and uninitialised global
    /// declarations (which act as typed externals); anything else is
    /// rejected. A header struct's layout error is not an error here: it
    /// is reported against each unit compiled with these headers.
    pub fn from_units(units: &[Unit]) -> Result<HeaderContext, CompileError> {
        let mut structs = Vec::new();
        let mut globals = BTreeMap::new();
        for u in units {
            for item in &u.items {
                match item {
                    FileItem::Struct(s) => structs.push(s.clone()),
                    FileItem::Global(g) => {
                        if g.init.is_some() {
                            return Err(CompileError::new(
                                &u.name,
                                g.line,
                                "headers may not initialise globals",
                            ));
                        }
                        globals.insert(g.name.clone(), g.ty.clone());
                    }
                    FileItem::Extern { .. } => {}
                    FileItem::Func(f) => {
                        return Err(CompileError::new(
                            &u.name,
                            f.line,
                            "headers may not define functions",
                        ))
                    }
                    FileItem::Hook { line, .. } => {
                        return Err(CompileError::new(
                            &u.name,
                            *line,
                            "headers may not register hooks",
                        ))
                    }
                }
            }
        }
        // Lay the header structs out alone, once. A failure is no error
        // yet (see `HeaderStructs::PerUnit`), so the unit it would name
        // does not matter.
        let none = BTreeMap::new();
        let structs = match struct_defs("", &structs, &none).and_then(|d| lay_out("", &d, &none)) {
            Ok(layouts) => HeaderStructs::LaidOut(Arc::new(layouts)),
            Err(_) => HeaderStructs::PerUnit(structs),
        };
        Ok(HeaderContext {
            structs,
            globals: Arc::new(globals),
        })
    }
}

/// Checks a unit and produces its semantic summary.
pub fn check_unit(unit: &Unit) -> Result<Sema, CompileError> {
    check_unit_with(unit, &HeaderContext::default())
}

/// Checks a unit against shared header declarations.
pub fn check_unit_with(unit: &Unit, headers: &HeaderContext) -> Result<Sema, CompileError> {
    let sema = Sema::new(unit, headers)?;
    sema.check(unit)?;
    Ok(sema)
}

impl Sema {
    /// Collects the unit's layouts and names; [`Sema::check`] then checks
    /// its items against them.
    fn new(unit: &Unit, headers: &HeaderContext) -> Result<Sema, CompileError> {
        let uname = unit.name.clone();
        // Lay out the unit's own structs next to the headers' shared
        // layouts or, when those do not lay out alone, with them.
        let (header_structs, structs) = match &headers.structs {
            HeaderStructs::LaidOut(shared) => {
                let defs = struct_defs(&uname, unit.structs(), shared)?;
                (Arc::clone(shared), lay_out(&uname, &defs, shared)?)
            }
            HeaderStructs::PerUnit(header_defs) => {
                let none = Arc::default();
                let all = header_defs.iter().chain(unit.structs());
                let defs = struct_defs(&uname, all, &none)?;
                let laid_out = lay_out(&uname, &defs, &none)?;
                (none, laid_out)
            }
        };
        let mut sema = Sema {
            unit: uname.clone(),
            header_structs,
            structs,
            functions: BTreeMap::new(),
            globals: BTreeMap::new(),
            header_globals: Arc::clone(&headers.globals),
            externs: HashSet::new(),
            extern_funcs: HashSet::new(),
        };
        // Collect unit-level names.
        for item in &unit.items {
            match item {
                FileItem::Func(f) => {
                    let prev = sema.functions.insert(f.name.clone(), f.params.len());
                    if prev.is_some() {
                        return Err(CompileError::new(
                            &uname,
                            f.line,
                            format!("duplicate function `{}`", f.name),
                        ));
                    }
                }
                FileItem::Global(g) => {
                    let prev = sema.globals.insert(g.name.clone(), g.ty.clone());
                    if prev.is_some() {
                        return Err(CompileError::new(
                            &uname,
                            g.line,
                            format!("duplicate global `{}`", g.name),
                        ));
                    }
                }
                FileItem::Extern { name, is_func, .. } => {
                    sema.externs.insert(name.clone());
                    if *is_func {
                        sema.extern_funcs.insert(name.clone());
                    }
                }
                _ => {}
            }
        }
        Ok(sema)
    }

    fn check(&self, unit: &Unit) -> Result<(), CompileError> {
        for item in &unit.items {
            match item {
                FileItem::Global(g) => self.check_global(g)?,
                FileItem::Func(f) => self.check_function(f)?,
                FileItem::Hook { func, line, .. } => {
                    if !self.functions.contains_key(func) {
                        return Err(
                            self.err(*line, format!("hook references unknown function `{func}`"))
                        );
                    }
                }
                FileItem::Struct(_) | FileItem::Extern { .. } => {}
            }
        }
        Ok(())
    }

    fn check_global(&self, g: &Global) -> Result<(), CompileError> {
        self.check_type(&g.ty, g.line)?;
        // A unit definition may repeat a header declaration only at the
        // same type.
        if let Some(hty) = self.header_globals.get(&g.name) {
            if *hty != g.ty {
                return Err(self.err(
                    g.line,
                    format!("global `{}` conflicts with header declaration", g.name),
                ));
            }
        }
        match &g.init {
            None => Ok(()),
            Some(Init::Scalar(e)) => {
                let byte_array = matches!(&g.ty, Type::Array(elem, _) if **elem == Type::Byte);
                if !g.ty.is_scalar() && !byte_array {
                    return Err(self.err(g.line, "scalar initialiser on aggregate global"));
                }
                let v = self.require_const(e)?;
                if byte_array && !matches!(v, ConstVal::Str(_)) {
                    return Err(self.err(g.line, "byte array initialiser must be a string"));
                }
                Ok(())
            }
            Some(Init::List(items)) => {
                let max = match &g.ty {
                    Type::Array(_, n) => *n,
                    Type::Struct(name) => {
                        self.layout(name).expect("checked above").fields.len() as u64
                    }
                    _ => return Err(self.err(g.line, "list initialiser on scalar global")),
                };
                if items.len() as u64 > max {
                    return Err(self.err(g.line, "too many initialisers"));
                }
                for e in items {
                    self.require_const(e)?;
                }
                Ok(())
            }
        }
    }

    fn require_const(&self, e: &Expr) -> Result<ConstVal, CompileError> {
        self.const_eval(e)
            .ok_or_else(|| self.err(e.line, "initialiser is not a link-time constant"))
    }

    fn check_function(&self, f: &Function) -> Result<(), CompileError> {
        let mut scopes = Scopes::new();
        scopes.push();
        for (name, ty) in &f.params {
            self.check_type(ty, f.line)?;
            if !scopes.declare(name, ty.clone()) {
                return Err(self.err(f.line, format!("duplicate parameter `{name}`")));
            }
        }
        self.check_block(&f.body, &mut scopes, 0)?;
        scopes.pop();
        Ok(())
    }

    fn check_block(
        &self,
        body: &[Stmt],
        scopes: &mut Scopes,
        loop_depth: u32,
    ) -> Result<(), CompileError> {
        scopes.push();
        for s in body {
            self.check_stmt(s, scopes, loop_depth)?;
        }
        scopes.pop();
        Ok(())
    }

    fn check_stmt(
        &self,
        s: &Stmt,
        scopes: &mut Scopes,
        loop_depth: u32,
    ) -> Result<(), CompileError> {
        match &s.kind {
            StmtKind::Decl {
                name,
                ty,
                is_static,
                init,
            } => {
                self.check_type(ty, s.line)?;
                if let Some(e) = init {
                    if *is_static {
                        // Static locals need link-time-constant inits.
                        self.require_const(e)?;
                    } else {
                        let t = self.type_of(e, scopes)?;
                        self.require_scalar(&t, e.line)?;
                    }
                    if !ty.is_scalar() {
                        return Err(self.err(s.line, "initialiser on aggregate local"));
                    }
                }
                if !scopes.declare(name, ty.clone()) {
                    return Err(self.err(s.line, format!("duplicate local `{name}`")));
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.type_of(e, scopes)?;
                Ok(())
            }
            StmtKind::Assign { target, value } => {
                if !is_lvalue(target) {
                    return Err(self.err(s.line, "assignment target is not an lvalue"));
                }
                let tt = self.type_of(target, scopes)?;
                self.require_scalar(&tt, target.line)?;
                let vt = self.type_of(value, scopes)?;
                self.require_scalar(&vt, value.line)?;
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let t = self.type_of(cond, scopes)?;
                self.require_scalar(&t, cond.line)?;
                self.check_block(then_body, scopes, loop_depth)?;
                self.check_block(else_body, scopes, loop_depth)
            }
            StmtKind::While { cond, body } => {
                let t = self.type_of(cond, scopes)?;
                self.require_scalar(&t, cond.line)?;
                self.check_block(body, scopes, loop_depth + 1)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                scopes.push();
                if let Some(i) = init {
                    self.check_stmt(i, scopes, loop_depth)?;
                }
                if let Some(c) = cond {
                    let t = self.type_of(c, scopes)?;
                    self.require_scalar(&t, c.line)?;
                }
                if let Some(st) = step {
                    self.check_stmt(st, scopes, loop_depth)?;
                }
                self.check_block(body, scopes, loop_depth + 1)?;
                scopes.pop();
                Ok(())
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let t = self.type_of(e, scopes)?;
                    self.require_scalar(&t, e.line)?;
                }
                Ok(())
            }
            StmtKind::Break | StmtKind::Continue => {
                if loop_depth == 0 {
                    Err(self.err(s.line, "break/continue outside a loop"))
                } else {
                    Ok(())
                }
            }
            StmtKind::Block(body) => self.check_block(body, scopes, loop_depth),
        }
    }
}

/// Arrays decay to pointers when used as values.
pub(crate) fn decay(t: Type) -> Type {
    match t {
        Type::Array(elem, _) => Type::Ptr(elem),
        other => other,
    }
}

/// Lvalue syntax: names, derefs, indexing and field chains.
pub(crate) fn is_lvalue(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::Ident(_)
            | ExprKind::Unary(UnaryOp::Deref, _)
            | ExprKind::Index(..)
            | ExprKind::Field(..)
            | ExprKind::PField(..)
    )
}

/// Integer constant arithmetic; division by zero is not a constant.
pub(crate) fn eval_binop(op: BinaryOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinaryOp::Add => a.wrapping_add(b),
        BinaryOp::Sub => a.wrapping_sub(b),
        BinaryOp::Mul => a.wrapping_mul(b),
        BinaryOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinaryOp::Mod => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinaryOp::BitAnd => a & b,
        BinaryOp::BitOr => a | b,
        BinaryOp::BitXor => a ^ b,
        BinaryOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinaryOp::Shr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        BinaryOp::Eq => (a == b) as i64,
        BinaryOp::Ne => (a != b) as i64,
        BinaryOp::Lt => (a < b) as i64,
        BinaryOp::Le => (a <= b) as i64,
        BinaryOp::Gt => (a > b) as i64,
        BinaryOp::Ge => (a >= b) as i64,
        BinaryOp::LAnd => ((a != 0) && (b != 0)) as i64,
        BinaryOp::LOr => ((a != 0) || (b != 0)) as i64,
    })
}

/// Scope stack for local declarations.
struct Scopes {
    stack: Vec<Vec<(String, Type)>>,
}

impl Scopes {
    fn new() -> Scopes {
        Scopes { stack: Vec::new() }
    }

    fn push(&mut self) {
        self.stack.push(Vec::new());
    }

    fn pop(&mut self) {
        self.stack.pop();
    }

    /// Declares a name in the innermost scope; false if already present
    /// *in that scope* (shadowing outer scopes is allowed).
    fn declare(&mut self, name: &str, ty: Type) -> bool {
        let top = self.stack.last_mut().expect("scope stack never empty");
        if top.iter().any(|(n, _)| n == name) {
            return false;
        }
        top.push((name.to_string(), ty));
        true
    }
}

/// A scope stack that [`Sema::type_of`] resolves local names through.
pub(crate) trait Locals {
    /// The type of the innermost local called `name`, if one is in scope.
    fn local_type(&self, name: &str) -> Option<&Type>;
}

impl Locals for Scopes {
    fn local_type(&self, name: &str) -> Option<&Type> {
        self.stack
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|(n, _)| n == name).map(|(_, t)| t))
    }
}

/// Indexes struct definitions by name, in order, refusing a name defined
/// twice or already laid out in `taken`.
fn struct_defs<'a>(
    unit: &str,
    structs: impl IntoIterator<Item = &'a StructDef>,
    taken: &BTreeMap<String, StructLayout>,
) -> Result<BTreeMap<&'a str, &'a StructDef>, CompileError> {
    let mut defs = BTreeMap::new();
    for s in structs {
        if taken.contains_key(&s.name) || defs.insert(s.name.as_str(), s).is_some() {
            return Err(CompileError::new(
                unit,
                s.line,
                format!("duplicate definition of struct `{}`", s.name),
            ));
        }
    }
    Ok(defs)
}

/// Lays out every struct of `defs` in name order; a field may embed a
/// struct of `defs` or one already laid out in `done_before`.
fn lay_out(
    unit: &str,
    defs: &BTreeMap<&str, &StructDef>,
    done_before: &BTreeMap<String, StructLayout>,
) -> Result<BTreeMap<String, StructLayout>, CompileError> {
    let mut done = BTreeMap::new();
    for name in defs.keys() {
        let mut visiting = HashSet::new();
        layout_of(unit, defs, done_before, &mut done, &mut visiting, name)?;
    }
    Ok(done)
}

/// Lays out one struct (and the structs it embeds) into `done`, with
/// cycle detection, and returns its size and alignment.
fn layout_of(
    unit: &str,
    defs: &BTreeMap<&str, &StructDef>,
    done_before: &BTreeMap<String, StructLayout>,
    done: &mut BTreeMap<String, StructLayout>,
    visiting: &mut HashSet<String>,
    name: &str,
) -> Result<(u64, u64), CompileError> {
    if let Some(l) = done.get(name).or_else(|| done_before.get(name)) {
        return Ok((l.size, l.align));
    }
    let def = defs
        .get(name)
        .ok_or_else(|| CompileError::new(unit, 0, format!("unknown struct `{name}`")))?;
    if !visiting.insert(name.to_string()) {
        return Err(CompileError::new(
            unit,
            def.line,
            format!("struct `{name}` recursively contains itself by value"),
        ));
    }
    let too_large = || {
        CompileError::new(
            unit,
            def.line,
            format!("struct `{name}` is larger than {MAX_SIZE} bytes"),
        )
    };
    let mut offset = 0u64;
    let mut align = 1u64;
    let mut fields = Vec::new();
    for (fname, fty) in &def.fields {
        let mut embedded = |n: &str| layout_of(unit, defs, done_before, done, visiting, n);
        let (fsize, falign) = size_align(fty, unit, def.line, &mut embedded)?;
        offset = round_up(offset, falign);
        fields.push((fname.clone(), offset, fty.clone()));
        // Both terms are at most MAX_SIZE, so the sum cannot wrap.
        offset += fsize;
        if offset > MAX_SIZE {
            return Err(too_large());
        }
        align = align.max(falign);
    }
    let size = round_up(offset.max(1), align);
    if size > MAX_SIZE {
        return Err(too_large());
    }
    visiting.remove(name);
    done.insert(
        name.to_string(),
        StructLayout {
            size,
            align,
            fields,
        },
    );
    Ok((size, align))
}

/// The size and alignment of `ty`, with `layout` giving each struct's:
/// the one place `kc` sizes a type. An array's size is a checked product,
/// and a type larger than [`MAX_SIZE`] is refused at `line`.
fn size_align(
    ty: &Type,
    unit: &str,
    line: u32,
    layout: &mut impl FnMut(&str) -> Result<(u64, u64), CompileError>,
) -> Result<(u64, u64), CompileError> {
    match ty {
        Type::Int | Type::Ptr(_) => Ok((WORD, WORD)),
        Type::Byte => Ok((1, 1)),
        Type::Struct(name) => layout(name),
        Type::Array(elem, n) => {
            let (size, align) = size_align(elem, unit, line, layout)?;
            match size.checked_mul(*n) {
                Some(size) if size <= MAX_SIZE => Ok((size, align)),
                _ => Err(CompileError::new(
                    unit,
                    line,
                    format!("type {ty:?} is larger than {MAX_SIZE} bytes"),
                )),
            }
        }
    }
}

pub(crate) fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two() || align == 1);
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;

    fn check(src: &str) -> Result<Sema, CompileError> {
        check_unit(&parse_unit("t.kc", src).unwrap())
    }

    #[test]
    fn struct_layout_offsets() {
        let s =
            check("struct inode { int ino; byte tag; int mode; byte name[3]; int uid; };").unwrap();
        let l = s.layout("inode").unwrap();
        assert_eq!(l.field("ino").unwrap().0, 0);
        assert_eq!(l.field("tag").unwrap().0, 8);
        assert_eq!(l.field("mode").unwrap().0, 16); // aligned up from 9
        assert_eq!(l.field("name").unwrap().0, 24);
        assert_eq!(l.field("uid").unwrap().0, 32); // aligned up from 27
        assert_eq!(l.size, 40);
    }

    #[test]
    fn nested_struct_layout() {
        let s = check("struct a { int x; }; struct b { struct a hdr; int y; };").unwrap();
        assert_eq!(s.layout("b").unwrap().size, 16);
        assert_eq!(s.field("b", "y").unwrap().0, 8);
    }

    #[test]
    fn recursive_by_value_rejected() {
        let e = check("struct s { struct s inner; };").unwrap_err();
        assert!(e.message.contains("recursively"));
        // Self-pointers are fine.
        check("struct s { struct s *next; };").unwrap();
    }

    #[test]
    fn field_errors() {
        let e = check("struct s { int a; }; int f(struct s *p) { return p->b; }").unwrap_err();
        assert!(e.message.contains("no field `b`"));
        let e = check("int f(int x) { return x.a; }").unwrap_err();
        assert!(e.message.contains("requires a struct"));
    }

    #[test]
    fn lvalue_enforcement() {
        assert!(check("int f() { 1 = 2; return 0; }").is_err());
        assert!(check("int f() { int x; &(x + 1); return 0; }").is_err());
        check("int f() { int x; x = 2; return x; }").unwrap();
    }

    #[test]
    fn loop_control_scoping() {
        assert!(check("int f() { break; return 0; }").is_err());
        check("int f() { while (1) { break; } return 0; }").unwrap();
    }

    #[test]
    fn call_arity_checked_for_unit_functions() {
        let e = check("int g(int a) { return a; } int f() { return g(1, 2); }").unwrap_err();
        assert!(e.message.contains("takes 1 argument"));
        // External functions have unknown arity: allowed.
        check("int f() { return printk(1, 2, 3); }").unwrap();
    }

    #[test]
    fn const_initialisers() {
        check("int x = 4 * 10 + 2;").unwrap();
        check("int f() { return 0; } int ptr = &f;").unwrap();
        assert!(check("int y = z + 1;").is_err()); // z unknown at link time
        assert!(check("int f(int a) { static int s = a; return s; }").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(check("int x; int x;").is_err());
        assert!(check("int f() { return 0; } int f() { return 1; }").is_err());
        assert!(check("int f() { int a; int a; return 0; }").is_err());
        // Shadowing in an inner scope is fine.
        check("int f() { int a; { int a; a = 1; } return a; }").unwrap();
    }

    #[test]
    fn headers_provide_structs_and_globals() {
        let hdr = parse_unit(
            "include/fs.kh",
            "struct file { int mode; }; struct file *cur;",
        )
        .unwrap();
        let ctx = HeaderContext::from_units(&[hdr]).unwrap();
        let unit = parse_unit("fs/open.kc", "int f() { return cur->mode; }").unwrap();
        check_unit_with(&unit, &ctx).unwrap();
    }

    #[test]
    fn header_rules_enforced() {
        let bad = parse_unit("include/x.kh", "int x = 3;").unwrap();
        assert!(HeaderContext::from_units(&[bad]).is_err());
        let bad = parse_unit("include/x.kh", "int f() { return 0; }").unwrap();
        assert!(HeaderContext::from_units(&[bad]).is_err());
    }

    #[test]
    fn hook_must_reference_defined_function() {
        assert!(check("ksplice_apply(nonexistent);").is_err());
        check("int up() { return 0; } ksplice_apply(up);").unwrap();
    }

    #[test]
    fn pointer_arithmetic_types() {
        check(
            "struct e { int v; };\
             int f(struct e *p, int n) { return (p + n)->v; }",
        )
        .unwrap();
    }
}
