//! The `kc` abstract syntax tree.

/// A `kc` type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// 64-bit signed integer, the universal scalar.
    Int,
    /// 8-bit unsigned integer; only meaningful behind pointers and in
    /// arrays (scalar `byte` variables occupy a full word slot).
    Byte,
    /// Pointer to an element type.
    Ptr(Box<Type>),
    /// A named struct (layout comes from the unit's [`StructDef`]s).
    Struct(String),
    /// Fixed-size array; file scope and local scope.
    Array(Box<Type>, u64),
}

impl Type {
    /// Convenience pointer constructor.
    pub fn ptr(elem: Type) -> Type {
        Type::Ptr(Box::new(elem))
    }

    /// True for `int`, `byte` and pointers — values that fit a register.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Int | Type::Byte | Type::Ptr(_))
    }
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Short-circuit logical AND.
    LAnd,
    /// Short-circuit logical OR.
    LOr,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Bitwise complement `~`.
    BitNot,
    /// Logical not `!`.
    LNot,
    /// Pointer dereference `*`.
    Deref,
    /// Address-of `&`.
    Addr,
}

/// An expression with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    pub kind: ExprKind,
    pub line: u32,
}

impl Expr {
    pub fn new(kind: ExprKind, line: u32) -> Expr {
        Expr { kind, line }
    }

    /// A number literal, for synthesised code.
    pub fn num(v: i64, line: u32) -> Expr {
        Expr::new(ExprKind::Num(v), line)
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    Num(i64),
    /// String literal (NUL terminator added by codegen); type `byte*`.
    Str(Vec<u8>),
    Ident(String),
    Unary(UnaryOp, Box<Expr>),
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Function call; a direct call when the callee is an identifier bound
    /// to a function, otherwise an indirect call through a value.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    /// `base[index]`, scaled by the element size.
    Index(Box<Expr>, Box<Expr>),
    /// `value.field`.
    Field(Box<Expr>, String),
    /// `pointer->field`.
    PField(Box<Expr>, String),
    /// `sizeof(type)`, a compile-time constant.
    Sizeof(Type),
}

/// A statement with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub line: u32,
}

impl Stmt {
    pub fn new(kind: StmtKind, line: u32) -> Stmt {
        Stmt { kind, line }
    }
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// Local declaration, possibly `static` (function-lifetime storage in
    /// a data section, producing a local data symbol).
    Decl {
        name: String,
        ty: Type,
        is_static: bool,
        init: Option<Expr>,
    },
    /// Expression evaluated for effect.
    Expr(Expr),
    /// `target = value` where target is an lvalue.
    Assign {
        target: Expr,
        value: Expr,
    },
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Box<Stmt>>,
        body: Vec<Stmt>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Vec<Stmt>),
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<(String, Type)>,
    pub line: u32,
}

/// Initialiser forms for globals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Init {
    Scalar(Expr),
    List(Vec<Expr>),
}

impl Init {
    /// The initialiser's expressions, in source order.
    pub(crate) fn exprs(&self) -> &[Expr] {
        match self {
            Init::Scalar(e) => std::slice::from_ref(e),
            Init::List(es) => es,
        }
    }

    /// [`Init::exprs`], mutably.
    pub(crate) fn exprs_mut(&mut self) -> &mut [Expr] {
        match self {
            Init::Scalar(e) => std::slice::from_mut(e),
            Init::List(es) => es,
        }
    }
}

/// A file-scope variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    pub name: String,
    pub ty: Type,
    /// File-scope `static`: the symbol gets local binding.
    pub is_static: bool,
    pub init: Option<Init>,
    pub line: u32,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    pub name: String,
    pub params: Vec<(String, Type)>,
    pub body: Vec<Stmt>,
    pub is_static: bool,
    /// The `inline` hint. The optimiser may inline functions without it
    /// (paper §4.2) — the keyword only raises the size budget.
    pub is_inline: bool,
    pub line: u32,
}

/// Ksplice custom-code hook registrations (paper §5.3): file-scope macro
/// calls that record a function pointer in a special section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookKind {
    /// Run while the machine is stopped, when the update is applied.
    Apply,
    /// Setup before the machine is stopped.
    PreApply,
    /// Cleanup after the machine resumes.
    PostApply,
    /// Run while the machine is stopped, when the update is reversed.
    Reverse,
    PreReverse,
    PostReverse,
}

impl HookKind {
    /// The special section this hook's function pointer is recorded in.
    pub fn section_name(self) -> &'static str {
        match self {
            HookKind::Apply => ".ksplice.apply",
            HookKind::PreApply => ".ksplice.pre_apply",
            HookKind::PostApply => ".ksplice.post_apply",
            HookKind::Reverse => ".ksplice.reverse",
            HookKind::PreReverse => ".ksplice.pre_reverse",
            HookKind::PostReverse => ".ksplice.post_reverse",
        }
    }

    /// The file-scope macro name, e.g. `ksplice_apply`.
    pub fn macro_name(self) -> &'static str {
        match self {
            HookKind::Apply => "ksplice_apply",
            HookKind::PreApply => "ksplice_pre_apply",
            HookKind::PostApply => "ksplice_post_apply",
            HookKind::Reverse => "ksplice_reverse",
            HookKind::PreReverse => "ksplice_pre_reverse",
            HookKind::PostReverse => "ksplice_post_reverse",
        }
    }

    /// All hook kinds.
    pub const ALL: [HookKind; 6] = [
        HookKind::Apply,
        HookKind::PreApply,
        HookKind::PostApply,
        HookKind::Reverse,
        HookKind::PreReverse,
        HookKind::PostReverse,
    ];
}

/// One file-scope item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileItem {
    Struct(StructDef),
    Global(Global),
    Func(Function),
    /// `ksplice_apply(fn);`-style hook registration.
    Hook {
        kind: HookKind,
        func: String,
        line: u32,
    },
    /// `extern` declaration: registers a name as external, no code.
    /// `is_func` records whether a parameter list was present — an extern
    /// function's bare name denotes its address, an extern variable's
    /// denotes its value.
    Extern {
        name: String,
        is_func: bool,
        line: u32,
    },
}

/// A parsed compilation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Unit path, e.g. `fs/exec.kc`.
    pub name: String,
    pub items: Vec<FileItem>,
}

impl Unit {
    /// Iterates the unit's function definitions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|i| match i {
            FileItem::Func(f) => Some(f),
            _ => None,
        })
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }

    /// Iterates the unit's struct definitions.
    pub fn structs(&self) -> impl Iterator<Item = &StructDef> {
        self.items.iter().filter_map(|i| match i {
            FileItem::Struct(s) => Some(s),
            _ => None,
        })
    }

    /// Iterates the unit's file-scope variables.
    pub fn globals(&self) -> impl Iterator<Item = &Global> {
        self.items.iter().filter_map(|i| match i {
            FileItem::Global(g) => Some(g),
            _ => None,
        })
    }
}
