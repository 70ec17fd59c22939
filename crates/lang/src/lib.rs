//! The `kc` compiler: a small C-like systems language compiled to K64
//! KELF objects.
//!
//! Ksplice's two core techniques exist because of *compiler freedoms*:
//! gcc inlines functions that never say `inline`, lays a whole unit's code
//! into one `.text` section with assembly-time-resolved relative jumps,
//! pads with alignment no-ops, and — under `-ffunction-sections` — turns
//! short jumps into long ones (paper §3.1, §4.2, §4.3). A reproduction
//! whose "compiler" is a fixed byte template would make run-pre matching
//! trivially true, so this crate is a real (if small) optimizing compiler
//! that exhibits every one of those freedoms:
//!
//! * **Function inlining** at the AST level: any sufficiently small
//!   same-unit function is inlined at `-O1` and above, whether or not it
//!   is declared `inline` (the keyword merely raises the size budget) —
//!   so "looking for the `inline` keyword in the source" genuinely does
//!   not tell you where code was duplicated.
//! * **`-ffunction-sections` / `-fdata-sections`**: with the options on,
//!   every function and datum gets its own section and all cross-item
//!   references become relocations; with them off (how shipped "run"
//!   kernels are built, §6.3), a unit's functions share one `.text` with
//!   assembler-resolved intra-unit calls, alignment padding between
//!   functions, and **relaxed** (possibly `rel8`) branches.
//! * **Static symbols**: file-scope `static` items and `static` locals
//!   produce local symbols whose bare names collide across units — the
//!   `kallsyms` ambiguity of §4.1.
//! * **Compiler versioning**: [`Options::cc_version`] perturbs codegen
//!   (register choice and alignment) the way a different gcc release
//!   would, so "wrong compiler version" is a testable run-pre abort.
//!
//! Source trees may also contain `.ks` files — textual K64 assembly — so
//! patches to pure assembly (paper's CVE-2007-4573 example) flow through
//! the same pipeline.
//!
//! # Examples
//!
//! ```
//! use ksplice_lang::{compile_unit, Options};
//!
//! let src = "int answer() { return 42; }";
//! let obj = compile_unit("demo.kc", src, &Options::pre_post()).unwrap();
//! assert!(obj.section_by_name(".text.answer").is_some());
//! ```

mod asmfile;
mod ast;
mod build;
mod drift;
mod cache;
mod codegen;
mod fold;
mod inline;
mod lexer;
mod mutate;
mod parser;
mod pretty;
mod sema;
mod token;
mod visit;

pub use asmfile::assemble_unit;
pub use ast::{
    BinaryOp, Expr, ExprKind, FileItem, Function, Global, HookKind, Init, Stmt, StmtKind,
    StructDef, Type, UnaryOp, Unit,
};
/// [`build_tree_cached`] under the name the benchmark calls it by: the
/// same function, kept until a benchmark change folds the two names.
pub use build::build_tree_cached as build_tree_image_cached;
pub use build::{
    build_tree, build_tree_cached, compile_unit, compile_unit_with,
    parse_headers, tree_function_index, tree_inline_report, SourceTree,
};
pub use cache::{fnv1a, options_fingerprint, BuildCache, BuildStats, Fingerprint, FNV_OFFSET};
pub use drift::{
    canonicalize_tree, generate_drift, identifier_words, DriftClass, DriftLevel, DriftLog, DriftOp,
    FnFate,
};
pub use inline::InlineReport;
pub use lexer::lex;
pub use mutate::{apply_mutation, generate_mutant, FuzzRng, MutateError, Mutation, MutatorKind};
pub use parser::{parse_unit, MAX_DEPTH};
pub use pretty::pretty_unit;
pub use visit::{
    walk_expr_mut, walk_stmts_exprs_mut, walk_unit_blocks_mut, walk_unit_fn_exprs_mut, BlockCx,
};
pub use sema::{check_unit, check_unit_with, HeaderContext, Sema, StructLayout, WORD};
pub use token::{Token, TokenKind};

/// A source-position-tagged compile error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Compilation unit path.
    pub unit: String,
    /// 1-based line number, when known.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.unit, self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

impl CompileError {
    pub(crate) fn new(unit: &str, line: u32, message: impl Into<String>) -> CompileError {
        CompileError {
            unit: unit.to_string(),
            line,
            message: message.into(),
        }
    }
}

/// Optimisation and layout options for a build — the knobs
/// `ksplice-create` and the distributor's original kernel build turn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// 0 = no inlining or folding; 1 = inline small/`inline` functions and
    /// fold constants; 2 = same with a larger inline budget.
    pub opt_level: u8,
    /// Give every function its own `.text.<name>` section and make every
    /// cross-item reference a relocation (`-ffunction-sections`).
    pub function_sections: bool,
    /// Give every datum its own `.data/.bss/.rodata.<name>` section
    /// (`-fdata-sections`).
    pub data_sections: bool,
    /// Simulated compiler release; different versions make different
    /// (equally valid) codegen choices, so objects from different versions
    /// generally do not match byte-for-byte (paper §4.3).
    pub cc_version: u32,
}

impl Options {
    /// How a distributor ships a kernel: monolithic sections, relaxed
    /// branches, full optimisation (paper §6.3: none of the original
    /// binary kernels had `-ffunction-sections` enabled).
    pub fn distro() -> Options {
        Options {
            opt_level: 2,
            function_sections: false,
            data_sections: false,
            cc_version: 1,
        }
    }

    /// How `ksplice-create` builds the pre and post trees: per-item
    /// sections so code makes no layout assumptions (paper §3.2).
    pub fn pre_post() -> Options {
        Options {
            opt_level: 2,
            function_sections: true,
            data_sections: true,
            cc_version: 1,
        }
    }

    /// True when branch relaxation (short `rel8` forms) is enabled: only
    /// in monolithic-text builds — under function-sections the compiler
    /// emits the general `rel32` form throughout (paper §4.3: "small
    /// relative jump instructions can turn into longer jump instructions
    /// when `-ffunction-sections` is enabled").
    pub fn relax_branches(&self) -> bool {
        !self.function_sections && self.opt_level >= 1
    }
}

impl Default for Options {
    fn default() -> Options {
        Options::distro()
    }
}
