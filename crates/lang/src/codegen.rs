//! K64 code generation.
//!
//! One compilation unit becomes one KELF object. Layout follows the
//! option set (paper §3.2 and §6.3):
//!
//! * **function-sections on** (pre/post builds): every function in its own
//!   `.text.<name>` section; *all* cross-item references — including calls
//!   between functions of the same unit — are relocations, and branches
//!   always use the general `rel32` form.
//! * **function-sections off** (shipped kernels): the unit's functions
//!   share one `.text`, separated by alignment no-ops; intra-unit calls
//!   are resolved at assembly time with no relocation; branches are
//!   relaxed to `rel8` where they fit.
//!
//! The calling convention: arguments in `r1`–`r6`, result in `r0`,
//! `r7`–`r13` callee-saved, `fp`/`sp` as usual. Expression evaluation is
//! accumulator-style through `r0` with intermediates on the machine
//! stack, which keeps codegen simple while still producing code whose
//! bytes shift globally when any function's length changes — the §3.1
//! phenomenon pre-post differencing has to cope with.

use std::collections::BTreeMap;

use ksplice_asm::{Assembler, BinOp, Cond, Instr, Label, PatchPoint, Reg};
use ksplice_object::{
    Binding, Object, Reloc, RelocKind, Section, SectionFlags, SectionKind, SymKind, Symbol,
};

use crate::ast::*;
use crate::sema::{decay, round_up, ConstVal, Locals, Sema, MAX_SIZE, WORD};
use crate::visit::{walk_stmts, Node};
use crate::{CompileError, Options};

/// Generates the object for a checked, optimised unit.
pub fn gen_unit(unit: &Unit, sema: &Sema, opt: &Options) -> Result<Object, CompileError> {
    let mut g = Gen::new(unit, sema, opt);
    let text = g.gen_functions(unit)?;
    g.gen_hooks(unit)?;
    g.finish(text)
}

/// Where a datum lives, before sections are finalised.
#[derive(Debug)]
struct DataItem {
    /// Symbol name.
    sym: String,
    binding: Binding,
    size: u64,
    align: u64,
    /// `None` for zero-initialised (goes to `.bss`).
    bytes: Option<Vec<u8>>,
    /// Relocations within the datum (offset, symbol name, addend).
    relocs: Vec<(u64, String, i64)>,
    /// Read-only (rodata) vs writable.
    readonly: bool,
}

/// A local variable's storage.
#[derive(Debug, Clone)]
enum Storage {
    /// Stack slot at `fp - offset` (offset positive).
    Slot(i32),
    /// Function-lifetime data symbol (static local).
    Static(String),
}

#[derive(Debug, Clone)]
struct LocalVar {
    storage: Storage,
    ty: Type,
}

struct Gen<'a> {
    sema: &'a Sema,
    opt: &'a Options,
    /// Scratch register for binop right-hand sides; depends on
    /// `cc_version` so that different "compiler releases" produce
    /// different, equally-correct bytes.
    scratch: Reg,
    /// Function alignment, also version-dependent.
    func_align: u32,
    data: Vec<DataItem>,
    /// Counter for string literal symbols.
    str_counter: u32,
    /// Counter for static local symbol suffixes (gcc's `name.NNNN`).
    static_counter: u32,
    /// Hook entries: (section, function symbol).
    hooks: Vec<(&'static str, String)>,
    unit_name: String,
}

impl<'a> Gen<'a> {
    fn new(unit: &Unit, sema: &'a Sema, opt: &'a Options) -> Gen<'a> {
        Gen {
            sema,
            opt,
            scratch: if opt.cc_version >= 2 {
                Reg::R2
            } else {
                Reg::R1
            },
            func_align: if opt.cc_version >= 2 { 32 } else { 16 },
            data: Vec::new(),
            str_counter: 0,
            static_counter: 0,
            hooks: Vec::new(),
            unit_name: unit.name.clone(),
        }
    }

    fn err(&self, line: u32, msg: impl Into<String>) -> CompileError {
        CompileError::new(&self.unit_name, line, msg)
    }

    // ---- data ------------------------------------------------------------

    fn emit_global(&mut self, g: &Global) -> Result<(), CompileError> {
        let size = self.sema.size_of(&g.ty, g.line)?;
        let align = match g.ty {
            Type::Byte => 1,
            Type::Array(ref e, _) if **e == Type::Byte => 1,
            _ => WORD,
        };
        let binding = if g.is_static {
            Binding::Local
        } else {
            Binding::Global
        };
        let (bytes, relocs) = match &g.init {
            None => (None, Vec::new()),
            Some(init) => {
                let mut buf = vec![0u8; size as usize];
                let mut relocs = Vec::new();
                self.fill_init(&g.ty, init, &mut buf, 0, &mut relocs, g.line)?;
                (Some(buf), relocs)
            }
        };
        self.data.push(DataItem {
            sym: g.name.clone(),
            binding,
            size,
            align,
            bytes,
            relocs,
            readonly: false,
        });
        Ok(())
    }

    /// Writes a constant initialiser into `buf` at `at`.
    fn fill_init(
        &mut self,
        ty: &Type,
        init: &Init,
        buf: &mut [u8],
        at: u64,
        relocs: &mut Vec<(u64, String, i64)>,
        line: u32,
    ) -> Result<(), CompileError> {
        match (ty, init) {
            (Type::Array(elem, _), Init::Scalar(e)) if **elem == Type::Byte => {
                // `byte msg[n] = "...";`
                let Some(ConstVal::Str(s)) = self.sema.const_eval(e) else {
                    return Err(self.err(line, "byte array initialiser must be a string"));
                };
                if s.len() + 1 > buf.len() - at as usize {
                    return Err(self.err(line, "string longer than array"));
                }
                buf[at as usize..at as usize + s.len()].copy_from_slice(&s);
                Ok(())
            }
            (t, Init::Scalar(e)) if t.is_scalar() => self.fill_scalar(t, e, buf, at, relocs, line),
            (Type::Array(elem, n), Init::List(items)) => {
                let esize = self.sema.size_of(elem, line)?;
                if items.len() as u64 > *n {
                    return Err(self.err(line, "too many array initialisers"));
                }
                for (i, e) in items.iter().enumerate() {
                    self.fill_scalar(elem, e, buf, at + i as u64 * esize, relocs, line)?;
                }
                Ok(())
            }
            (Type::Struct(name), Init::List(items)) => {
                let layout = self.sema.layout(name).expect("checked").clone();
                if items.len() > layout.fields.len() {
                    return Err(self.err(line, "too many struct initialisers"));
                }
                for (e, (_, off, fty)) in items.iter().zip(&layout.fields) {
                    self.fill_scalar(fty, e, buf, at + off, relocs, line)?;
                }
                Ok(())
            }
            _ => Err(self.err(line, "initialiser does not match type")),
        }
    }

    fn fill_scalar(
        &mut self,
        ty: &Type,
        e: &Expr,
        buf: &mut [u8],
        at: u64,
        relocs: &mut Vec<(u64, String, i64)>,
        line: u32,
    ) -> Result<(), CompileError> {
        if !ty.is_scalar() {
            return Err(self.err(line, "aggregate field initialisers are not supported"));
        }
        match self.sema.const_eval(e) {
            Some(ConstVal::Int(v)) => {
                let w = if *ty == Type::Byte { 1 } else { 8 };
                buf[at as usize..at as usize + w].copy_from_slice(&v.to_le_bytes()[..w]);
                Ok(())
            }
            Some(ConstVal::SymAddr(name, off)) => {
                relocs.push((at, name, off));
                Ok(())
            }
            Some(ConstVal::Str(s)) => {
                let sym = self.intern_string(&s);
                relocs.push((at, sym, 0));
                Ok(())
            }
            None => Err(self.err(line, "initialiser is not a link-time constant")),
        }
    }

    /// Adds a string literal to rodata, returning its symbol name.
    fn intern_string(&mut self, s: &[u8]) -> String {
        let sym = format!(".str.{}", self.str_counter);
        self.str_counter += 1;
        let mut bytes = s.to_vec();
        bytes.push(0);
        self.data.push(DataItem {
            sym: sym.clone(),
            binding: Binding::Local,
            size: bytes.len() as u64,
            align: 1,
            bytes: Some(bytes),
            relocs: Vec::new(),
            readonly: true,
        });
        sym
    }

    // ---- functions ---------------------------------------------------------

    fn gen_functions(&mut self, unit: &Unit) -> Result<Vec<TextSection>, CompileError> {
        // Emit globals first so static-local counters follow gcc-like
        // ordering (file scope before function bodies).
        for item in &unit.items {
            if let FileItem::Global(g) = item {
                self.emit_global(g)?;
            }
        }
        let funcs: Vec<&Function> = unit.functions().collect();
        let layout: Vec<TextFn> = funcs
            .iter()
            .map(|f| TextFn {
                name: &f.name,
                global: !f.is_static,
                line: f.line,
            })
            .collect();
        let (opt, align, unit_name) = (self.opt, self.func_align, self.unit_name.clone());
        assemble_text(&unit_name, &layout, opt, align, |i, asm, entries| {
            self.gen_function(funcs[i], asm, entries)
        })
    }

    fn gen_hooks(&mut self, unit: &Unit) -> Result<(), CompileError> {
        for item in &unit.items {
            if let FileItem::Hook { kind, func, .. } = item {
                self.hooks.push((kind.section_name(), func.clone()));
            }
        }
        Ok(())
    }

    fn gen_function(
        &mut self,
        f: &Function,
        asm: &mut Assembler,
        entries: &BTreeMap<String, Label>,
    ) -> Result<(), CompileError> {
        let mut fg = FuncGen {
            g: self,
            asm,
            entries,
            func: f,
            scopes: vec![Vec::new()],
            next_slot: 0,
            loop_stack: Vec::new(),
            exit: None,
        };
        fg.run()
    }

    // ---- finalisation ------------------------------------------------------

    fn finish(mut self, text: Vec<TextSection>) -> Result<Object, CompileError> {
        let mut obj = Object::new(&self.unit_name);
        // Data sections.
        let data_items = std::mem::take(&mut self.data);
        if self.opt.data_sections {
            for item in data_items {
                self.place_data_own_section(&mut obj, item);
            }
        } else {
            self.place_data_merged(&mut obj, data_items);
        }
        place_text(&mut obj, text);
        // Hook note sections.
        let hooks = std::mem::take(&mut self.hooks);
        for (section_name, func) in hooks {
            let idx = match obj.section_by_name(section_name) {
                Some((i, _)) => i,
                None => {
                    let mut s = Section::progbits(section_name, SectionFlags::note(), Vec::new());
                    s.kind = SectionKind::Note;
                    s.align = 8;
                    obj.add_section(s)
                }
            };
            let at = obj.sections[idx].data.len() as u64;
            obj.sections[idx].data.extend_from_slice(&[0u8; 8]);
            obj.sections[idx].size += 8;
            let symbol = obj.intern_symbol(&func);
            obj.sections[idx].relocs.push(Reloc {
                offset: at,
                kind: RelocKind::Abs64,
                symbol,
                addend: 0,
            });
        }
        // Data sections are placed before text, so a datum's relocation to
        // a function (ops tables, `int h = &handler;`) interned an
        // undefined symbol before the function's defined entry existed.
        // Redirect such relocations to the defined symbol.
        let defined: std::collections::BTreeMap<String, usize> = obj
            .symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| s.def.is_some())
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        let undef_to_def: Vec<(usize, usize)> = obj
            .symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| s.def.is_none())
            .filter_map(|(i, s)| defined.get(&s.name).map(|&d| (i, d)))
            .collect();
        if !undef_to_def.is_empty() {
            for sec in &mut obj.sections {
                for r in &mut sec.relocs {
                    if let Some(&(_, d)) = undef_to_def.iter().find(|&&(u, _)| u == r.symbol) {
                        r.symbol = d;
                    }
                }
            }
        }
        obj.validate()
            .map_err(|e| self.err(0, format!("internal: generated object invalid: {e}")))?;
        Ok(obj)
    }

    fn place_data_own_section(&mut self, obj: &mut Object, item: DataItem) {
        let (prefix, flags) = match (&item.bytes, item.readonly) {
            (None, _) => (".bss", SectionFlags::data()),
            (Some(_), true) => (".rodata", SectionFlags::rodata()),
            (Some(_), false) => (".data", SectionFlags::data()),
        };
        let name = format!("{prefix}.{}", item.sym);
        let mut sec = match &item.bytes {
            None => Section::nobits(&name, item.size),
            Some(b) => Section::progbits(&name, flags, b.clone()),
        };
        sec.align = item.align.max(1) as u32;
        let sec_idx = obj.add_section(sec);
        obj.add_symbol(Symbol::defined(
            &item.sym,
            item.binding,
            SymKind::Object,
            sec_idx,
            0,
            item.size,
        ));
        for (off, name, addend) in item.relocs {
            let symbol = obj.intern_symbol(&name);
            obj.sections[sec_idx].relocs.push(Reloc {
                offset: off,
                kind: RelocKind::Abs64,
                symbol,
                addend,
            });
        }
    }

    fn place_data_merged(&mut self, obj: &mut Object, items: Vec<DataItem>) {
        // Three merged pools: .data, .rodata, .bss.
        let mut data = Section::progbits(".data", SectionFlags::data(), Vec::new());
        let mut rodata = Section::progbits(".rodata", SectionFlags::rodata(), Vec::new());
        let mut bss = Section::nobits(".bss", 0);
        let mut placements: Vec<(DataItem, usize, u64)> = Vec::new(); // (item, pool id, offset)
        for item in items {
            match (&item.bytes, item.readonly) {
                (None, _) => {
                    let off = round_up(bss.size, item.align);
                    bss.size = off + item.size;
                    placements.push((item, 2, off));
                }
                (Some(b), ro) => {
                    let pool = if ro { &mut rodata } else { &mut data };
                    let off = round_up(pool.data.len() as u64, item.align);
                    pool.data.resize(off as usize, 0);
                    pool.data.extend_from_slice(b);
                    pool.size = pool.data.len() as u64;
                    placements.push((item, if ro { 1 } else { 0 }, off));
                }
            }
        }
        let data_idx = obj.add_section(data);
        let rodata_idx = obj.add_section(rodata);
        let bss_idx = obj.add_section(bss);
        let pool_idx = [data_idx, rodata_idx, bss_idx];
        for (item, pool, off) in placements {
            let sec_idx = pool_idx[pool];
            obj.add_symbol(Symbol::defined(
                &item.sym,
                item.binding,
                SymKind::Object,
                sec_idx,
                off,
                item.size,
            ));
            for (roff, name, addend) in item.relocs {
                let symbol = obj.intern_symbol(&name);
                obj.sections[sec_idx].relocs.push(Reloc {
                    offset: off + roff,
                    kind: RelocKind::Abs64,
                    symbol,
                    addend,
                });
            }
        }
    }
}

/// One function of a unit's text, as [`assemble_text`] lays it out.
pub(crate) struct TextFn<'a> {
    pub name: &'a str,
    pub global: bool,
    /// Line reported when the function's own assembly fails.
    pub line: u32,
}

/// One assembled text section, not yet placed into an object.
pub(crate) struct TextSection {
    section: Section,
    patches: Vec<PatchPoint>,
    /// The section's functions (name, global, offset), by offset.
    funcs: Vec<(String, bool, u64)>,
}

/// Assembles a unit's functions in the layout `opt` selects — the one
/// text emitter behind `.kc` and `.ks` units. `emit(i, asm, entries)`
/// emits function `i` into `asm`; `entries` maps the unit's function
/// names to entry labels when calls between them resolve at assembly
/// time.
///
/// * Under `function_sections` each function is assembled alone, by a
///   fresh, unrelaxed [`Assembler`], into its own `.text.<fn>` (and
///   `entries` is empty); a failing assembly reports the function's
///   `line`.
/// * Otherwise one assembler, relaxed when the options relax branches,
///   lays every function out in one `.text`, each bound to its entry
///   label.
///
/// Functions and sections are aligned to `align`.
pub(crate) fn assemble_text(
    unit: &str,
    funcs: &[TextFn],
    opt: &Options,
    align: u32,
    mut emit: impl FnMut(usize, &mut Assembler, &BTreeMap<String, Label>) -> Result<(), CompileError>,
) -> Result<Vec<TextSection>, CompileError> {
    let failed = |line, e| CompileError::new(unit, line, format!("assembly failed: {e}"));
    let section = |name: &str, code| {
        let mut sec = Section::progbits(name, SectionFlags::text(), code);
        sec.align = align;
        sec
    };
    if opt.function_sections {
        let mut sections = Vec::new();
        for (i, f) in funcs.iter().enumerate() {
            let mut asm = Assembler::new();
            emit(i, &mut asm, &BTreeMap::new())?;
            let out = asm.finish().map_err(|e| failed(f.line, e))?;
            sections.push(TextSection {
                section: section(&format!(".text.{}", f.name), out.code),
                patches: out.patches,
                funcs: vec![(f.name.to_string(), f.global, 0)],
            });
        }
        return Ok(sections);
    }
    let mut asm = if opt.relax_branches() {
        Assembler::new_relaxed()
    } else {
        Assembler::new()
    };
    let entries: BTreeMap<String, Label> = funcs
        .iter()
        .map(|f| (f.name.to_string(), asm.new_label()))
        .collect();
    for (i, f) in funcs.iter().enumerate() {
        asm.align(align);
        asm.bind(entries[f.name]);
        emit(i, &mut asm, &entries)?;
    }
    let out = asm.finish().map_err(|e| failed(0, e))?;
    let mut placed: Vec<_> = funcs
        .iter()
        .map(|f| {
            let off = out.label_offset(entries[f.name]).expect("entry bound") as u64;
            (f.name.to_string(), f.global, off)
        })
        .collect();
    placed.sort_by_key(|&(_, _, off)| off);
    Ok(vec![TextSection {
        section: section(".text", out.code),
        patches: out.patches,
        funcs: placed,
    }])
}

/// Places [`assemble_text`]'s sections into `obj`: one `Func` symbol per
/// function, sized to the next function or the section end, and every
/// patch point as a `Pcrel32` or `Abs64` relocation.
pub(crate) fn place_text(obj: &mut Object, text: Vec<TextSection>) {
    for sec in text {
        let idx = obj.add_section(sec.section);
        let end = obj.sections[idx].size;
        for (i, (name, global, off)) in sec.funcs.iter().enumerate() {
            let next = sec.funcs.get(i + 1).map_or(end, |&(_, _, o)| o);
            let binding = if *global {
                Binding::Global
            } else {
                Binding::Local
            };
            obj.add_symbol(Symbol::defined(
                name,
                binding,
                SymKind::Func,
                idx,
                *off,
                next - off,
            ));
        }
        for p in sec.patches {
            let symbol = obj.intern_symbol(&p.name);
            obj.sections[idx].relocs.push(Reloc {
                offset: p.offset as u64,
                kind: if p.pcrel {
                    RelocKind::Pcrel32
                } else {
                    RelocKind::Abs64
                },
                symbol,
                addend: p.addend,
            });
        }
    }
}

/// Per-function code generation state.
struct FuncGen<'a, 'b> {
    g: &'b mut Gen<'a>,
    asm: &'b mut Assembler,
    entries: &'b BTreeMap<String, Label>,
    func: &'b Function,
    /// Scope stack of live locals.
    scopes: Vec<Vec<(String, LocalVar)>>,
    /// Next free frame offset (positive, below fp).
    next_slot: i32,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(Label, Label)>,
    /// Common epilogue label.
    exit: Option<Label>,
}

impl Locals for FuncGen<'_, '_> {
    fn local_type(&self, name: &str) -> Option<&Type> {
        self.lookup(name).map(|v| &v.ty)
    }
}

impl FuncGen<'_, '_> {
    fn err(&self, line: u32, msg: impl Into<String>) -> CompileError {
        CompileError::new(&self.g.unit_name, line, msg)
    }

    fn run(&mut self) -> Result<(), CompileError> {
        let frame = self.compute_frame_size()?;
        let exit = self.asm.new_label();
        self.exit = Some(exit);
        // Prologue.
        self.asm.emit(Instr::Push(Reg::FP));
        self.asm.emit(Instr::MovRR(Reg::FP, Reg::SP));
        if frame > 0 {
            self.asm.emit(Instr::AddI(Reg::SP, -frame));
        }
        // Spill arguments to their slots.
        let func = self.func;
        for (i, (name, ty)) in func.params.iter().enumerate() {
            let slot = self.alloc_slot(ty, func.line)?;
            let reg = Reg::from_nibble(1 + i as u8);
            self.asm.emit(Instr::St(Reg::FP, reg, -slot));
            self.declare(
                name,
                LocalVar {
                    storage: Storage::Slot(slot),
                    ty: ty.clone(),
                },
            );
        }
        self.gen_block(&func.body)?;
        // Fall-off-the-end returns 0 (deterministically).
        self.asm.emit(Instr::MovRI32(Reg::R0, 0));
        self.asm.bind(exit);
        self.asm.emit(Instr::MovRR(Reg::SP, Reg::FP));
        self.asm.emit(Instr::Pop(Reg::FP));
        self.asm.emit(Instr::Ret);
        Ok(())
    }

    /// Total frame bytes needed by every declaration in the function,
    /// refused when the frame is larger than [`MAX_SIZE`].
    fn compute_frame_size(&self) -> Result<i32, CompileError> {
        let mut total = Ok(self.func.params.len() as u64 * WORD);
        walk_stmts(&self.func.body, &mut |n| {
            if let Node::Stmt(Stmt {
                kind:
                    StmtKind::Decl {
                        ty,
                        is_static: false,
                        ..
                    },
                line,
            }) = n
            {
                if let Ok(sum) = total {
                    total = self
                        .slot_size(ty, *line)
                        .map(|slot| sum.saturating_add(slot));
                }
            }
        });
        match total? {
            sum if sum <= MAX_SIZE => Ok(sum as i32),
            _ => Err(self.err(
                self.func.line,
                format!(
                    "stack frame of `{}` is larger than {MAX_SIZE} bytes",
                    self.func.name
                ),
            )),
        }
    }

    /// The frame bytes a local of type `ty` takes: whole words, at least
    /// one.
    fn slot_size(&self, ty: &Type, line: u32) -> Result<u64, CompileError> {
        Ok(round_up(self.g.sema.size_of(ty, line)?.max(WORD), WORD))
    }

    /// Allocates the next frame slot. [`FuncGen::compute_frame_size`]
    /// bounded the sum of every slot, so the offset fits an `i32`.
    fn alloc_slot(&mut self, ty: &Type, line: u32) -> Result<i32, CompileError> {
        self.next_slot += self.slot_size(ty, line)? as i32;
        Ok(self.next_slot)
    }

    fn declare(&mut self, name: &str, var: LocalVar) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .push((name.to_string(), var));
    }

    fn lookup(&self, name: &str) -> Option<&LocalVar> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v))
    }

    fn scratch(&self) -> Reg {
        self.g.scratch
    }

    /// Pads loop heads to an 8-byte boundary in monolithic `-O2` builds,
    /// like gcc's `-falign-loops`. Under `-ffunction-sections` the
    /// compiler emits the general unpadded form — so a run kernel and a
    /// pre build legitimately differ by alignment no-ops, which run-pre
    /// matching must skip (paper §4.3).
    fn align_loop_head(&mut self) {
        if !self.g.opt.function_sections && self.g.opt.opt_level >= 2 {
            self.asm.align(8);
        }
    }

    // ---- statements --------------------------------------------------------

    fn gen_block(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        self.scopes.push(Vec::new());
        for s in body {
            self.gen_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn gen_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match &s.kind {
            StmtKind::Decl {
                name,
                ty,
                is_static,
                init,
            } => {
                if *is_static {
                    let sym = format!("{name}.{}", self.g.static_counter);
                    self.g.static_counter += 1;
                    let size = self.g.sema.size_of(ty, s.line)?;
                    let (bytes, relocs) = match init {
                        None => (None, Vec::new()),
                        Some(e) => {
                            let mut buf = vec![0u8; size as usize];
                            let mut relocs = Vec::new();
                            self.g
                                .fill_scalar(ty, e, &mut buf, 0, &mut relocs, e.line)?;
                            (Some(buf), relocs)
                        }
                    };
                    self.g.data.push(DataItem {
                        sym: sym.clone(),
                        binding: Binding::Local,
                        size,
                        align: WORD,
                        bytes,
                        relocs,
                        readonly: false,
                    });
                    self.declare(
                        name,
                        LocalVar {
                            storage: Storage::Static(sym),
                            ty: ty.clone(),
                        },
                    );
                } else {
                    let slot = self.alloc_slot(ty, s.line)?;
                    if let Some(e) = init {
                        self.eval(e)?;
                        self.asm.emit(Instr::St(Reg::FP, Reg::R0, -slot));
                    }
                    self.declare(
                        name,
                        LocalVar {
                            storage: Storage::Slot(slot),
                            ty: ty.clone(),
                        },
                    );
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(())
            }
            StmtKind::Assign { target, value } => {
                let tty = self.g.sema.type_of(target, self)?;
                self.eval_lvalue(target)?;
                self.asm.emit(Instr::Push(Reg::R0));
                self.eval(value)?;
                let scratch = self.scratch();
                self.asm.emit(Instr::MovRR(scratch, Reg::R0));
                self.asm.emit(Instr::Pop(Reg::R0));
                if self.is_byte_memory(target, &tty) {
                    self.asm.emit(Instr::St8(Reg::R0, scratch, 0));
                } else {
                    self.asm.emit(Instr::St(Reg::R0, scratch, 0));
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let else_l = self.asm.new_label();
                let end_l = self.asm.new_label();
                self.eval(cond)?;
                self.asm.emit(Instr::CmpI(Reg::R0, 0));
                self.asm.jcc(Cond::Z, else_l);
                self.gen_block(then_body)?;
                if else_body.is_empty() {
                    self.asm.bind(else_l);
                    // end_l unused; bind to keep the assembler satisfied.
                    self.asm.bind(end_l);
                } else {
                    self.asm.jmp(end_l);
                    self.asm.bind(else_l);
                    self.gen_block(else_body)?;
                    self.asm.bind(end_l);
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let top = self.asm.new_label();
                let end = self.asm.new_label();
                self.align_loop_head();
                self.asm.bind(top);
                self.eval(cond)?;
                self.asm.emit(Instr::CmpI(Reg::R0, 0));
                self.asm.jcc(Cond::Z, end);
                self.loop_stack.push((top, end));
                self.gen_block(body)?;
                self.loop_stack.pop();
                self.asm.jmp(top);
                self.asm.bind(end);
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(Vec::new());
                if let Some(i) = init {
                    self.gen_stmt(i)?;
                }
                let top = self.asm.new_label();
                let cont = self.asm.new_label();
                let end = self.asm.new_label();
                self.align_loop_head();
                self.asm.bind(top);
                if let Some(c) = cond {
                    self.eval(c)?;
                    self.asm.emit(Instr::CmpI(Reg::R0, 0));
                    self.asm.jcc(Cond::Z, end);
                }
                self.loop_stack.push((cont, end));
                self.gen_block(body)?;
                self.loop_stack.pop();
                self.asm.bind(cont);
                if let Some(st) = step {
                    self.gen_stmt(st)?;
                }
                self.asm.jmp(top);
                self.asm.bind(end);
                self.scopes.pop();
                Ok(())
            }
            StmtKind::Return(value) => {
                match value {
                    Some(e) => self.eval(e)?,
                    None => self.asm.emit(Instr::MovRI32(Reg::R0, 0)),
                }
                let exit = self.exit.expect("exit label set in run()");
                self.asm.jmp(exit);
                Ok(())
            }
            StmtKind::Break => {
                let (_, end) = *self
                    .loop_stack
                    .last()
                    .ok_or_else(|| self.err(s.line, "break outside loop"))?;
                self.asm.jmp(end);
                Ok(())
            }
            StmtKind::Continue => {
                let (cont, _) = *self
                    .loop_stack
                    .last()
                    .ok_or_else(|| self.err(s.line, "continue outside loop"))?;
                self.asm.jmp(cont);
                Ok(())
            }
            StmtKind::Block(body) => self.gen_block(body),
        }
    }

    fn field(&self, sname: &str, fname: &str, line: u32) -> Result<(u64, Type), CompileError> {
        self.g
            .sema
            .field(sname, fname)
            .map(|(off, t)| (off, t.clone()))
            .ok_or_else(|| self.err(line, format!("struct `{sname}` has no field `{fname}`")))
    }

    /// True when loads/stores through this lvalue touch a single byte.
    fn is_byte_memory(&self, lv: &Expr, ty: &Type) -> bool {
        if *ty != Type::Byte {
            return false;
        }
        // Byte-typed *locals* occupy full word slots; byte-typed memory
        // reached through pointers, fields, indexing or globals is 1 byte.
        match &lv.kind {
            ExprKind::Ident(name) => self.lookup(name).is_none(),
            _ => true,
        }
    }

    // ---- expressions ---------------------------------------------------------

    /// Evaluates `e`, leaving the (scalar) result — or the address, for
    /// aggregates — in `r0`.
    fn eval(&mut self, e: &Expr) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Num(v) => {
                self.emit_const(*v);
                Ok(())
            }
            ExprKind::Sizeof(ty) => {
                let size = self.g.sema.size_of(ty, e.line)?;
                self.emit_const(size as i64);
                Ok(())
            }
            ExprKind::Str(s) => {
                let sym = self.g.intern_string(s);
                self.emit_sym_addr(&sym, 0);
                Ok(())
            }
            ExprKind::Ident(name) => self.eval_ident(name, e.line),
            ExprKind::Unary(op, inner) => self.eval_unary(*op, inner, e.line),
            ExprKind::Binary(op, l, r) => self.eval_binary(*op, l, r, e.line),
            ExprKind::Call { callee, args } => self.eval_call(callee, args, e.line),
            ExprKind::Index(..) | ExprKind::Field(..) | ExprKind::PField(..) => {
                let ty = self.g.sema.type_of(e, self)?;
                self.eval_lvalue(e)?;
                self.load_from_address(e, &ty);
                Ok(())
            }
        }
    }

    fn emit_const(&mut self, v: i64) {
        if let Ok(v32) = i32::try_from(v) {
            self.asm.emit(Instr::MovRI32(Reg::R0, v32));
        } else {
            self.asm.emit(Instr::MovRI64(Reg::R0, v as u64));
        }
    }

    /// Emits `movabs r0, <sym+addend>` with an Abs64 patch point.
    fn emit_sym_addr(&mut self, sym: &str, addend: i64) {
        self.asm.emit_patched(
            Instr::MovRI64(Reg::R0, 0),
            2, // imm64 field offset within the instruction
            8,
            sym,
            addend,
            false,
        );
    }

    fn eval_ident(&mut self, name: &str, line: u32) -> Result<(), CompileError> {
        if let Some(var) = self.lookup(name).cloned() {
            match (&var.storage, &var.ty) {
                (Storage::Slot(off), ty) if ty.is_scalar() => {
                    self.asm.emit(Instr::Ld(Reg::R0, Reg::FP, -off));
                }
                (Storage::Slot(off), _) => {
                    // Aggregates decay to their address.
                    self.asm.emit(Instr::Lea(Reg::R0, Reg::FP, -off));
                }
                (Storage::Static(sym), ty) => {
                    let sym = sym.clone();
                    self.emit_sym_addr(&sym, 0);
                    if ty.is_scalar() {
                        if *ty == Type::Byte {
                            self.asm.emit(Instr::Ld8(Reg::R0, Reg::R0, 0));
                        } else {
                            self.asm.emit(Instr::Ld(Reg::R0, Reg::R0, 0));
                        }
                    }
                }
            }
            return Ok(());
        }
        // Globals defined in this unit or declared by headers.
        if let Some(ty) = self.g.sema.global_type(name).cloned() {
            self.emit_sym_addr(name, 0);
            if ty.is_scalar() {
                if ty == Type::Byte {
                    self.asm.emit(Instr::Ld8(Reg::R0, Reg::R0, 0));
                } else {
                    self.asm.emit(Instr::Ld(Reg::R0, Reg::R0, 0));
                }
            }
            return Ok(());
        }
        // Functions and extern functions denote their address.
        if self.g.sema.functions.contains_key(name) || self.g.sema.extern_funcs.contains(name) {
            self.emit_sym_addr(name, 0);
            return Ok(());
        }
        // Extern / implicit-extern variable: an int-shaped load.
        let _ = line;
        self.emit_sym_addr(name, 0);
        self.asm.emit(Instr::Ld(Reg::R0, Reg::R0, 0));
        Ok(())
    }

    fn eval_unary(&mut self, op: UnaryOp, inner: &Expr, line: u32) -> Result<(), CompileError> {
        match op {
            UnaryOp::Neg => {
                self.eval(inner)?;
                self.asm.emit(Instr::Neg(Reg::R0));
            }
            UnaryOp::BitNot => {
                self.eval(inner)?;
                self.asm.emit(Instr::Not(Reg::R0));
            }
            UnaryOp::LNot => {
                self.eval(inner)?;
                self.emit_bool(Cond::Z);
            }
            UnaryOp::Deref => {
                let ity = decay(self.g.sema.type_of(inner, self)?);
                self.eval(inner)?;
                match ity {
                    Type::Ptr(elem) => match *elem {
                        Type::Byte => self.asm.emit(Instr::Ld8(Reg::R0, Reg::R0, 0)),
                        Type::Struct(_) | Type::Array(..) => {} // address-valued
                        _ => self.asm.emit(Instr::Ld(Reg::R0, Reg::R0, 0)),
                    },
                    _ => self.asm.emit(Instr::Ld(Reg::R0, Reg::R0, 0)),
                }
            }
            UnaryOp::Addr => {
                // &function is its address; otherwise an lvalue address.
                if let ExprKind::Ident(n) = &inner.kind {
                    if self.lookup(n).is_none()
                        && (self.g.sema.functions.contains_key(n)
                            || self.g.sema.extern_funcs.contains(n))
                    {
                        self.emit_sym_addr(n, 0);
                        return Ok(());
                    }
                }
                self.eval_lvalue(inner)?;
            }
        }
        let _ = line;
        Ok(())
    }

    /// Materialises a boolean from the current flags: `r0 = cond ? 1 : 0`.
    /// Expects `cmp` already executed OR compares `r0` against 0 first
    /// when `cond` is `Z`/`Nz` for logical not / truthiness.
    fn emit_bool(&mut self, cond: Cond) {
        // For LNot-style uses the caller left the value in r0.
        self.asm.emit(Instr::CmpI(Reg::R0, 0));
        self.emit_bool_from_flags(cond);
    }

    /// `r0 = flags-satisfy-cond ? 1 : 0`; flags must already be set.
    fn emit_bool_from_flags(&mut self, cond: Cond) {
        let done = self.asm.new_label();
        self.asm.emit(Instr::MovRI32(Reg::R0, 1));
        self.asm.jcc(cond, done);
        self.asm.emit(Instr::MovRI32(Reg::R0, 0));
        self.asm.bind(done);
    }

    fn eval_binary(
        &mut self,
        op: BinaryOp,
        l: &Expr,
        r: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        // Short-circuit forms get control flow.
        if matches!(op, BinaryOp::LAnd | BinaryOp::LOr) {
            let short = self.asm.new_label();
            let done = self.asm.new_label();
            self.eval(l)?;
            self.asm.emit(Instr::CmpI(Reg::R0, 0));
            match op {
                BinaryOp::LAnd => self.asm.jcc(Cond::Z, short),
                BinaryOp::LOr => self.asm.jcc(Cond::Nz, short),
                _ => unreachable!(),
            }
            self.eval(r)?;
            self.emit_bool(Cond::Nz);
            self.asm.jmp(done);
            self.asm.bind(short);
            let v = if op == BinaryOp::LAnd { 0 } else { 1 };
            self.asm.emit(Instr::MovRI32(Reg::R0, v));
            self.asm.bind(done);
            return Ok(());
        }
        let lt = decay(self.g.sema.type_of(l, self)?);
        let rt = decay(self.g.sema.type_of(r, self)?);
        // Pointer arithmetic scaling: swap `int + ptr` into `ptr + int`.
        let (l, r, lt, rt) =
            if op == BinaryOp::Add && !matches!(lt, Type::Ptr(_)) && matches!(rt, Type::Ptr(_)) {
                (r, l, rt, lt)
            } else {
                (l, r, lt, rt)
            };
        let scale = match (&op, &lt, &rt) {
            (BinaryOp::Add | BinaryOp::Sub, Type::Ptr(elem), t) if !matches!(t, Type::Ptr(_)) => {
                Some(self.g.sema.size_of(elem, line)?)
            }
            _ => None,
        };
        let ptr_diff = matches!((&op, &lt, &rt), (BinaryOp::Sub, Type::Ptr(_), Type::Ptr(_)));

        self.eval(l)?;
        self.asm.emit(Instr::Push(Reg::R0));
        self.eval(r)?;
        let scratch = self.scratch();
        if let Some(scale) = scale {
            if scale > 1 {
                self.asm.emit(Instr::MovRI32(scratch, scale as i32));
                self.asm.emit(Instr::Bin(BinOp::Mul, Reg::R0, scratch));
            }
        }
        self.asm.emit(Instr::MovRR(scratch, Reg::R0));
        self.asm.emit(Instr::Pop(Reg::R0));
        match op {
            BinaryOp::Add => self.asm.emit(Instr::Bin(BinOp::Add, Reg::R0, scratch)),
            BinaryOp::Sub => {
                self.asm.emit(Instr::Bin(BinOp::Sub, Reg::R0, scratch));
                if ptr_diff {
                    if let Type::Ptr(elem) = &lt {
                        let size = self.g.sema.size_of(elem, line)?;
                        if size > 1 {
                            self.asm.emit(Instr::MovRI32(scratch, size as i32));
                            self.asm.emit(Instr::Bin(BinOp::Div, Reg::R0, scratch));
                        }
                    }
                }
            }
            BinaryOp::Mul => self.asm.emit(Instr::Bin(BinOp::Mul, Reg::R0, scratch)),
            BinaryOp::Div => self.asm.emit(Instr::Bin(BinOp::Div, Reg::R0, scratch)),
            BinaryOp::Mod => self.asm.emit(Instr::Bin(BinOp::Mod, Reg::R0, scratch)),
            BinaryOp::BitAnd => self.asm.emit(Instr::Bin(BinOp::And, Reg::R0, scratch)),
            BinaryOp::BitOr => self.asm.emit(Instr::Bin(BinOp::Or, Reg::R0, scratch)),
            BinaryOp::BitXor => self.asm.emit(Instr::Bin(BinOp::Xor, Reg::R0, scratch)),
            BinaryOp::Shl => self.asm.emit(Instr::Bin(BinOp::Shl, Reg::R0, scratch)),
            BinaryOp::Shr => self.asm.emit(Instr::Bin(BinOp::Shr, Reg::R0, scratch)),
            BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => {
                self.asm.emit(Instr::Cmp(Reg::R0, scratch));
                let cond = match op {
                    BinaryOp::Eq => Cond::Z,
                    BinaryOp::Ne => Cond::Nz,
                    BinaryOp::Lt => Cond::L,
                    BinaryOp::Le => Cond::Le,
                    BinaryOp::Gt => Cond::G,
                    BinaryOp::Ge => Cond::Ge,
                    _ => unreachable!(),
                };
                self.emit_bool_from_flags(cond);
            }
            BinaryOp::LAnd | BinaryOp::LOr => unreachable!("handled above"),
        }
        Ok(())
    }

    fn eval_call(&mut self, callee: &Expr, args: &[Expr], line: u32) -> Result<(), CompileError> {
        if args.len() > 6 {
            return Err(self.err(line, "calls support at most 6 arguments"));
        }
        // Direct call when the callee is a non-local identifier.
        let direct = match &callee.kind {
            ExprKind::Ident(name) if self.lookup(name).is_none() => {
                let is_var = self.g.sema.global_type(name).is_some();
                if is_var {
                    None // calling through a global variable's value
                } else {
                    Some(name.clone())
                }
            }
            _ => None,
        };
        // Evaluate arguments left-to-right onto the stack.
        for a in args {
            self.eval(a)?;
            self.asm.emit(Instr::Push(Reg::R0));
        }
        if direct.is_none() {
            // Evaluate the callee *after* the arguments so its value can
            // sit in r0 (untouched by the argument pops, which only write
            // r1..r6) until the indirect call issues.
            self.eval(callee)?;
            for i in (0..args.len()).rev() {
                self.asm.emit(Instr::Pop(Reg::from_nibble(1 + i as u8)));
            }
            self.asm.emit(Instr::CallR(Reg::R0));
            return Ok(());
        }
        for i in (0..args.len()).rev() {
            self.asm.emit(Instr::Pop(Reg::from_nibble(1 + i as u8)));
        }
        let name = direct.expect("checked");
        let same_unit = self.g.sema.functions.contains_key(&name);
        if same_unit {
            if let Some(&label) = self.entries.get(&name) {
                // Monolithic text: assembly-time resolution, no relocation.
                self.asm.call_label(label);
                return Ok(());
            }
        }
        // Cross-section or external call: PC-relative relocation with the
        // conventional −4 addend (paper §4.3 footnote 2).
        self.asm.emit_patched(
            Instr::Call32(0),
            1,
            4,
            &name,
            ksplice_asm::REL32_ADDEND,
            true,
        );
        Ok(())
    }

    /// Evaluates the address of an lvalue into `r0`.
    fn eval_lvalue(&mut self, e: &Expr) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(var) = self.lookup(name).cloned() {
                    match var.storage {
                        Storage::Slot(off) => self.asm.emit(Instr::Lea(Reg::R0, Reg::FP, -off)),
                        Storage::Static(sym) => self.emit_sym_addr(&sym, 0),
                    }
                    return Ok(());
                }
                // Global (typed or implicit-extern): its address.
                self.emit_sym_addr(name, 0);
                Ok(())
            }
            ExprKind::Unary(UnaryOp::Deref, inner) => self.eval(inner),
            ExprKind::Index(base, idx) => {
                let bt = decay(self.g.sema.type_of(base, self)?);
                let elem_size = match &bt {
                    Type::Ptr(elem) => self.g.sema.size_of(elem, e.line)?,
                    _ => WORD,
                };
                // Base address: pointers evaluate (load), arrays decay via
                // eval which yields their address.
                self.eval(base)?;
                self.asm.emit(Instr::Push(Reg::R0));
                self.eval(idx)?;
                let scratch = self.scratch();
                if elem_size > 1 {
                    self.asm.emit(Instr::MovRI32(scratch, elem_size as i32));
                    self.asm.emit(Instr::Bin(BinOp::Mul, Reg::R0, scratch));
                }
                self.asm.emit(Instr::MovRR(scratch, Reg::R0));
                self.asm.emit(Instr::Pop(Reg::R0));
                self.asm.emit(Instr::Bin(BinOp::Add, Reg::R0, scratch));
                Ok(())
            }
            ExprKind::Field(base, fname) => {
                let Type::Struct(sname) = self.g.sema.type_of(base, self)? else {
                    return Err(self.err(e.line, "`.` on non-struct"));
                };
                let (off, _) = self.field(&sname, fname, e.line)?;
                self.eval_lvalue(base)?;
                if off > 0 {
                    self.asm.emit(Instr::AddI(Reg::R0, off as i32));
                }
                Ok(())
            }
            ExprKind::PField(base, fname) => {
                let Type::Ptr(inner) = decay(self.g.sema.type_of(base, self)?) else {
                    return Err(self.err(e.line, "`->` on non-pointer"));
                };
                let Type::Struct(sname) = *inner else {
                    return Err(self.err(e.line, "`->` on non-struct-pointer"));
                };
                let (off, _) = self.field(&sname, fname, e.line)?;
                self.eval(base)?;
                if off > 0 {
                    self.asm.emit(Instr::AddI(Reg::R0, off as i32));
                }
                Ok(())
            }
            _ => Err(self.err(e.line, "expression is not an lvalue")),
        }
    }

    /// After `eval_lvalue` left an address in `r0`, load the value.
    fn load_from_address(&mut self, lv: &Expr, ty: &Type) {
        match ty {
            Type::Struct(_) | Type::Array(..) => {} // aggregates stay addresses
            Type::Byte if self.is_byte_memory(lv, ty) => {
                self.asm.emit(Instr::Ld8(Reg::R0, Reg::R0, 0))
            }
            _ => self.asm.emit(Instr::Ld(Reg::R0, Reg::R0, 0)),
        }
    }
}
