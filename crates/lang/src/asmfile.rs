//! `.ks` assembly units.
//!
//! The Linux kernel contains pure assembly files, and security patches
//! touch them — the paper's closing example is CVE-2007-4573, a patch to
//! `ia32entry.S`, which Ksplice "handles using the same techniques and
//! code that handle patches to pure C functions" (§6.3). `.ks` files give
//! the simulated kernel the same property: textual K64 assembly compiled
//! through the same object pipeline, honouring `-ffunction-sections`.
//!
//! Syntax (line-oriented; `;`, `#` and `//` start comments):
//!
//! ```text
//! .global entry_32          ; export the next label
//! entry_32:                 ; non-.L labels define function symbols
//!     mov   r1, 42
//!     movabs r2, jiffies    ; symbol operand → Abs64 relocation
//!     ld    r3, [r2+0]
//!     cmpi  r3, 0
//!     jz    .Lout           ; .L labels are block-local
//!     call  do_work         ; external or cross-block → Pcrel32 reloc
//! .Lout:
//!     ret
//! ```
//!
//! Under function-sections each non-local label opens a fresh
//! `.text.<label>` section (so the differ sees per-function granularity
//! in assembly too); without it the whole file is one `.text`.

use ksplice_asm::{Assembler, BinOp, Cond, Instr, Label, Reg, REL32_ADDEND};
use ksplice_object::Object;
use std::collections::BTreeMap;

use crate::codegen::{assemble_text, place_text, TextFn};
use crate::{CompileError, Options};

/// One maximal run of code under a single non-local label.
struct Block {
    name: String,
    global: bool,
    lines: Vec<(u32, String)>,
}

/// Assembles a `.ks` unit into an object.
pub fn assemble_unit(name: &str, src: &str, opt: &Options) -> Result<Object, CompileError> {
    let err = |line: u32, msg: String| CompileError::new(name, line, msg);
    // Split into labelled blocks.
    let mut blocks: Vec<Block> = Vec::new();
    let mut pending_globals: Vec<String> = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno as u32 + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".global") {
            pending_globals.push(rest.trim().to_string());
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            let label = label.trim();
            if label.starts_with(".L") {
                // Local label: belongs to the current block.
                let block = blocks
                    .last_mut()
                    .ok_or_else(|| err(lineno, "local label before any function label".into()))?;
                block.lines.push((lineno, format!("{label}:")));
            } else {
                let global = pending_globals.iter().any(|g| g == label);
                blocks.push(Block {
                    name: label.to_string(),
                    global,
                    lines: Vec::new(),
                });
            }
            continue;
        }
        let block = blocks
            .last_mut()
            .ok_or_else(|| err(lineno, "instruction before any label".into()))?;
        block.lines.push((lineno, line));
    }
    for g in &pending_globals {
        if !blocks.iter().any(|b| b.name == *g) {
            return Err(err(0, format!(".global for unknown label `{g}`")));
        }
    }

    let funcs: Vec<TextFn> = blocks
        .iter()
        .map(|b| TextFn {
            name: &b.name,
            global: b.global,
            line: 0,
        })
        .collect();
    let text = assemble_text(name, &funcs, opt, 16, |i, asm, entries| {
        emit_block_into(name, &blocks[i], asm, entries)
    })?;
    let mut obj = Object::new(name);
    place_text(&mut obj, text);
    obj.validate()
        .map_err(|e| err(0, format!("internal: invalid object: {e}")))?;
    Ok(obj)
}

/// Emits a block's instructions into `asm`. `entries` maps same-unit
/// function labels (monolithic mode) for assembly-time call resolution.
fn emit_block_into(
    unit: &str,
    block: &Block,
    asm: &mut Assembler,
    entries: &BTreeMap<String, Label>,
) -> Result<(), CompileError> {
    // Collect local labels first.
    let mut locals: BTreeMap<String, Label> = BTreeMap::new();
    for (_, line) in &block.lines {
        if let Some(l) = line.strip_suffix(':') {
            locals.insert(l.to_string(), asm.new_label());
        }
    }
    for (lineno, line) in &block.lines {
        let err = |msg: String| CompileError::new(unit, *lineno, msg);
        if let Some(l) = line.strip_suffix(':') {
            asm.bind(locals[l]);
            continue;
        }
        let (mn, rest) = line
            .split_once(char::is_whitespace)
            .map(|(a, b)| (a, b.trim()))
            .unwrap_or((line.as_str(), ""));
        let ops: Vec<String> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(|s| s.trim().to_string()).collect()
        };
        match mn {
            "ret" => asm.emit(Instr::Ret),
            "hlt" => asm.emit(Instr::Hlt),
            "nop" => asm.emit(Instr::Nop1),
            "mov" => {
                let d = reg(&ops, 0).ok_or_else(|| err("mov needs a register".into()))?;
                if let Some(s) = reg(&ops, 1) {
                    asm.emit(Instr::MovRR(d, s));
                } else {
                    let imm: i64 = int(&ops, 1).ok_or_else(|| err("bad mov operand".into()))?;
                    let imm32 = i32::try_from(imm)
                        .map_err(|_| err("mov imm too large; use movabs".into()))?;
                    asm.emit(Instr::MovRI32(d, imm32));
                }
            }
            "movabs" => {
                let d = reg(&ops, 0).ok_or_else(|| err("movabs needs a register".into()))?;
                match int(&ops, 1) {
                    Some(v) => asm.emit(Instr::MovRI64(d, v as u64)),
                    None => {
                        let sym = ops
                            .get(1)
                            .ok_or_else(|| err("movabs needs an operand".into()))?;
                        asm.emit_patched(Instr::MovRI64(d, 0), 2, 8, sym, 0, false);
                    }
                }
            }
            "ld" | "st" | "ld8" | "st8" | "lea" => {
                emit_mem(asm, mn, &ops).map_err(err)?;
            }
            "add" | "sub" | "mul" | "div" | "mod" | "and" | "or" | "xor" | "shl" | "shr" => {
                let op = BinOp::ALL
                    .iter()
                    .find(|b| b.mnemonic() == mn)
                    .copied()
                    .expect("mnemonic table covers arm");
                let d = reg(&ops, 0).ok_or_else(|| err("needs registers".into()))?;
                let s = reg(&ops, 1).ok_or_else(|| err("needs registers".into()))?;
                asm.emit(Instr::Bin(op, d, s));
            }
            "addi" => {
                let d = reg(&ops, 0).ok_or_else(|| err("addi needs a register".into()))?;
                let imm = int(&ops, 1).ok_or_else(|| err("addi needs an immediate".into()))?;
                asm.emit(Instr::AddI(d, imm as i32));
            }
            "neg" => asm.emit(Instr::Neg(
                reg(&ops, 0).ok_or_else(|| err("neg reg".into()))?,
            )),
            "not" => asm.emit(Instr::Not(
                reg(&ops, 0).ok_or_else(|| err("not reg".into()))?,
            )),
            "cmp" => {
                let a = reg(&ops, 0).ok_or_else(|| err("cmp regs".into()))?;
                let b = reg(&ops, 1).ok_or_else(|| err("cmp regs".into()))?;
                asm.emit(Instr::Cmp(a, b));
            }
            "cmpi" => {
                let a = reg(&ops, 0).ok_or_else(|| err("cmpi reg".into()))?;
                let imm = int(&ops, 1).ok_or_else(|| err("cmpi imm".into()))?;
                asm.emit(Instr::CmpI(a, imm as i32));
            }
            "push" => asm.emit(Instr::Push(
                reg(&ops, 0).ok_or_else(|| err("push reg".into()))?,
            )),
            "pop" => asm.emit(Instr::Pop(
                reg(&ops, 0).ok_or_else(|| err("pop reg".into()))?,
            )),
            "int" => {
                let v = int(&ops, 0).ok_or_else(|| err("int vector".into()))?;
                asm.emit(Instr::Int(v as u8));
            }
            "jmp" | "jz" | "jnz" | "jl" | "jle" | "jg" | "jge" => {
                let target = ops
                    .first()
                    .ok_or_else(|| err("jump needs a target".into()))?;
                let cond = match mn {
                    "jmp" => None,
                    other => Some(
                        Cond::ALL
                            .iter()
                            .find(|c| format!("j{}", c.mnemonic()) == other)
                            .copied()
                            .expect("mnemonic arm covers conditions"),
                    ),
                };
                if let Some(&l) = locals.get(target) {
                    match cond {
                        None => asm.jmp(l),
                        Some(c) => asm.jcc(c, l),
                    }
                } else if let Some(&l) = entries.get(target) {
                    // Cross-function jump within the monolithic unit.
                    match cond {
                        None => asm.jmp(l),
                        Some(c) => asm.jcc(c, l),
                    }
                } else {
                    // Cross-section/external jump: rel32 relocation. Only
                    // unconditional form supported symbolically.
                    match cond {
                        None => asm.emit_patched(Instr::Jmp32(0), 1, 4, target, REL32_ADDEND, true),
                        Some(_) => return Err(err("conditional jump to external symbol".into())),
                    }
                }
            }
            "call" => {
                let target = ops
                    .first()
                    .ok_or_else(|| err("call needs a target".into()))?;
                if let Some(r) = parse_reg(target) {
                    asm.emit(Instr::CallR(r));
                } else if let Some(&l) = entries.get(target) {
                    asm.call_label(l);
                } else if let Some(&l) = locals.get(target) {
                    asm.call_label(l);
                } else {
                    asm.emit_patched(Instr::Call32(0), 1, 4, target, REL32_ADDEND, true);
                }
            }
            ".align" => {
                let n = int(&ops, 0)
                    .or_else(|| rest.parse::<i64>().ok())
                    .ok_or_else(|| err(".align needs a power of two".into()))?;
                asm.align(n as u32);
            }
            other => return Err(err(format!("unknown mnemonic `{other}`"))),
        }
    }
    Ok(())
}

fn emit_mem(asm: &mut Assembler, mn: &str, ops: &[String]) -> Result<(), String> {
    // ld d, [b+disp] / st [b+disp], s / lea d, [b+disp]
    let (reg_idx, mem_idx) = if mn.starts_with("st") { (1, 0) } else { (0, 1) };
    let r = reg(ops, reg_idx).ok_or("memory op needs a register")?;
    let mem = ops.get(mem_idx).ok_or("memory op needs an address")?;
    let inner = mem
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or("address must be [reg+disp]")?;
    let (base_s, disp) = match inner.find(['+', '-']) {
        Some(i) if i > 0 => {
            let (b, d) = inner.split_at(i);
            (b.trim(), parse_int(d.trim()).ok_or("bad displacement")?)
        }
        _ => (inner.trim(), 0),
    };
    let base = parse_reg(base_s).ok_or("bad base register")?;
    let disp = disp as i32;
    let instr = match mn {
        "ld" => Instr::Ld(r, base, disp),
        "st" => Instr::St(base, r, disp),
        "ld8" => Instr::Ld8(r, base, disp),
        "st8" => Instr::St8(base, r, disp),
        "lea" => Instr::Lea(r, base, disp),
        _ => unreachable!("caller matched mnemonic"),
    };
    asm.emit(instr);
    Ok(())
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for pat in [";", "#", "//"] {
        if let Some(i) = line.find(pat) {
            end = end.min(i);
        }
    }
    &line[..end]
}

fn parse_reg(s: &str) -> Option<Reg> {
    match s {
        "fp" => return Some(Reg::FP),
        "sp" => return Some(Reg::SP),
        _ => {}
    }
    let n: u8 = s.strip_prefix('r')?.parse().ok()?;
    if n < 16 {
        Some(Reg::from_nibble(n))
    } else {
        None
    }
}

fn reg(ops: &[String], i: usize) -> Option<Reg> {
    ops.get(i).and_then(|s| parse_reg(s))
}

fn parse_int(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let body = body.strip_prefix('+').unwrap_or(body);
    let v = if let Some(hex) = body.strip_prefix("0x") {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn int(ops: &[String], i: usize) -> Option<i64> {
    ops.get(i).and_then(|s| parse_int(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksplice_object::{Binding, RelocKind};

    const ENTRY: &str = "\
.global entry_32
entry_32:
    push fp
    mov fp, sp
    cmpi r1, 0
    jz .Lout
    call do_syscall
.Lout:
    mov sp, fp
    pop fp
    ret
helper:
    movabs r0, jiffies
    ld r0, [r0+0]
    ret
";

    #[test]
    fn function_sections_split_blocks() {
        let obj = assemble_unit("arch/entry.ks", ENTRY, &Options::pre_post()).unwrap();
        assert!(obj.section_by_name(".text.entry_32").is_some());
        assert!(obj.section_by_name(".text.helper").is_some());
        // entry_32 is global, helper local.
        let (_, e) = obj.symbol_by_name("entry_32").unwrap();
        assert_eq!(e.binding, Binding::Global);
        let (_, h) = obj.symbol_by_name("helper").unwrap();
        assert_eq!(h.binding, Binding::Local);
        // The call to do_syscall became a Pcrel32 reloc; jiffies an Abs64.
        let (_, esec) = obj.section_by_name(".text.entry_32").unwrap();
        assert_eq!(esec.relocs.len(), 1);
        assert_eq!(esec.relocs[0].kind, RelocKind::Pcrel32);
        let (_, hsec) = obj.section_by_name(".text.helper").unwrap();
        assert_eq!(hsec.relocs[0].kind, RelocKind::Abs64);
    }

    #[test]
    fn monolithic_single_text() {
        let obj = assemble_unit("arch/entry.ks", ENTRY, &Options::distro()).unwrap();
        assert!(obj.section_by_name(".text").is_some());
        assert!(obj.symbol_by_name("entry_32").is_some());
        assert!(obj.symbol_by_name("helper").is_some());
    }

    #[test]
    fn local_labels_resolve_without_relocs() {
        let src =
            ".global f\nf:\n    cmpi r1, 5\n    jle .Ldone\n    mov r0, 1\n.Ldone:\n    ret\n";
        let obj = assemble_unit("a.ks", src, &Options::pre_post()).unwrap();
        let (_, sec) = obj.section_by_name(".text.f").unwrap();
        assert!(sec.relocs.is_empty());
    }

    #[test]
    fn errors_are_positioned() {
        let e = assemble_unit("a.ks", "f:\n    bogus r1\n", &Options::distro()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = assemble_unit("a.ks", "    mov r0, 1\n", &Options::distro()).unwrap_err();
        assert!(e.message.contains("before any label"));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let src = "f:\n    mov r0, 0x10\n    addi sp, -16\n    ret\n";
        let obj = assemble_unit("a.ks", src, &Options::distro()).unwrap();
        assert!(obj.section_by_name(".text").is_some());
    }
}
