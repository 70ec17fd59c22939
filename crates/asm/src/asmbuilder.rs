//! A small label-based assembler.
//!
//! The `kc` compiler's code generator and Ksplice's trampoline writer both
//! emit K64 code with forward references. The [`Assembler`] collects
//! instructions, local-label branches, alignment directives, and *patch
//! points* (bytes to be fixed up later by a linker relocation), then
//! resolves everything in [`Assembler::finish`].
//!
//! Branch *relaxation* is where the rel8/rel32 freedom enters: with
//! relaxation enabled the assembler picks the short `rel8` form whenever
//! the displacement fits, growing branches to `rel32` only as needed —
//! so the same instruction stream assembled at different distances can
//! legitimately produce different bytes (paper §4.3).

use std::collections::HashMap;
use std::fmt;

use crate::instr::Instr;
use crate::nop::nop_fill;
use crate::Cond;

/// A local code label; create with [`Assembler::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A location in the emitted code that a linker must later patch with a
/// symbol address (an unresolved relocation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchPoint {
    /// Byte offset of the to-be-patched field from the start of the code.
    pub offset: usize,
    /// Field width in bytes (4 or 8).
    pub width: usize,
    /// Symbol name the field refers to.
    pub name: String,
    /// Relocation addend.
    pub addend: i64,
    /// True if the stored value is PC-relative (`S + A − P`), false if
    /// absolute (`S + A`).
    pub pcrel: bool,
}

/// Errors from assembling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A branch referenced a label that was never bound.
    UnboundLabel(usize),
    /// A label was bound twice.
    Rebound(usize),
    /// A relaxed branch displacement overflowed `i32`.
    DisplacementOverflow,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(i) => write!(f, "label {i} referenced but never bound"),
            AsmError::Rebound(i) => write!(f, "label {i} bound twice"),
            AsmError::DisplacementOverflow => write!(f, "branch displacement exceeds 32 bits"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
enum Item {
    /// A fully-encoded instruction.
    Fixed(Instr),
    /// A relaxable branch to a local label (`None` = unconditional).
    Branch { cond: Option<Cond>, label: Label },
    /// A call to a local label (always `rel32`).
    CallLabel(Label),
    /// An instruction one of whose fields a linker must patch later.
    Patched {
        instr: Instr,
        field_offset: usize,
        width: usize,
        name: String,
        addend: i64,
        pcrel: bool,
    },
    /// Bind a label at the current position.
    Bind(Label),
    /// Pad with canonical no-ops to the given power-of-two alignment.
    Align(u32),
}

/// The finished output of assembly: code bytes, unresolved patch points,
/// and resolved label offsets.
#[derive(Debug, Clone)]
pub struct Assembled {
    /// Final machine code.
    pub code: Vec<u8>,
    /// Linker patch points, in offset order.
    pub patches: Vec<PatchPoint>,
    /// Byte offset of every bound label.
    pub label_offsets: HashMap<Label, usize>,
}

/// Incremental assembler; see the module docs.
#[derive(Debug, Default)]
pub struct Assembler {
    items: Vec<Item>,
    next_label: usize,
    relax: bool,
}

impl Assembler {
    /// Creates an assembler that always emits `rel32` branch forms.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Creates an assembler with branch relaxation enabled: branches use
    /// the short `rel8` form whenever the displacement fits.
    pub fn new_relaxed() -> Assembler {
        Assembler {
            relax: true,
            ..Assembler::default()
        }
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        self.items.push(Item::Bind(label));
    }

    /// Emits a fixed instruction.
    pub fn emit(&mut self, instr: Instr) {
        self.items.push(Item::Fixed(instr));
    }

    /// Emits an unconditional jump to a local label.
    pub fn jmp(&mut self, label: Label) {
        self.items.push(Item::Branch { cond: None, label });
    }

    /// Emits a conditional jump to a local label.
    pub fn jcc(&mut self, cond: Cond, label: Label) {
        self.items.push(Item::Branch {
            cond: Some(cond),
            label,
        });
    }

    /// Emits a call to a local label.
    pub fn call_label(&mut self, label: Label) {
        self.items.push(Item::CallLabel(label));
    }

    /// Emits `instr` and records that the `width`-byte field at
    /// `field_offset` within it must be patched with the address of
    /// `name` (plus `addend`; PC-relative if `pcrel`).
    pub fn emit_patched(
        &mut self,
        instr: Instr,
        field_offset: usize,
        width: usize,
        name: &str,
        addend: i64,
        pcrel: bool,
    ) {
        self.items.push(Item::Patched {
            instr,
            field_offset,
            width,
            name: name.to_string(),
            addend,
            pcrel,
        });
    }

    /// Pads with canonical no-ops to a power-of-two `alignment`.
    pub fn align(&mut self, alignment: u32) {
        debug_assert!(alignment.is_power_of_two());
        self.items.push(Item::Align(alignment));
    }

    /// Resolves labels (relaxing branches if enabled) and produces the
    /// final code.
    pub fn finish(self) -> Result<Assembled, AsmError> {
        // Phase 1: decide each branch's form, iterating to a fixpoint.
        // Branches start short (when relaxing) and only ever grow, so the
        // loop terminates.
        let branch_count = self
            .items
            .iter()
            .filter(|i| matches!(i, Item::Branch { .. }))
            .count();
        let mut long = vec![!self.relax; branch_count];
        let (offsets, labels) = loop {
            let (offsets, labels, grew) = self.layout(&long)?;
            if !grew.iter().any(|&g| g) {
                break (offsets, labels);
            }
            for (l, g) in long.iter_mut().zip(&grew) {
                *l |= *g;
            }
        };

        // Phase 2: emit.
        let mut code = Vec::new();
        let mut patches = Vec::new();
        let mut branch_idx = 0usize;
        for (item, &start) in self.items.iter().zip(&offsets) {
            debug_assert_eq!(code.len(), start);
            match item {
                Item::Fixed(i) => i.encode(&mut code),
                Item::Bind(_) => {}
                Item::Align(a) => {
                    let a = *a as usize;
                    let pad = (a - code.len() % a) % a;
                    nop_fill(&mut code, pad);
                }
                Item::Branch { cond, label } => {
                    let target = *labels.get(label).ok_or(AsmError::UnboundLabel(label.0))?;
                    let is_long = long[branch_idx];
                    branch_idx += 1;
                    let len = branch_len(cond.is_some(), is_long);
                    let rel = target as i64 - (start + len) as i64;
                    let instr = if is_long {
                        let rel = i32::try_from(rel).map_err(|_| AsmError::DisplacementOverflow)?;
                        match cond {
                            None => Instr::Jmp32(rel),
                            Some(c) => Instr::Jcc32(*c, rel),
                        }
                    } else {
                        let rel = i8::try_from(rel).expect("short branch fits by construction");
                        match cond {
                            None => Instr::Jmp8(rel),
                            Some(c) => Instr::Jcc8(*c, rel),
                        }
                    };
                    instr.encode(&mut code);
                }
                Item::CallLabel(label) => {
                    let target = *labels.get(label).ok_or(AsmError::UnboundLabel(label.0))?;
                    let rel = target as i64 - (start + 5) as i64;
                    let rel = i32::try_from(rel).map_err(|_| AsmError::DisplacementOverflow)?;
                    Instr::Call32(rel).encode(&mut code);
                }
                Item::Patched {
                    instr,
                    field_offset,
                    width,
                    name,
                    addend,
                    pcrel,
                } => {
                    patches.push(PatchPoint {
                        offset: start + field_offset,
                        width: *width,
                        name: name.clone(),
                        addend: *addend,
                        pcrel: *pcrel,
                    });
                    instr.encode(&mut code);
                }
            }
        }
        Ok(Assembled {
            code,
            patches,
            label_offsets: labels,
        })
    }

    /// Computes the offset of every item given the current branch forms.
    /// Returns per-branch "must grow" flags for short branches whose
    /// displacement does not fit in `i8`.
    #[allow(clippy::type_complexity)]
    fn layout(
        &self,
        long: &[bool],
    ) -> Result<(Vec<usize>, HashMap<Label, usize>, Vec<bool>), AsmError> {
        let mut offsets = Vec::with_capacity(self.items.len());
        let mut labels: HashMap<Label, usize> = HashMap::new();
        let mut pos = 0usize;
        let mut branch_idx = 0usize;
        for item in &self.items {
            offsets.push(pos);
            match item {
                Item::Fixed(i) => pos += i.len(),
                Item::Bind(l) => {
                    if labels.insert(*l, pos).is_some() {
                        return Err(AsmError::Rebound(l.0));
                    }
                }
                Item::Align(a) => {
                    let a = *a as usize;
                    pos += (a - pos % a) % a;
                }
                Item::Branch { cond, .. } => {
                    pos += branch_len(cond.is_some(), long[branch_idx]);
                    branch_idx += 1;
                }
                Item::CallLabel(_) => pos += 5,
                Item::Patched { instr, .. } => pos += instr.len(),
            }
        }
        // Check which short branches fit.
        let mut grew = vec![false; long.len()];
        let mut branch_idx = 0usize;
        for (item, &start) in self.items.iter().zip(&offsets) {
            if let Item::Branch { cond, label } = item {
                let idx = branch_idx;
                branch_idx += 1;
                if long[idx] {
                    continue;
                }
                let target = *labels.get(label).ok_or(AsmError::UnboundLabel(label.0))?;
                let len = branch_len(cond.is_some(), false);
                let rel = target as i64 - (start + len) as i64;
                if i8::try_from(rel).is_err() {
                    grew[idx] = true;
                }
            }
        }
        Ok((offsets, labels, grew))
    }
}

fn branch_len(_conditional: bool, long: bool) -> usize {
    if long {
        5
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_all, Reg};

    fn decode_stream(code: &[u8]) -> Vec<Instr> {
        decode_all(code).expect("assembled code must decode")
    }

    #[test]
    fn forward_branch_resolves() {
        let mut a = Assembler::new();
        let end = a.new_label();
        a.emit(Instr::MovRI32(Reg::R0, 1));
        a.jmp(end);
        a.emit(Instr::MovRI32(Reg::R0, 2));
        a.bind(end);
        a.emit(Instr::Ret);
        let out = a.finish().unwrap();
        let instrs = decode_stream(&out.code);
        // Non-relaxed: rel32 jump over the 6-byte mov.
        assert_eq!(instrs[1], Instr::Jmp32(6));
    }

    #[test]
    fn relaxed_short_branch() {
        let mut a = Assembler::new_relaxed();
        let end = a.new_label();
        a.jmp(end);
        a.emit(Instr::Nop1);
        a.bind(end);
        a.emit(Instr::Ret);
        let out = a.finish().unwrap();
        assert_eq!(decode_stream(&out.code)[0], Instr::Jmp8(1));
    }

    #[test]
    fn relaxed_branch_grows_when_needed() {
        let mut a = Assembler::new_relaxed();
        let end = a.new_label();
        a.jmp(end);
        for _ in 0..40 {
            a.emit(Instr::MovRI32(Reg::R0, 0)); // 240 bytes, too far for rel8
        }
        a.bind(end);
        a.emit(Instr::Ret);
        let out = a.finish().unwrap();
        assert_eq!(decode_stream(&out.code)[0], Instr::Jmp32(240));
    }

    #[test]
    fn backward_branch() {
        let mut a = Assembler::new_relaxed();
        let top = a.new_label();
        a.bind(top);
        a.emit(Instr::Nop1);
        a.jmp(top);
        let out = a.finish().unwrap();
        // jmp.s encoded at offset 1, next instruction at 3, target 0.
        assert_eq!(decode_stream(&out.code)[1], Instr::Jmp8(-3));
    }

    #[test]
    fn unbound_label_errors() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.jmp(l);
        assert!(matches!(a.finish(), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn rebound_label_errors() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.bind(l);
        a.bind(l);
        assert!(matches!(a.finish(), Err(AsmError::Rebound(_))));
    }

    #[test]
    fn alignment_pads_with_canonical_nops() {
        let mut a = Assembler::new();
        a.emit(Instr::Ret); // 1 byte
        a.align(16);
        let l = a.new_label();
        a.bind(l);
        a.emit(Instr::Hlt);
        let out = a.finish().unwrap();
        assert_eq!(out.label_offsets[&l], 16);
        assert_eq!(crate::nop::nop_run_len(&out.code, 1), 15);
    }

    #[test]
    fn patch_points_track_relaxation_shifts() {
        let mut a = Assembler::new_relaxed();
        let end = a.new_label();
        a.jmp(end); // 2 bytes when relaxed
        a.bind(end);
        a.emit_patched(Instr::Call32(0), 1, 4, "ext_fn", -4, true);
        let out = a.finish().unwrap();
        assert_eq!(out.patches.len(), 1);
        // Field begins after the 2-byte short jump plus the call opcode.
        assert_eq!(out.patches[0].offset, 3);
        assert_eq!(out.patches[0].name, "ext_fn");
        assert!(out.patches[0].pcrel);
    }

    #[test]
    fn call_label_is_always_rel32() {
        let mut a = Assembler::new_relaxed();
        let f = a.new_label();
        a.call_label(f);
        a.bind(f);
        a.emit(Instr::Ret);
        let out = a.finish().unwrap();
        assert_eq!(decode_stream(&out.code)[0], Instr::Call32(0));
    }
}
