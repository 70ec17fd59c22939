//! K64: a synthetic, x86-flavoured instruction set architecture.
//!
//! Ksplice's run-pre matching (paper §4.3) requires three pieces of
//! architecture knowledge: the length of every instruction, which
//! instructions carry a PC-relative operand (and where in the encoding it
//! lives), and how to recognise the no-op sequences an assembler inserts
//! for code alignment. K64 is designed to exercise all three:
//!
//! * **Variable-length encoding.** Instructions are 1–10 bytes long and the
//!   length is determined by the leading opcode byte (plus one length byte
//!   for multi-byte no-ops), like x86.
//! * **Short and near branches.** Every jump exists in a `rel8` and a
//!   `rel32` form. A compiler is free to pick either form as long as the
//!   target matches, so byte-for-byte comparison of two compilations of the
//!   same source can differ in branch *form* while being semantically
//!   identical — exactly the situation §4.3 describes when
//!   `-ffunction-sections` turns small relative jumps into longer ones.
//! * **Canonical multi-byte no-ops.** `NOP1` is a single `0x90` byte; longer
//!   no-ops are a two-byte header plus padding, mirroring the efficient
//!   multi-byte nop sequences x86 assemblers emit for alignment.
//!
//! PC-relative offsets are relative to the *start of the next instruction*,
//! so the conventional relocation addend for a `rel32` field is `-4`,
//! matching the paper's worked example in §4.3.
//!
//! # Examples
//!
//! ```
//! use ksplice_asm::{Instr, Reg, decode};
//!
//! let mut bytes = Vec::new();
//! Instr::MovRI32(Reg::R0, 42).encode(&mut bytes);
//! Instr::Ret.encode(&mut bytes);
//! let (instr, len) = decode(&bytes).unwrap();
//! assert_eq!(instr, Instr::MovRI32(Reg::R0, 42));
//! assert_eq!(len, 6);
//! ```

mod asmbuilder;
mod branch;
mod decode;
mod encode;
mod instr;
mod nop;
mod predecode;
mod reg;

pub use asmbuilder::{AsmError, Assembled, Assembler, Label, PatchPoint};
pub use branch::{branch_info, BranchInfo};
pub use decode::{decode, decode_len, DecodeError};
pub use instr::{BinOp, Cond, Instr};
pub use nop::{nop_fill, nop_len_at, MAX_NOP_LEN};
pub use predecode::{ends_block, predecode_block};
pub use reg::Reg;

/// Width, in bytes, of a `rel32` PC-relative operand.
pub const REL32_WIDTH: usize = 4;

/// Conventional relocation addend for a `rel32` branch operand.
///
/// The stored field is `S + A - P` where `P` is the address of the field
/// itself; because K64 branches are relative to the start of the *next*
/// instruction and the field is the final four bytes of the instruction,
/// the addend is `-4` (paper §4.3, footnote 2).
pub const REL32_ADDEND: i64 = -4;
