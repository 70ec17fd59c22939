//! Decoding K64 machine code back into instructions.

use std::fmt;

use crate::encode::*;
use crate::instr::{BinOp, Instr};
use crate::{Cond, Reg};

/// An error produced while decoding machine code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended in the middle of an instruction.
    Truncated,
    /// The leading byte is not a defined opcode.
    BadOpcode(u8),
    /// A `nopN` header carried an out-of-range length byte.
    BadNopLength(u8),
    /// A binary-op instruction carried an out-of-range operation index.
    BadBinOp(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "byte stream truncated mid-instruction"),
            DecodeError::BadOpcode(b) => write!(f, "undefined opcode {b:#04x}"),
            DecodeError::BadNopLength(n) => write!(f, "nopN length {n} outside 2..=9"),
            DecodeError::BadBinOp(i) => write!(f, "binary-op index {i} outside 0..=9"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Returns the length in bytes of the instruction starting at `bytes[0]`,
/// without fully decoding it.
///
/// Run-pre matching uses this to walk the pre code instruction by
/// instruction (paper §4.3: the matcher "must know basic information about
/// the instruction set, such as the lengths of all instructions").
pub fn decode_len(bytes: &[u8]) -> Result<usize, DecodeError> {
    let &op = bytes.first().ok_or(DecodeError::Truncated)?;
    let len = match op {
        OP_HLT | OP_RET | OP_NOP1 => 1,
        OP_NOPN => {
            let &n = bytes.get(1).ok_or(DecodeError::Truncated)?;
            if !(2..=9).contains(&n) {
                return Err(DecodeError::BadNopLength(n));
            }
            n as usize
        }
        OP_MOVRR | OP_NEG | OP_NOT | OP_CMP | OP_JMP8 | OP_CALLR | OP_PUSH | OP_POP | OP_INT => 2,
        op if (OP_JCC8_BASE..OP_JCC8_BASE + 6).contains(&op) => 2,
        OP_BIN => 3,
        OP_JMP32 | OP_CALL32 => 5,
        op if (OP_JCC32_BASE..OP_JCC32_BASE + 6).contains(&op) => 5,
        OP_MOVRI32 | OP_ADDI | OP_CMPI | OP_LD | OP_ST | OP_LD8 | OP_ST8 | OP_LEA => 6,
        OP_MOVRI64 => 10,
        other => return Err(DecodeError::BadOpcode(other)),
    };
    if bytes.len() < len {
        return Err(DecodeError::Truncated);
    }
    Ok(len)
}

fn take_i32(bytes: &[u8], at: usize) -> Result<i32, DecodeError> {
    let b: [u8; 4] = bytes
        .get(at..at + 4)
        .ok_or(DecodeError::Truncated)?
        .try_into()
        .expect("slice length checked");
    Ok(i32::from_le_bytes(b))
}

/// Decodes the instruction starting at `bytes[0]`, returning it and its
/// encoded length.
pub fn decode(bytes: &[u8]) -> Result<(Instr, usize), DecodeError> {
    let len = decode_len(bytes)?;
    let op = bytes[0];
    let rb = |i: usize| -> (Reg, Reg) {
        let b = bytes[i];
        (Reg::from_nibble(b >> 4), Reg::from_nibble(b))
    };
    let instr = match op {
        OP_HLT => Instr::Hlt,
        OP_RET => Instr::Ret,
        OP_NOP1 => Instr::Nop1,
        OP_NOPN => Instr::NopN(bytes[1]),
        OP_MOVRR => {
            let (d, s) = rb(1);
            Instr::MovRR(d, s)
        }
        OP_MOVRI32 => Instr::MovRI32(rb(1).0, take_i32(bytes, 2)?),
        OP_MOVRI64 => {
            let imm: [u8; 8] = bytes[2..10].try_into().expect("length checked");
            Instr::MovRI64(rb(1).0, u64::from_le_bytes(imm))
        }
        OP_LD => {
            let (d, b) = rb(1);
            Instr::Ld(d, b, take_i32(bytes, 2)?)
        }
        OP_ST => {
            let (b, s) = rb(1);
            Instr::St(b, s, take_i32(bytes, 2)?)
        }
        OP_LD8 => {
            let (d, b) = rb(1);
            Instr::Ld8(d, b, take_i32(bytes, 2)?)
        }
        OP_ST8 => {
            let (b, s) = rb(1);
            Instr::St8(b, s, take_i32(bytes, 2)?)
        }
        OP_LEA => {
            let (d, b) = rb(1);
            Instr::Lea(d, b, take_i32(bytes, 2)?)
        }
        OP_BIN => {
            let bop = BinOp::from_index(bytes[1]).ok_or(DecodeError::BadBinOp(bytes[1]))?;
            let (d, s) = rb(2);
            Instr::Bin(bop, d, s)
        }
        OP_ADDI => Instr::AddI(rb(1).0, take_i32(bytes, 2)?),
        OP_NEG => Instr::Neg(rb(1).0),
        OP_NOT => Instr::Not(rb(1).0),
        OP_CMP => {
            let (a, b) = rb(1);
            Instr::Cmp(a, b)
        }
        OP_CMPI => Instr::CmpI(rb(1).0, take_i32(bytes, 2)?),
        OP_JMP8 => Instr::Jmp8(bytes[1] as i8),
        OP_JMP32 => Instr::Jmp32(take_i32(bytes, 1)?),
        op if (OP_JCC8_BASE..OP_JCC8_BASE + 6).contains(&op) => {
            let c = Cond::from_index(op - OP_JCC8_BASE).expect("range checked");
            Instr::Jcc8(c, bytes[1] as i8)
        }
        op if (OP_JCC32_BASE..OP_JCC32_BASE + 6).contains(&op) => {
            let c = Cond::from_index(op - OP_JCC32_BASE).expect("range checked");
            Instr::Jcc32(c, take_i32(bytes, 1)?)
        }
        OP_CALL32 => Instr::Call32(take_i32(bytes, 1)?),
        OP_CALLR => Instr::CallR(rb(1).0),
        OP_PUSH => Instr::Push(rb(1).0),
        OP_POP => Instr::Pop(rb(1).0),
        OP_INT => Instr::Int(bytes[1]),
        other => return Err(DecodeError::BadOpcode(other)),
    };
    Ok((instr, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_stream() {
        assert_eq!(decode_len(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode_len(&[OP_MOVRI64, 0x00]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[OP_JMP32, 1, 2]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_opcode() {
        assert_eq!(decode_len(&[0xff]), Err(DecodeError::BadOpcode(0xff)));
    }

    #[test]
    fn bad_nop() {
        assert_eq!(decode_len(&[OP_NOPN, 1]), Err(DecodeError::BadNopLength(1)));
        assert_eq!(
            decode_len(&[OP_NOPN, 10]),
            Err(DecodeError::BadNopLength(10))
        );
    }

    #[test]
    fn bad_binop_index() {
        let bytes = [OP_BIN, 99, 0x01];
        assert_eq!(decode(&bytes), Err(DecodeError::BadBinOp(99)));
    }
}
