//! The K64 instruction set.

use crate::Reg;

/// A branch condition, evaluated against the flags set by `Cmp`/`CmpI`.
///
/// The flags register holds two bits: `ZF` (operands were equal) and `LF`
/// (first operand was signed-less-than the second).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (`ZF`).
    Z,
    /// Not equal (`!ZF`).
    Nz,
    /// Signed less-than (`LF`).
    L,
    /// Signed less-or-equal (`LF || ZF`).
    Le,
    /// Signed greater-than (`!LF && !ZF`).
    G,
    /// Signed greater-or-equal (`!LF`).
    Ge,
}

impl Cond {
    /// All six conditions, in encoding order.
    pub const ALL: [Cond; 6] = [Cond::Z, Cond::Nz, Cond::L, Cond::Le, Cond::G, Cond::Ge];

    /// The encoding index of this condition (0–5).
    pub fn index(self) -> u8 {
        match self {
            Cond::Z => 0,
            Cond::Nz => 1,
            Cond::L => 2,
            Cond::Le => 3,
            Cond::G => 4,
            Cond::Ge => 5,
        }
    }

    /// The condition with the given encoding index, if in range.
    pub fn from_index(i: u8) -> Option<Cond> {
        Cond::ALL.get(i as usize).copied()
    }

    /// Evaluates the condition against flag bits.
    pub fn eval(self, zf: bool, lf: bool) -> bool {
        match self {
            Cond::Z => zf,
            Cond::Nz => !zf,
            Cond::L => lf,
            Cond::Le => lf || zf,
            Cond::G => !lf && !zf,
            Cond::Ge => !lf,
        }
    }

    /// The mnemonic suffix, e.g. `"z"` for [`Cond::Z`].
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Z => "z",
            Cond::Nz => "nz",
            Cond::L => "l",
            Cond::Le => "le",
            Cond::G => "g",
            Cond::Ge => "ge",
        }
    }
}

/// A binary arithmetic/logical operation on two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division; the VM traps on a zero divisor.
    Div,
    /// Signed remainder; the VM traps on a zero divisor.
    Mod,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl BinOp {
    /// All operations, in encoding order.
    pub const ALL: [BinOp; 10] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    /// The encoding index of this operation (0–9).
    pub fn index(self) -> u8 {
        BinOp::ALL.iter().position(|&b| b == self).unwrap() as u8
    }

    /// The operation with the given encoding index, if in range.
    pub fn from_index(i: u8) -> Option<BinOp> {
        BinOp::ALL.get(i as usize).copied()
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }
}

/// A single decoded K64 instruction.
///
/// Branch displacements (`rel8`/`rel32`) are relative to the start of the
/// *next* instruction, exactly like x86 short and near jumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Stop the machine (kernel idle/panic; 1 byte).
    Hlt,
    /// Return: pop the return address and jump to it (1 byte).
    Ret,
    /// Single-byte no-op, `0x90`.
    Nop1,
    /// Multi-byte canonical no-op of the given total length (2–9 bytes).
    NopN(u8),
    /// `dst = src` (2 bytes).
    MovRR(Reg, Reg),
    /// `dst = sign_extend(imm32)` (6 bytes).
    MovRI32(Reg, i32),
    /// `dst = imm64` (10 bytes); the form relocations target for absolute
    /// symbol addresses (`KsAbs64`).
    MovRI64(Reg, u64),
    /// `dst = *(u64*)(base + disp)` (6 bytes).
    Ld(Reg, Reg, i32),
    /// `*(u64*)(base + disp) = src` (6 bytes).
    St(Reg, Reg, i32),
    /// `dst = zero_extend(*(u8*)(base + disp))` (6 bytes).
    Ld8(Reg, Reg, i32),
    /// `*(u8*)(base + disp) = low_byte(src)` (6 bytes).
    St8(Reg, Reg, i32),
    /// `dst = base + disp` (6 bytes).
    Lea(Reg, Reg, i32),
    /// `dst = dst <op> src` (3 bytes).
    Bin(BinOp, Reg, Reg),
    /// `dst = dst + sign_extend(imm32)` (6 bytes).
    AddI(Reg, i32),
    /// `dst = -dst` (2 bytes).
    Neg(Reg),
    /// `dst = !dst` (bitwise; 2 bytes).
    Not(Reg),
    /// Compare two registers and set `ZF`/`LF` (2 bytes).
    Cmp(Reg, Reg),
    /// Compare a register against a sign-extended immediate (6 bytes).
    CmpI(Reg, i32),
    /// Unconditional short jump (2 bytes).
    Jmp8(i8),
    /// Unconditional near jump (5 bytes).
    Jmp32(i32),
    /// Conditional short jump (2 bytes).
    Jcc8(Cond, i8),
    /// Conditional near jump (5 bytes).
    Jcc32(Cond, i32),
    /// Near call: push return address, jump (5 bytes).
    Call32(i32),
    /// Indirect call through a register (2 bytes).
    CallR(Reg),
    /// Push a register onto the stack (2 bytes).
    Push(Reg),
    /// Pop the stack into a register (2 bytes).
    Pop(Reg),
    /// Software interrupt / syscall with an 8-bit vector (2 bytes).
    Int(u8),
}

impl Instr {
    /// The encoded length of this instruction in bytes.
    pub fn len(&self) -> usize {
        match self {
            Instr::Hlt | Instr::Ret | Instr::Nop1 => 1,
            Instr::NopN(n) => *n as usize,
            Instr::MovRR(..)
            | Instr::Neg(..)
            | Instr::Not(..)
            | Instr::Jmp8(..)
            | Instr::Jcc8(..)
            | Instr::CallR(..)
            | Instr::Push(..)
            | Instr::Pop(..)
            | Instr::Cmp(..)
            | Instr::Int(..) => 2,
            Instr::Bin(..) => 3,
            Instr::Jmp32(..) | Instr::Jcc32(..) | Instr::Call32(..) => 5,
            Instr::MovRI32(..) | Instr::AddI(..) | Instr::CmpI(..) => 6,
            Instr::Ld(..) | Instr::St(..) | Instr::Ld8(..) | Instr::St8(..) | Instr::Lea(..) => 6,
            Instr::MovRI64(..) => 10,
        }
    }

    /// True if this instruction is empty — never; provided for clippy parity
    /// with [`Instr::len`].
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_roundtrip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_index(c.index()), Some(c));
        }
        assert_eq!(Cond::from_index(6), None);
    }

    #[test]
    fn binop_roundtrip() {
        for b in BinOp::ALL {
            assert_eq!(BinOp::from_index(b.index()), Some(b));
        }
        assert_eq!(BinOp::from_index(10), None);
    }

    #[test]
    fn cond_eval_table() {
        // zf=true, lf=false: equal.
        assert!(Cond::Z.eval(true, false));
        assert!(Cond::Le.eval(true, false));
        assert!(Cond::Ge.eval(true, false));
        assert!(!Cond::L.eval(true, false));
        assert!(!Cond::G.eval(true, false));
        // zf=false, lf=true: less.
        assert!(Cond::L.eval(false, true));
        assert!(Cond::Le.eval(false, true));
        assert!(!Cond::Ge.eval(false, true));
        // zf=false, lf=false: greater.
        assert!(Cond::G.eval(false, false));
        assert!(Cond::Ge.eval(false, false));
        assert!(Cond::Nz.eval(false, false));
    }
}
