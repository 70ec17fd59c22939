//! PC-relative branch decoding.
//!
//! Run-pre matching must "verify that relative jumps in the run and the pre
//! code point to corresponding locations even though they use different
//! relative jump offsets" (paper §4.3). [`branch_info`] exposes, for any
//! instruction, whether it is a PC-relative control transfer, its kind and
//! condition, and the absolute target it denotes, whichever of the `rel8`
//! and `rel32` forms it uses; run-pre matching compares the kind and
//! condition and maps the targets through its own offset map.

use crate::instr::Instr;
use crate::{decode, Cond, DecodeError};

/// A decoded control transfer with a PC-relative target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// `None` for unconditional `jmp`, `Some` for a conditional jump.
    pub cond: Option<Cond>,
    /// True for `call`, false for jumps.
    pub is_call: bool,
    /// Absolute address of the branch target, given the instruction's own
    /// address.
    pub target: u64,
    /// Total instruction length.
    pub instr_len: usize,
}

/// If the instruction at `bytes[0]`, located at absolute address `addr`,
/// is a PC-relative control transfer, returns its decoded target.
pub fn branch_info(bytes: &[u8], addr: u64) -> Result<Option<BranchInfo>, DecodeError> {
    let (instr, len) = decode(bytes)?;
    let next = addr.wrapping_add(len as u64);
    let mk = |cond, is_call, rel: i64| {
        Some(BranchInfo {
            cond,
            is_call,
            target: next.wrapping_add(rel as u64),
            instr_len: len,
        })
    };
    Ok(match instr {
        Instr::Jmp8(r) => mk(None, false, r as i64),
        Instr::Jmp32(r) => mk(None, false, r as i64),
        Instr::Jcc8(c, r) => mk(Some(c), false, r as i64),
        Instr::Jcc32(c, r) => mk(Some(c), false, r as i64),
        Instr::Call32(r) => mk(None, true, r as i64),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instr;

    #[test]
    fn short_and_near_jump_same_target_are_equivalent() {
        // A jmp8 at address 100 with rel 10 targets 112 (100 + 2 + 10).
        let short = Instr::Jmp8(10).to_bytes();
        let a = branch_info(&short, 100).unwrap().unwrap();
        assert_eq!(a.target, 112);
        // A jmp32 at address 50 with rel 57 targets 112 (50 + 5 + 57).
        let near = Instr::Jmp32(57).to_bytes();
        let b = branch_info(&near, 50).unwrap().unwrap();
        assert_eq!(b.target, 112);
        assert_eq!((a.cond, a.is_call), (b.cond, b.is_call));
        assert_eq!((a.instr_len, b.instr_len), (2, 5));
    }

    #[test]
    fn different_condition_not_equivalent() {
        let x = Instr::Jcc8(Cond::Z, 0).to_bytes();
        let y = Instr::Jcc8(Cond::Nz, 0).to_bytes();
        let a = branch_info(&x, 0).unwrap().unwrap();
        let b = branch_info(&y, 0).unwrap().unwrap();
        assert_eq!((a.cond, b.cond), (Some(Cond::Z), Some(Cond::Nz)));
        assert_eq!(a.target, b.target);
    }

    #[test]
    fn call_vs_jump_not_equivalent() {
        let c = Instr::Call32(10).to_bytes();
        let j = Instr::Jmp32(10).to_bytes();
        let a = branch_info(&c, 0).unwrap().unwrap();
        let b = branch_info(&j, 0).unwrap().unwrap();
        assert_eq!(a.target, b.target);
        assert_eq!((a.cond, b.cond), (None, None));
        assert!(a.is_call && !b.is_call);
    }

    #[test]
    fn non_branches_have_no_info() {
        let m = Instr::MovRI32(crate::Reg::R0, 5).to_bytes();
        assert!(branch_info(&m, 0).unwrap().is_none());
        // Indirect calls are not PC-relative.
        let ic = Instr::CallR(crate::Reg::R3).to_bytes();
        assert!(branch_info(&ic, 0).unwrap().is_none());
    }

    #[test]
    fn negative_displacement_wraps_correctly() {
        let j = Instr::Jmp32(-10).to_bytes();
        let info = branch_info(&j, 100).unwrap().unwrap();
        assert_eq!(info.target, 95); // 100 + 5 - 10
    }
}
