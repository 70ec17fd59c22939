//! Canonical no-op sequences.
//!
//! Assemblers insert efficient multi-byte no-op sequences to align code.
//! Run-pre matching "needs to be able to recognize these sequences so that
//! they can be skipped during the run-pre matching process" (paper §4.3).

use crate::encode::{OP_NOP1, OP_NOPN};
use crate::instr::Instr;

/// The longest single canonical no-op instruction, in bytes.
pub const MAX_NOP_LEN: usize = 9;

/// If the bytes at `code[at..]` begin with a canonical no-op instruction,
/// returns its length; otherwise `None`.
///
/// Only *canonical* no-ops are recognised: the single-byte `0x90` and the
/// `nopN` form whose padding bytes are all zero. A `nopN` with non-zero
/// padding decodes fine but is not something our assembler emits, so the
/// matcher treats it as ordinary code.
pub fn nop_len_at(code: &[u8], at: usize) -> Option<usize> {
    let rest = code.get(at..)?;
    // Run-pre matching asks this before every instruction, so it looks
    // at the opcode only and never decodes ordinary instructions.
    match *rest.first()? {
        OP_NOP1 => Some(1),
        OP_NOPN => {
            let len = crate::decode_len(rest).ok()?;
            rest[2..len].iter().all(|&b| b == 0).then_some(len)
        }
        _ => None,
    }
}

/// Emits the shortest sequence of canonical no-ops totalling exactly
/// `bytes` bytes.
///
/// Mirrors how an assembler pads to an alignment boundary: greedy
/// largest-first, so e.g. 12 bytes become one 9-byte nop plus one 3-byte
/// nop.
pub fn nop_fill(out: &mut Vec<u8>, mut bytes: usize) {
    while bytes > 0 {
        let take = bytes.min(MAX_NOP_LEN);
        // A remainder of 1 after a (take-1)-byte nop is fine since NOP1
        // exists, but NopN cannot encode length 1 if we greedily took all
        // but one byte of a 10-byte hole; the greedy split 9+1 handles it.
        if take == 1 {
            Instr::Nop1.encode(out);
        } else {
            Instr::NopN(take as u8).encode(out);
        }
        bytes -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes of canonical no-ops back to back from `code[at..]`.
    fn run_len(code: &[u8], at: usize) -> usize {
        let mut total = 0;
        while let Some(len) = nop_len_at(code, at + total) {
            total += len;
        }
        total
    }

    #[test]
    fn fill_exact_lengths() {
        for want in 0..64 {
            let mut buf = Vec::new();
            nop_fill(&mut buf, want);
            assert_eq!(buf.len(), want);
            assert_eq!(run_len(&buf, 0), want);
        }
    }

    #[test]
    fn recognises_single_byte_nop() {
        assert_eq!(nop_len_at(&[0x90, 0x01], 0), Some(1));
        assert_eq!(nop_len_at(&[0x01, 0x90], 0), None);
        assert_eq!(nop_len_at(&[0x01, 0x90], 1), Some(1));
    }

    #[test]
    fn rejects_noncanonical_padding() {
        // nopN of length 4 with a non-zero padding byte.
        let bytes = [0x0e, 4, 0x00, 0x7f];
        assert_eq!(nop_len_at(&bytes, 0), None);
        let canonical = [0x0e, 4, 0x00, 0x00];
        assert_eq!(nop_len_at(&canonical, 0), Some(4));
    }

    #[test]
    fn out_of_bounds_is_none() {
        assert_eq!(nop_len_at(&[0x90], 5), None);
        assert_eq!(nop_len_at(&[], 0), None);
        // `at` exactly at the end of the buffer: an empty rest, not a nop.
        assert_eq!(nop_len_at(&[0x90], 1), None);
    }

    #[test]
    fn truncated_nopn_at_buffer_end_is_not_a_nop() {
        // A nopN header that claims more bytes than the unit has left
        // must not be skipped: run-pre matching would walk off the
        // section. Header only, then header + partial padding.
        assert_eq!(nop_len_at(&[0x0e], 0), None);
        assert_eq!(nop_len_at(&[0x0e, 9, 0x00, 0x00], 0), None);
        // The same bytes with the claimed length present are fine.
        let mut full = vec![0x0e, 9];
        full.resize(9, 0x00);
        assert_eq!(nop_len_at(&full, 0), Some(9));
    }

    #[test]
    fn nopn_must_fit_exactly_at_unit_boundary() {
        // A multi-byte nop whose last padding byte is the last byte of
        // the unit is recognised; one byte short is not.
        let mut code = vec![0x01, 0x02]; // arbitrary non-nop prefix
        code.extend_from_slice(&[0x0e, 4, 0x00, 0x00]);
        assert_eq!(nop_len_at(&code, 2), Some(4));
        code.pop();
        assert_eq!(nop_len_at(&code, 2), None);
    }

    #[test]
    fn degenerate_nopn_lengths_are_rejected() {
        // nopN of length 0 or 1 cannot encode (the header alone is two
        // bytes); a decoder seeing one must treat it as ordinary code.
        assert_eq!(nop_len_at(&[0x0e, 0], 0), None);
        assert_eq!(nop_len_at(&[0x0e, 1, 0x00], 0), None);
        // Above MAX_NOP_LEN is equally invalid.
        let mut huge = vec![0x0e, 10];
        huge.resize(10, 0x00);
        assert_eq!(nop_len_at(&huge, 0), None);
    }

    #[test]
    fn mixed_runs_accumulate_across_nop_forms() {
        // nop9 + nop1 + nop3 back to back: the run covers all of them
        // and stops at the first real instruction.
        let mut code = Vec::new();
        nop_fill(&mut code, 9);
        code.push(0x90);
        nop_fill(&mut code, 3);
        code.push(0x01); // hlt / non-nop opcode terminates the run
        assert_eq!(run_len(&code, 0), 13);
        // A run started mid-sequence only counts the remaining nops.
        assert_eq!(run_len(&code, 9), 4);
    }

    #[test]
    fn nop_only_tail_runs_to_end_of_unit() {
        // Alignment padding at the end of a compilation unit has no
        // terminating instruction; the run must stop cleanly at the
        // boundary instead of erroring.
        let mut code = vec![0x01];
        nop_fill(&mut code, 12);
        assert_eq!(run_len(&code, 1), 12);
        assert_eq!(run_len(&code, code.len()), 0);
        // Truncated trailing nop: the run stops before it.
        code.extend_from_slice(&[0x0e, 5, 0x00]);
        assert_eq!(run_len(&code, 1), 12);
    }
}
