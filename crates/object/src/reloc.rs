//! Relocation arithmetic.
//!
//! Three parties share these rules: the module loader (applying
//! relocations when code is linked into the kernel, through
//! [`stored_value`]), `ksplice-create` (leaving them *unapplied* in the
//! pre/post objects), and run-pre matching, which runs the arithmetic
//! **backwards** to recover a symbol's address from already-relocated
//! run bytes: `S = val + P_run − A` for PC-relative fields (paper §4.3,
//! Figure 2).

use crate::model::RelocKind;

/// Errors computing or reading a relocation field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocError {
    /// The field lies outside the section data.
    OutOfBounds { offset: u64, len: usize },
    /// A 32-bit field cannot represent the computed value.
    Overflow { kind: RelocKind, value: i64 },
}

impl std::fmt::Display for RelocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelocError::OutOfBounds { offset, len } => {
                write!(
                    f,
                    "relocation field at {offset:#x} outside {len}-byte section"
                )
            }
            RelocError::Overflow { kind, value } => {
                write!(f, "value {value:#x} overflows {kind:?} field")
            }
        }
    }
}

impl std::error::Error for RelocError {}

/// Computes the value stored in a relocated field.
///
/// `s` is the symbol address, `a` the addend, and `p` the absolute address
/// of the field itself (only used for PC-relative kinds).
pub fn stored_value(kind: RelocKind, s: u64, a: i64, p: u64) -> Result<u64, RelocError> {
    match kind {
        RelocKind::Abs64 => Ok(s.wrapping_add(a as u64)),
        RelocKind::Abs32 => {
            let v = s.wrapping_add(a as u64);
            if v > u32::MAX as u64 {
                return Err(RelocError::Overflow {
                    kind,
                    value: v as i64,
                });
            }
            Ok(v)
        }
        RelocKind::Pcrel32 => {
            let v = (s.wrapping_add(a as u64)).wrapping_sub(p) as i64;
            if i32::try_from(v).is_err() {
                return Err(RelocError::Overflow { kind, value: v });
            }
            Ok(v as u64)
        }
    }
}

/// Reads the raw value of a relocation field.
pub fn read_field(kind: RelocKind, data: &[u8], offset: u64) -> Result<u64, RelocError> {
    let w = kind.width();
    let field = data
        .get(offset as usize..offset as usize + w)
        .ok_or(RelocError::OutOfBounds {
            offset,
            len: data.len(),
        })?;
    let mut bytes = [0u8; 8];
    bytes[..w].copy_from_slice(field);
    let mut v = u64::from_le_bytes(bytes);
    // Sign-extend 32-bit PC-relative fields.
    if kind == RelocKind::Pcrel32 {
        v = v as u32 as i32 as i64 as u64;
    }
    Ok(v)
}

/// Recovers a symbol's address from an **already-relocated** field — the
/// heart of run-pre matching's symbol resolution (paper §4.3).
///
/// Given the stored value `val` read from the run code, the absolute run
/// address `p_run` of the field, and the addend `a` known from the pre
/// code's metadata:
///
/// * PC-relative: `S = val + P_run − A`
/// * absolute: `S = val − A`
pub fn recover_symbol_value(kind: RelocKind, val: u64, p_run: u64, a: i64) -> u64 {
    match kind {
        RelocKind::Pcrel32 => val.wrapping_add(p_run).wrapping_sub(a as u64),
        RelocKind::Abs64 | RelocKind::Abs32 => val.wrapping_sub(a as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from paper §4.3 / Figure 2: stored value
    /// `0x00111100`, field address `0xf0000003`, addend −4 recovers
    /// `S = 0xf0111107`.
    #[test]
    fn paper_figure2_example() {
        let s = recover_symbol_value(RelocKind::Pcrel32, 0x00111100, 0xf000_0003, -4);
        assert_eq!(s, 0xf011_1107);
    }

    /// `data` with the field at `offset` holding `stored_value`'s
    /// result, as the loader writes it.
    fn relocated(kind: RelocKind, len: usize, offset: u64, p: u64, s: u64, a: i64) -> Vec<u8> {
        let value = stored_value(kind, s, a, p).unwrap();
        let mut data = vec![0u8; len];
        let at = offset as usize;
        data[at..at + kind.width()].copy_from_slice(&value.to_le_bytes()[..kind.width()]);
        data
    }

    #[test]
    fn store_then_recover_pcrel() {
        let (s, a, base, off) = (0x4000_1234u64, -4i64, 0x4100_0000u64, 8u64);
        let data = relocated(RelocKind::Pcrel32, 16, off, base + off, s, a);
        let val = read_field(RelocKind::Pcrel32, &data, off).unwrap();
        assert_eq!(
            recover_symbol_value(RelocKind::Pcrel32, val, base + off, a),
            s
        );
    }

    #[test]
    fn store_then_recover_abs64() {
        let (s, a) = (0xdead_beef_0000u64, 16i64);
        let data = relocated(RelocKind::Abs64, 16, 0, 0, s, a);
        let val = read_field(RelocKind::Abs64, &data, 0).unwrap();
        assert_eq!(recover_symbol_value(RelocKind::Abs64, val, 0, a), s);
    }

    #[test]
    fn abs32_overflow_rejected() {
        let err = stored_value(RelocKind::Abs32, u64::MAX / 2, 0, 0).unwrap_err();
        assert!(matches!(err, RelocError::Overflow { .. }));
    }

    #[test]
    fn pcrel_overflow_rejected() {
        // Distance of 2^40 cannot fit a 32-bit displacement.
        let err = stored_value(RelocKind::Pcrel32, 0, 0, 1u64 << 40).unwrap_err();
        assert!(matches!(err, RelocError::Overflow { .. }));
    }

    #[test]
    fn out_of_bounds_field() {
        let data = vec![0u8; 3];
        let err = read_field(RelocKind::Abs32, &data, 0).unwrap_err();
        assert!(matches!(err, RelocError::OutOfBounds { .. }));
        assert!(read_field(RelocKind::Abs64, &data, 0).is_err());
    }

    #[test]
    fn negative_pcrel_field_sign_extends() {
        // Target below the field: stored displacement is negative.
        let data = relocated(RelocKind::Pcrel32, 4, 0, 0x1000, 0x800, -4);
        let val = read_field(RelocKind::Pcrel32, &data, 0).unwrap();
        assert_eq!(
            recover_symbol_value(RelocKind::Pcrel32, val, 0x1000, -4),
            0x800
        );
    }
}
