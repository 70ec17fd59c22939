//! Dual-kernel differential primitives for `ksplice-fuzz`.
//!
//! The fuzz oracle boots a *reference* kernel cold from post-patch
//! source and a *subject* kernel from pre-patch source plus the hot
//! update, then demands they behave identically. This module supplies
//! the two comparisons that definition needs:
//!
//! * **Lockstep call traces** ([`normalize_call`]): the kernels run the
//!   same workload call sequence; each outcome is normalized (arena
//!   addresses masked — the two images legitimately lay memory out
//!   differently — and oops reasons stripped of hex) so the oracle can
//!   compare them entry by entry.
//! * **Image diff** ([`diff_images`]): after the workload, all
//!   same-named, same-sized, non-executable regions must agree
//!   word-for-word outside of masked pointer words; every differing word
//!   is reported. Executable regions are excluded by construction — the
//!   subject's patched text contains trampolines and the two images'
//!   code layouts differ legitimately — as are stacks (scratch), the
//!   heap (the apply machinery allocates from it on the subject side
//!   only), and regions present on only one side (update modules,
//!   workload modules loaded asymmetrically).

use std::collections::HashMap;

use crate::kernel::{CallError, Kernel};
use crate::mem::{Region, KBASE, MEM_SIZE};

/// True for values that look like arena addresses: the two kernels'
/// images legitimately differ in layout, so raw pointers never compare.
pub fn is_arena_addr(v: u64) -> bool {
    (KBASE..KBASE + MEM_SIZE).contains(&v)
}

/// Replaces hex digit runs (addresses, checksums) in a diagnostic
/// string so oops reasons from differently-laid-out kernels compare.
pub fn normalize_diag(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut run = String::new();
    for c in s.chars().chain(std::iter::once('\u{0}')) {
        if c.is_ascii_hexdigit() {
            run.push(c);
            continue;
        }
        if !run.is_empty() {
            // Only numeric-looking runs are masked; hex-alphabet words
            // like "bad" or "face" stay readable.
            if run.chars().any(|r| r.is_ascii_digit()) {
                out.push('#');
            } else {
                out.push_str(&run);
            }
            run.clear();
        }
        if c != '\u{0}' {
            out.push(c);
        }
    }
    out
}

/// One normalized workload-call outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEntry {
    /// Clean return with a non-pointer value.
    Ret(u64),
    /// Clean return of an arena address (masked: layouts differ).
    Arena,
    /// The call oopsed; the reason with hex runs masked.
    Oops(String),
    /// The call exceeded its step budget.
    StepLimit,
    /// The entry symbol does not exist in this kernel.
    NoEntry,
    /// The call could not even spawn.
    SpawnFail,
}

impl std::fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEntry::Ret(v) => write!(f, "ret:{v}"),
            TraceEntry::Arena => write!(f, "ret:<arena>"),
            TraceEntry::Oops(r) => write!(f, "oops:{r}"),
            TraceEntry::StepLimit => write!(f, "step-limit"),
            TraceEntry::NoEntry => write!(f, "no-entry"),
            TraceEntry::SpawnFail => write!(f, "spawn-fail"),
        }
    }
}

/// Normalizes a raw call result into a comparable trace entry.
pub fn normalize_call(result: Result<u64, CallError>) -> TraceEntry {
    match result {
        Ok(v) if is_arena_addr(v) => TraceEntry::Arena,
        Ok(v) => TraceEntry::Ret(v),
        Err(CallError::Oops(o)) => TraceEntry::Oops(normalize_diag(&o.reason)),
        Err(CallError::StepLimit) => TraceEntry::StepLimit,
        Err(CallError::NoEntry(_)) => TraceEntry::NoEntry,
        Err(CallError::Spawn(_)) => TraceEntry::SpawnFail,
    }
}

/// One differing word in a compared region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionDelta {
    /// Region name (same in both kernels).
    pub region: String,
    /// Byte offset of the differing word from the region start.
    pub offset: u64,
    /// The reference kernel's word.
    pub reference: u64,
    /// The subject kernel's word.
    pub subject: u64,
}

impl std::fmt::Display for RegionDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}+{:#x}: ref {:#018x} vs subj {:#018x}",
            self.region, self.offset, self.reference, self.subject
        )
    }
}

/// Compares the writable memory images of two kernels and returns
/// every differing word.
///
/// Regions are matched by name; only pairs that exist on both sides
/// with equal sizes are compared. Executable regions, stacks (scratch
/// space) and `kheap` (the subject's apply machinery allocates from it,
/// shifting later allocations) are skipped, and a word whose value on
/// either side is an arena address is masked.
pub fn diff_images(reference: &Kernel, subject: &Kernel) -> Vec<RegionDelta> {
    let mut deltas = Vec::new();
    // The subject's first non-executable region of each name.
    let mut partners: HashMap<&str, &Region> = HashMap::new();
    for r in subject.mem.regions().iter().filter(|r| !r.perms.exec) {
        partners.entry(r.name.as_str()).or_insert(r);
    }
    for r_ref in reference.mem.regions() {
        if r_ref.perms.exec || r_ref.name.starts_with("stack:") || r_ref.name == "kheap" {
            continue;
        }
        let Some(&r_sub) = partners.get(r_ref.name.as_str()) else {
            continue;
        };
        if r_sub.size != r_ref.size {
            continue;
        }
        let (Ok(a), Ok(b)) = (
            reference.mem.peek(r_ref.start, r_ref.size),
            subject.mem.peek(r_sub.start, r_sub.size),
        ) else {
            continue;
        };
        if a == b {
            continue;
        }
        for (i, (ca, cb)) in a.chunks(8).zip(b.chunks(8)).enumerate() {
            if ca == cb {
                continue;
            }
            let mut wa = [0u8; 8];
            let mut wb = [0u8; 8];
            wa[..ca.len()].copy_from_slice(ca);
            wb[..cb.len()].copy_from_slice(cb);
            let va = u64::from_le_bytes(wa);
            let vb = u64::from_le_bytes(wb);
            if is_arena_addr(va) || is_arena_addr(vb) {
                continue;
            }
            deltas.push(RegionDelta {
                region: r_ref.name.clone(),
                offset: (i * 8) as u64,
                reference: va,
                subject: vb,
            });
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_normalization_masks_hex() {
        assert_eq!(
            normalize_diag("bad store at f0001234 (len 8)"),
            "bad store at # (len #)"
        );
        // Non-hex text is untouched.
        assert_eq!(normalize_diag("stack busy"), "stack busy");
    }

    #[test]
    fn arena_values_mask_in_traces() {
        assert_eq!(normalize_call(Ok(7)), TraceEntry::Ret(7));
        assert_eq!(normalize_call(Ok(KBASE + 64)), TraceEntry::Arena);
        assert_eq!(normalize_call(Err(CallError::StepLimit)), TraceEntry::StepLimit);
    }
}
