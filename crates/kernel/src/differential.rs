//! Dual-kernel differential primitives for `ksplice-fuzz`.
//!
//! The fuzz oracle boots a *reference* kernel cold from post-patch
//! source and a *subject* kernel from pre-patch source plus the hot
//! update, then demands they behave identically. This module supplies
//! the two comparisons that definition needs:
//!
//! * **Lockstep call traces** ([`traced_call`] / [`diff_traces`]): both
//!   kernels run the same workload call sequence; each outcome is
//!   normalized (arena addresses masked — the two images legitimately
//!   lay memory out differently — and oops reasons stripped of hex) and
//!   compared entry by entry.
//! * **Image diff** ([`diff_images`]): after the workload, all
//!   same-named, same-sized, non-executable regions must agree
//!   word-for-word outside of masked pointer words. Executable regions
//!   are excluded by construction — the subject's patched text contains
//!   trampolines and the two images' code layouts differ legitimately —
//!   as are stacks (scratch), the heap (the apply machinery allocates
//!   from it on the subject side only), and regions present on only one
//!   side (update modules, workload modules loaded asymmetrically).

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

/// Calls `entry(args)` under a step budget and normalizes the outcome.
pub fn traced_call(kernel: &mut Kernel, entry: &str, args: &[u64], limit: u64) -> TraceEntry {
    normalize_call(kernel.call_function_limited(entry, args, limit))
}

/// First trace mismatch, as `(index, reference entry, subject entry)`.
pub fn diff_traces(
    reference: &[TraceEntry],
    subject: &[TraceEntry],
) -> Option<(usize, String, String)> {
    let n = reference.len().max(subject.len());
    for i in 0..n {
        let a = reference.get(i);
        let b = subject.get(i);
        if a != b {
            return Some((
                i,
                a.map(|e| e.to_string()).unwrap_or_else(|| "<missing>".into()),
                b.map(|e| e.to_string()).unwrap_or_else(|| "<missing>".into()),
            ));
        }
    }
    None
}

/// Image-diff policy.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Region names skipped outright (default: `kheap` — the subject's
    /// apply machinery allocates from it, shifting later allocations).
    pub skip_regions: Vec<String>,
    /// Mask 8-byte words whose value on either side is an arena address.
    pub mask_arena_words: bool,
    /// Cap on reported deltas per region (the first mismatches matter;
    /// thousands of follow-on words do not).
    pub max_deltas: usize,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            skip_regions: vec!["kheap".to_string()],
            mask_arena_words: true,
            max_deltas: 8,
        }
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

/// The outcome of an image comparison.
#[derive(Debug, Clone, Default)]
pub struct ImageDiffReport {
    /// Differing words (empty means the images agree).
    pub deltas: Vec<RegionDelta>,
    /// Number of regions actually compared.
    pub regions_compared: usize,
    /// Words skipped by arena-pointer masking.
    pub words_masked: u64,
}

impl ImageDiffReport {
    /// True when no divergence was found.
    pub fn clean(&self) -> bool {
        self.deltas.is_empty()
    }
}

/// Compares the writable memory images of two kernels under `opts`.
///
/// Regions are matched by name; only pairs that exist on both sides
/// with equal sizes and no-exec permissions are compared (stacks are
/// always skipped — they are scratch space).
pub fn diff_images(reference: &Kernel, subject: &Kernel, opts: &DiffOptions) -> ImageDiffReport {
    let mut report = ImageDiffReport::default();
    // The subject's first non-executable region of each name.
    let mut partners: HashMap<&str, &Region> = HashMap::new();
    for r in subject.mem.regions().iter().filter(|r| !r.perms.exec) {
        partners.entry(r.name.as_str()).or_insert(r);
    }
    for r_ref in reference.mem.regions() {
        if r_ref.perms.exec
            || r_ref.name.starts_with("stack:")
            || opts.skip_regions.contains(&r_ref.name)
        {
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
        report.regions_compared += 1;
        if a == b {
            continue;
        }
        let mut region_deltas = 0usize;
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
            if opts.mask_arena_words && (is_arena_addr(va) || is_arena_addr(vb)) {
                report.words_masked += 1;
                continue;
            }
            if region_deltas < opts.max_deltas {
                report.deltas.push(RegionDelta {
                    region: r_ref.name.clone(),
                    offset: (i * 8) as u64,
                    reference: va,
                    subject: vb,
                });
            }
            region_deltas += 1;
        }
    }
    report
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

    #[test]
    fn trace_diff_reports_first_mismatch() {
        let a = vec![TraceEntry::Ret(1), TraceEntry::Ret(2)];
        let b = vec![TraceEntry::Ret(1), TraceEntry::Ret(3)];
        let (i, ra, rb) = diff_traces(&a, &b).unwrap();
        assert_eq!((i, ra.as_str(), rb.as_str()), (1, "ret:2", "ret:3"));
        assert!(diff_traces(&a, &a).is_none());
        // Length mismatches diverge too.
        assert!(diff_traces(&a, &a[..1]).is_some());
    }
}
