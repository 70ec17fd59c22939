//! Run-pre matching (paper §4).
//!
//! Given the *pre* object for an affected optimisation unit, the matcher
//! walks every byte of each pre function against the corresponding bytes
//! of the running kernel, simultaneously:
//!
//! * **verifying safety** — any genuine difference between the run code
//!   and the pre code aborts the update (§4.2/§4.3), catching wrong
//!   source, wrong compiler version, or unexpected modification; and
//! * **resolving symbols** — at each unapplied pre relocation the
//!   already-relocated run bytes give the symbol's address:
//!   `S = val + P_run − A` (Figure 2), which disambiguates names that
//!   appear multiple times in kallsyms (§4.1).
//!
//! The walker understands the architecture exactly as §4.3 prescribes:
//! instruction lengths, canonical no-op sequences (skipped on either
//! side), and PC-relative branches — a pre `rel32` may face a run `rel8`
//! (or vice versa) as long as the *targets correspond*, which is checked
//! through an offset-correspondence map built during the walk.

use std::collections::BTreeMap;
use std::fmt;

use ksplice_asm::{branch_info, decode_len, nop_len_at, REL32_ADDEND};
use ksplice_kernel::Kernel;
use ksplice_object::{reloc::read_field, reloc::recover_symbol_value, Object, Reloc, Section};
use ksplice_trace::{Severity, Stage, Tracer, Value};

/// A matched function: where its run code lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnMatch {
    /// Address of the function's code in the running kernel.
    pub run_addr: u64,
    /// Length of the run code actually walked (may differ from the pre
    /// length when branch forms or alignment no-ops differ).
    pub run_len: u64,
}

/// The result of matching one optimisation unit.
#[derive(Debug, Clone, Default)]
pub struct UnitMatch {
    /// The optimisation unit that was matched.
    pub unit: String,
    /// Function symbol → its run location (trampoline target sites).
    pub fn_addrs: BTreeMap<String, FnMatch>,
    /// Symbol name → value recovered from run relocation fields. Used to
    /// fulfil the primary module's dangling relocations. Deliberately
    /// *separate* from `fn_addrs`: a reference to a previously-patched
    /// function correctly resolves to its original (trampolined) address
    /// even though the match site is the latest replacement code (§5.4).
    pub bindings: BTreeMap<String, u64>,
}

/// Why run-pre matching aborted the update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// No kallsyms candidate for a pre function.
    NoCandidate {
        /// The function with no candidate address.
        function: String,
    },
    /// The pre code did not match the run code at any candidate.
    Mismatch {
        /// Optimisation unit the pre function belongs to.
        unit: String,
        /// The function whose bytes diverged.
        function: String,
        /// Candidate run address that got furthest.
        run_addr: u64,
        /// Offset within the pre section where matching failed.
        pre_offset: u64,
        /// `(expected pre byte, actual run byte)` when the failure was a
        /// plain byte comparison; `None` for structural failures
        /// (undecodable instruction, branch shape, length).
        bytes: Option<(u8, u8)>,
        /// Human-readable failure description.
        reason: String,
    },
    /// More than one candidate matched and nothing disambiguated them.
    Ambiguous {
        /// The ambiguous function.
        function: String,
        /// Every run address that fully matched.
        candidates: Vec<u64>,
    },
    /// Two recovered values for the same symbol disagree.
    InconsistentBinding {
        /// The symbol with conflicting recovered values.
        symbol: String,
        /// First recovered value.
        a: u64,
        /// Conflicting recovered value.
        b: u64,
    },
    /// The pre object is malformed.
    BadPreObject(String),
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::NoCandidate { function } => {
                write!(f, "no run candidate for `{function}`")
            }
            MatchError::Mismatch {
                unit,
                function,
                run_addr,
                pre_offset,
                bytes,
                reason,
            } => {
                write!(
                    f,
                    "run-pre mismatch in `{function}` ({unit}) at pre+{pre_offset:#x} (run {run_addr:#x}): {reason}"
                )?;
                if let Some((expected, actual)) = bytes {
                    write!(f, " [expected {expected:#04x}, found {actual:#04x}]")?;
                }
                Ok(())
            }
            MatchError::Ambiguous {
                function,
                candidates,
            } => write!(
                f,
                "`{function}` matches {} run locations ambiguously",
                candidates.len()
            ),
            MatchError::InconsistentBinding { symbol, a, b } => write!(
                f,
                "symbol `{symbol}` recovered inconsistently: {a:#x} vs {b:#x}"
            ),
            MatchError::BadPreObject(m) => write!(f, "bad pre object: {m}"),
        }
    }
}

impl std::error::Error for MatchError {}

/// Matches every function of a pre unit against the running kernel.
///
/// `overrides` forces candidate run addresses for named functions — the
/// §5.4 mechanism: when re-patching an already-patched kernel, the match
/// site for a previously-replaced function is the latest replacement
/// code, not the (now trampolined) original.
pub fn match_unit(
    kernel: &Kernel,
    pre: &Object,
    overrides: &BTreeMap<String, u64>,
) -> Result<UnitMatch, MatchError> {
    match_unit_traced(kernel, pre, overrides, &mut Tracer::disabled())
}

/// [`match_unit`] with match-progress events on `tracer`.
///
/// Per-candidate walk failures are Debug events (trying several
/// same-named kallsyms candidates is normal, §4.1); only a failure of
/// the whole unit emits an Error event — a clean apply leaks no
/// Warn/Error events. On `runpre.mismatch` the event carries the unit,
/// function, byte offset and (for byte-compare failures) the expected
/// and actual bytes.
pub fn match_unit_traced(
    kernel: &Kernel,
    pre: &Object,
    overrides: &BTreeMap<String, u64>,
    tracer: &mut Tracer,
) -> Result<UnitMatch, MatchError> {
    tracer.set_now(kernel.steps);
    tracer.emit(
        Stage::RunPre,
        Severity::Info,
        "runpre.unit_start",
        vec![
            ("unit", pre.name.as_str().into()),
            ("overrides", overrides.len().into()),
        ],
    );
    let result = match_unit_inner(kernel, pre, overrides, tracer);
    match &result {
        Ok(m) => {
            tracer.emit(
                Stage::RunPre,
                Severity::Info,
                "runpre.unit_matched",
                vec![
                    ("unit", m.unit.as_str().into()),
                    ("functions", m.fn_addrs.len().into()),
                    ("bindings", m.bindings.len().into()),
                ],
            );
            tracer.count("runpre.units_matched", 1);
            tracer.count("runpre.symbols_recovered", m.bindings.len() as u64);
        }
        Err(e) => {
            let mut fields: Vec<(&str, Value)> = vec![
                ("unit", pre.name.as_str().into()),
                ("msg", e.to_string().into()),
            ];
            if let MatchError::Mismatch {
                function,
                run_addr,
                pre_offset,
                bytes,
                ..
            } = e
            {
                fields.push(("function", function.as_str().into()));
                fields.push(("run_addr", (*run_addr).into()));
                fields.push(("pre_offset", (*pre_offset).into()));
                if let Some((expected, actual)) = bytes {
                    fields.push(("expected_byte", (*expected as u64).into()));
                    fields.push(("actual_byte", (*actual as u64).into()));
                }
            }
            tracer.emit(Stage::RunPre, Severity::Error, "runpre.mismatch", fields);
            tracer.count("runpre.units_aborted", 1);
        }
    }
    result
}

fn match_unit_inner(
    kernel: &Kernel,
    pre: &Object,
    overrides: &BTreeMap<String, u64>,
    tracer: &mut Tracer,
) -> Result<UnitMatch, MatchError> {
    // Collect the pre functions: (symbol name, section).
    let mut functions: Vec<(&str, &Section)> = Vec::new();
    for sym in pre.defined_functions() {
        let def = sym.def.expect("defined");
        let sec = pre
            .sections
            .get(def.section)
            .ok_or_else(|| MatchError::BadPreObject(format!("symbol {} section", sym.name)))?;
        if !sec.is_function_text() {
            continue;
        }
        functions.push((sym.name.as_str(), sec));
    }

    // Phase 1: all successful candidate matches per function.
    struct Candidate {
        addr: u64,
        run_len: u64,
        recovered: Vec<(String, u64)>,
    }
    let mut table: Vec<(&str, Vec<Candidate>)> = Vec::new();
    for (name, sec) in &functions {
        let candidates: Vec<u64> = match overrides.get(*name) {
            Some(&addr) => vec![addr],
            None => kernel
                .syms
                .lookup_name(name)
                .into_iter()
                .filter(|s| s.is_func)
                .map(|s| s.addr)
                .collect(),
        };
        if candidates.is_empty() {
            return Err(MatchError::NoCandidate {
                function: name.to_string(),
            });
        }
        let mut ok = Vec::new();
        let mut best_err: Option<MatchError> = None;
        for addr in candidates {
            match match_function_traced(kernel, pre, sec, addr, tracer) {
                Ok((run_len, recovered)) => {
                    tracer.emit(
                        Stage::RunPre,
                        Severity::Debug,
                        "runpre.candidate_matched",
                        vec![
                            ("function", (*name).into()),
                            ("run_addr", addr.into()),
                            ("run_len", run_len.into()),
                            ("recovered", recovered.len().into()),
                        ],
                    );
                    ok.push(Candidate {
                        addr,
                        run_len,
                        recovered,
                    })
                }
                Err(e) => {
                    // Normal when kallsyms has several same-named
                    // candidates: only whole-unit failure is an error.
                    tracer.emit(
                        Stage::RunPre,
                        Severity::Debug,
                        "runpre.candidate_rejected",
                        vec![
                            ("function", (*name).into()),
                            ("run_addr", addr.into()),
                            ("msg", e.to_string().into()),
                        ],
                    );
                    if best_err.is_none() {
                        best_err = Some(e);
                    }
                }
            }
        }
        if ok.is_empty() {
            return Err(best_err.unwrap_or(MatchError::NoCandidate {
                function: name.to_string(),
            }));
        }
        table.push((name, ok));
    }

    // Phase 2: fixpoint — accept unambiguous functions, merge their
    // recovered bindings, and use bindings to prune remaining ambiguity
    // (a duplicate-named static's true address is pinned by references
    // from its neighbours).
    let mut out = UnitMatch {
        unit: pre.name.clone(),
        ..UnitMatch::default()
    };
    let mut accepted = vec![false; table.len()];
    loop {
        let mut progress = false;
        for (i, (name, cands)) in table.iter_mut().enumerate() {
            if accepted[i] {
                continue;
            }
            if cands.len() > 1 {
                // Prune candidates that contradict a recovered binding of
                // this very symbol — but never prune to nothing (in the
                // previously-patched case the binding legitimately points
                // at the trampolined original, §5.4).
                if let Some(&want) = out.bindings.get(*name) {
                    if cands.iter().any(|c| c.addr == want) {
                        cands.retain(|c| c.addr == want);
                    }
                }
            }
            if cands.len() == 1 {
                let c = &cands[0];
                for (sym, val) in &c.recovered {
                    match out.bindings.get(sym) {
                        Some(&prev) if prev != *val => {
                            return Err(MatchError::InconsistentBinding {
                                symbol: sym.clone(),
                                a: prev,
                                b: *val,
                            })
                        }
                        Some(_) => {}
                        None => {
                            out.bindings.insert(sym.clone(), *val);
                        }
                    }
                }
                out.fn_addrs.insert(
                    name.to_string(),
                    FnMatch {
                        run_addr: c.addr,
                        run_len: c.run_len,
                    },
                );
                accepted[i] = true;
                progress = true;
            }
        }
        if accepted.iter().all(|&a| a) {
            break;
        }
        if !progress {
            let (name, cands) = table
                .iter()
                .zip(&accepted)
                .find(|(_, &a)| !a)
                .map(|((n, c), _)| (*n, c))
                .expect("some unaccepted entry exists");
            return Err(MatchError::Ambiguous {
                function: name.to_string(),
                candidates: cands.iter().map(|c| c.addr).collect(),
            });
        }
    }
    Ok(out)
}

/// Walks one pre function against run memory at `run_addr`, recording
/// walk metrics on `tracer`: bytes walked, alignment no-ops skipped on
/// either side, PC-relative equivalence checks performed, and relocation
/// values recovered.
///
/// Returns the run length walked and the `(symbol, value)` pairs
/// recovered from relocation fields.
pub fn match_function_traced(
    kernel: &Kernel,
    pre_obj: &Object,
    pre: &Section,
    run_addr: u64,
    tracer: &mut Tracer,
) -> Result<(u64, Vec<(String, u64)>), MatchError> {
    let fn_name = pre
        .name
        .strip_prefix(".text.")
        .unwrap_or(&pre.name)
        .to_string();
    let mismatch = |pre_off: u64, reason: String| MatchError::Mismatch {
        unit: pre_obj.name.clone(),
        function: fn_name.clone(),
        run_addr,
        pre_offset: pre_off,
        bytes: None,
        reason,
    };
    // Relocations sorted by field offset. The walk's offsets only grow,
    // so one forward cursor hands each instruction the relocations whose
    // field starts inside it; the section index restores table order
    // among them.
    let mut relocs: Vec<(usize, &Reloc)> = pre.relocs.iter().enumerate().collect();
    relocs.sort_by_key(|&(_, r)| r.offset);
    let mut next_reloc = 0;

    // Read a window of run bytes generously sized: branch-form shrinkage
    // can only make run code smaller; nops can make it bigger. 2x + slack.
    let window = (pre.data.len() as u64) * 2 + 64;
    let run_bytes = kernel
        .mem
        .peek(run_addr, window)
        .or_else(|_| kernel.mem.peek(run_addr, pre.data.len() as u64))
        .map_err(|e| mismatch(0, format!("run code unreadable: {e}")))?;

    let mut recovered: Vec<(String, u64)> = Vec::new();
    let mut pre_off = 0usize;
    let mut run_off = 0usize;
    // (pre instruction-start offset, run offset), in increasing order.
    let mut offset_map: Vec<(u64, u64)> = Vec::new();
    // (pre-relative branch target, absolute run target) to verify later.
    let mut pending: Vec<(u64, u64, u64)> = Vec::new(); // (pre_target, run_target, at)
    let pre_len = pre.data.len();

    while pre_off < pre_len {
        // Skip alignment no-ops on both sides independently (§4.3).
        while let Some(n) = nop_len_at(&pre.data, pre_off) {
            pre_off += n;
            tracer.count("runpre.nops_skipped", 1);
            if pre_off >= pre_len {
                break;
            }
        }
        if pre_off >= pre_len {
            break;
        }
        while let Some(n) = nop_len_at(run_bytes, run_off) {
            run_off += n;
            tracer.count("runpre.nops_skipped", 1);
        }
        offset_map.push((pre_off as u64, run_off as u64));

        let pre_instr_len = decode_len(&pre.data[pre_off..])
            .map_err(|e| mismatch(pre_off as u64, format!("undecodable pre byte: {e}")))?;
        let run_instr_len = decode_len(&run_bytes[run_off..])
            .map_err(|e| mismatch(pre_off as u64, format!("undecodable run byte: {e}")))?;

        let pre_branch = branch_info(&pre.data[pre_off..], pre_off as u64)
            .map_err(|e| mismatch(pre_off as u64, e.to_string()))?;
        let run_branch = branch_info(&run_bytes[run_off..], run_addr + run_off as u64)
            .map_err(|e| mismatch(pre_off as u64, e.to_string()))?;

        // This instruction's relocation fields.
        while relocs
            .get(next_reloc)
            .is_some_and(|(_, r)| r.offset < pre_off as u64)
        {
            next_reloc += 1;
        }
        let first = next_reloc;
        let end = (pre_off + pre_instr_len) as u64;
        while relocs.get(next_reloc).is_some_and(|(_, r)| r.offset < end) {
            next_reloc += 1;
        }
        relocs[first..next_reloc].sort_unstable_by_key(|&(i, _)| i);
        let field = &relocs[first..next_reloc];

        match (pre_branch, run_branch) {
            (Some(pb), Some(rb)) => {
                tracer.count("runpre.pcrel_checks", 1);
                if pb.cond != rb.cond || pb.is_call != rb.is_call {
                    return Err(mismatch(
                        pre_off as u64,
                        "branch kind/condition differs".to_string(),
                    ));
                }
                match field {
                    [] => {
                        // Intra-section branch: targets must correspond.
                        pending.push((pb.target, rb.target, pre_off as u64));
                    }
                    [(_, r)] => {
                        // Cross-section branch: the run target *is* the
                        // symbol value, modulo a non-conventional addend:
                        // S = target − (A − REL32_ADDEND).
                        let adjust = (r.addend - REL32_ADDEND) as u64;
                        let value = rb.target.wrapping_sub(adjust);
                        record(pre_obj, r, value, &mut recovered);
                    }
                    _ => {
                        return Err(mismatch(
                            pre_off as u64,
                            "multiple relocations on one branch".to_string(),
                        ))
                    }
                }
            }
            (None, None) => {
                if pre_instr_len != run_instr_len {
                    return Err(mismatch(
                        pre_off as u64,
                        format!("instruction length differs ({pre_instr_len} vs {run_instr_len})"),
                    ));
                }
                // Compare bytes outside relocation fields; recover inside.
                // Bit i set: byte i of the instruction (at most 10 long)
                // lies in a relocation field.
                let mut in_field = 0u16;
                for (_, r) in field {
                    let start = (r.offset as usize) - pre_off;
                    for i in start..(start + r.kind.width()).min(pre_instr_len) {
                        in_field |= 1 << i;
                    }
                }
                for i in 0..pre_instr_len {
                    if in_field & 1 << i == 0 && pre.data[pre_off + i] != run_bytes[run_off + i] {
                        return Err(MatchError::Mismatch {
                            unit: pre_obj.name.clone(),
                            function: fn_name.clone(),
                            run_addr,
                            pre_offset: (pre_off + i) as u64,
                            bytes: Some((pre.data[pre_off + i], run_bytes[run_off + i])),
                            reason: format!(
                                "byte {:#04x} differs from run byte {:#04x}",
                                pre.data[pre_off + i],
                                run_bytes[run_off + i]
                            ),
                        });
                    }
                }
                for (_, r) in field {
                    let field_run_off = run_off as u64 + (r.offset - pre_off as u64);
                    let val = read_field(r.kind, run_bytes, field_run_off)
                        .map_err(|e| mismatch(r.offset, e.to_string()))?;
                    let p_run = run_addr + field_run_off;
                    let value = recover_symbol_value(r.kind, val, p_run, r.addend);
                    record(pre_obj, r, value, &mut recovered);
                }
            }
            _ => {
                return Err(mismatch(
                    pre_off as u64,
                    "branch vs non-branch instruction".to_string(),
                ))
            }
        }
        pre_off += pre_instr_len;
        run_off += run_instr_len;
    }
    // End-of-function marker for branches that target the very end.
    offset_map.push((pre_off as u64, run_off as u64));

    // Verify intra-section branch correspondence.
    for (pre_target, run_target, at) in pending {
        let Ok(i) = offset_map.binary_search_by_key(&pre_target, |&(pre, _)| pre) else {
            return Err(mismatch(
                at,
                format!("branch targets pre+{pre_target:#x}, not an instruction boundary"),
            ));
        };
        let mapped = offset_map[i].1;
        // The run target may point at alignment nops that precede the
        // mapped instruction; walking run nops forward must land on it.
        // A target before the function has no nops to walk: it simply
        // does not correspond.
        let mut t = run_target;
        while t < run_addr + mapped {
            match t
                .checked_sub(run_addr)
                .and_then(|off| nop_len_at(run_bytes, off as usize))
            {
                Some(n) => t += n as u64,
                None => break,
            }
        }
        if t != run_addr + mapped {
            return Err(mismatch(
                at,
                format!(
                    "branch target mismatch: pre+{pre_target:#x} maps to run {:#x}, run branch goes to {run_target:#x}",
                    run_addr + mapped
                ),
            ));
        }
        tracer.count("runpre.pcrel_checks", 1);
    }
    tracer.count("runpre.bytes_matched", run_off as u64);
    tracer.count("runpre.relocs_recovered", recovered.len() as u64);
    Ok((run_off as u64, recovered))
}

fn record(pre_obj: &Object, r: &Reloc, value: u64, out: &mut Vec<(String, u64)>) {
    if let Some(sym) = pre_obj.symbols.get(r.symbol) {
        // The symbol value includes the defined symbol's offset; a reloc
        // against `sym+off` recovers `S`, which is already the symbol
        // address because the addend carried the offset.
        out.push((sym.name.clone(), value));
    }
}
