//! Applying and reversing hot updates (paper §5).
//!
//! [`Ksplice`] is the in-kernel core module's state: the stack of applied
//! updates and the machinery of `ksplice-apply`/`ksplice-undo`. An apply
//! runs the full §5 sequence: load the helper and primary modules, run-pre
//! match every affected optimisation unit, fulfil the primary's deferred
//! relocations from the recovered bindings, run `pre_apply` hooks, then
//! under `stop_machine` perform the stack safety check (retrying a few
//! times before abandoning, §5.2) and write the trampoline jumps. Undo
//! ([`Ksplice::undo_any_traced`]) reverses any live update under the same
//! safety check and capture loop: it restores the saved instruction
//! bytes, or re-points a later update's trampoline chain past the
//! reversed one, then unloads the primary modules.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use ksplice_asm::Instr;
use ksplice_kernel::{
    apply_reloc_at, Kernel, LinkError, LoadedModule, SmpConfig, StopMachineError,
};
use ksplice_lang::HookKind;
use ksplice_object::{Object, RelocKind, SectionKind};
use ksplice_trace::{Severity, Stage, Tracer, Value};

use crate::package::UpdatePack;
use crate::retry::RetryPolicy;
use crate::runpre::{match_unit_traced, MatchError, UnitMatch};

/// Length of the jump trampoline written at a replaced function's entry.
pub const TRAMPOLINE_LEN: usize = 5;

/// One patched function: everything needed to redirect and to undo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchSite {
    /// Optimisation unit the function belongs to.
    pub unit: String,
    /// Name of the replaced function.
    pub fn_name: String,
    /// Address the trampoline was written at (the obsolete code).
    pub site_addr: u64,
    /// Length of the obsolete run code (for safety checks).
    pub site_len: u64,
    /// The replacement function in the primary module.
    pub replacement_addr: u64,
    /// Length of the replacement code.
    pub replacement_len: u64,
    /// Original bytes overwritten by the trampoline.
    pub saved: [u8; TRAMPOLINE_LEN],
}

/// Hook functions resolved to kernel addresses, by kind.
#[derive(Debug, Clone, Default)]
pub struct ResolvedHooks {
    by_kind: BTreeMap<&'static str, Vec<u64>>,
}

impl ResolvedHooks {
    fn push(&mut self, kind: HookKind, addr: u64) {
        self.by_kind
            .entry(kind.section_name())
            .or_default()
            .push(addr);
    }

    /// Hook addresses for a kind, in registration order.
    pub fn of(&self, kind: HookKind) -> &[u64] {
        self.by_kind
            .get(kind.section_name())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// A successfully applied update.
#[derive(Debug, Clone)]
pub struct AppliedUpdate {
    /// Update id, from the pack.
    pub id: String,
    /// Every redirected function, with its undo state.
    pub sites: Vec<PatchSite>,
    /// Names of the loaded primary modules (for rmmod on undo).
    pub primary_modules: Vec<String>,
    /// Hook addresses resolved at apply time (reverse hooks run on undo).
    pub hooks: ResolvedHooks,
    /// Relocation targets fulfilled into the primary modules at apply
    /// time, as `(symbol, resolved_addr)` pairs. The non-LIFO undo
    /// dependency check walks these to find references that point into
    /// an older update's loaded code.
    pub fulfilled_relocs: Vec<(String, u64)>,
    /// Set once reversed; a reversed update stays in history.
    pub reversed: bool,
}

/// Apply-time policy.
#[derive(Debug, Clone, Default)]
pub struct ApplyOptions {
    /// The retry schedule for the §5.2 safety-check loop (attempts,
    /// backoff shape, jitter, abandon cooldown). The default reproduces
    /// the historical fixed 5 × 2 000-step schedule.
    pub retry: RetryPolicy,
    /// The SMP topology the target kernel should run (vCPU count,
    /// quantum, scheduling seed). The default — one vCPU — keeps every
    /// historical artifact byte-identical; at `cpus > 1` the pipeline's
    /// `stop_machine` performs a real barrier rendezvous and the §5.2
    /// stack check races genuinely-running vCPU threads.
    pub smp: SmpConfig,
}

impl ApplyOptions {
    /// Options carrying the given retry schedule.
    pub fn with_retry(retry: RetryPolicy) -> ApplyOptions {
        ApplyOptions {
            retry,
            ..ApplyOptions::default()
        }
    }

    /// Options carrying the given SMP topology (default retry policy).
    pub fn with_smp(smp: SmpConfig) -> ApplyOptions {
        ApplyOptions {
            smp,
            ..ApplyOptions::default()
        }
    }
}

/// What a successful apply did — the observable shape of the §5 sequence.
#[derive(Debug, Clone)]
pub struct ApplyReport {
    /// Index of the new entry in [`Ksplice::updates`].
    pub index: usize,
    /// Update id applied.
    pub id: String,
    /// stop_machine attempts it took to capture the machine quiescent
    /// (1 = first try).
    pub attempts: u32,
    /// Pause of the *successful* stop_machine window (paper: ~0.7 ms).
    /// Recorded here, at the moment the trampolines land, so callers
    /// never pair this apply's attempts with some other stop_machine's
    /// duration read later off the kernel.
    pub pause: Duration,
    /// Simulated pause of the successful window in VM steps: barrier
    /// rendezvous (N ≥ 2) plus the stopped-machine work. Deterministic,
    /// unlike the wall-clock `pause` — this is what the SMP load
    /// experiments distribute. 0 on a quiesced uniprocessor.
    pub pause_steps: u64,
    /// Trampolines written.
    pub sites: usize,
    /// Kernel step-clock deltas per stage, in pipeline order. Stages that
    /// never run the kernel (pure bookkeeping) report 0 steps.
    pub stage_steps: Vec<(&'static str, u64)>,
}

impl ApplyReport {
    /// Human-readable multi-line rendering (`ksplice report`).
    pub fn render(&self) -> String {
        let mut out = format!(
            "update {}: {} site(s) patched after {} stop_machine attempt(s), pause {:?}\n",
            self.id, self.sites, self.attempts, self.pause
        );
        for (stage, steps) in &self.stage_steps {
            out.push_str(&format!("  {stage:<16} {steps:>8} steps\n"));
        }
        out
    }
}

/// Errors from apply.
#[derive(Debug)]
pub enum ApplyError {
    /// Loading a helper or primary module failed.
    Link(LinkError),
    /// Run-pre matching aborted the update (§4.3).
    Match(MatchError),
    /// A primary relocation could not be fulfilled from bindings or
    /// unique exported symbols.
    Unresolved {
        /// Unit whose replacement code holds the relocation.
        unit: String,
        /// The unresolvable symbol name.
        symbol: String,
    },
    /// The safety check kept failing: some function is non-quiescent.
    NotQuiescent {
        /// The function found on a stack on the last attempt.
        fn_name: String,
        /// Thread observed inside the function on the last attempt.
        tid: u64,
        /// How many stop_machine attempts were made before abandoning.
        attempts: u32,
    },
    /// A replaced function is too short to hold the trampoline.
    TooShort {
        /// The too-short function.
        fn_name: String,
        /// Its length in bytes (< [`TRAMPOLINE_LEN`]).
        len: u64,
    },
    /// A hook function failed (non-zero return or oops).
    Hook {
        /// Which hook kind failed (`pre_apply`, `check_apply`, …).
        kind: &'static str,
        /// What went wrong, for the operator.
        detail: String,
    },
    /// A replaced function vanished from the match results (internal).
    MissingMatch {
        /// The function with no match entry.
        fn_name: String,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Link(e) => write!(f, "module load failed: {e}"),
            ApplyError::Match(e) => write!(f, "run-pre matching aborted: {e}"),
            ApplyError::Unresolved { unit, symbol } => {
                write!(f, "{unit}: cannot resolve `{symbol}` for replacement code")
            }
            ApplyError::NotQuiescent {
                fn_name,
                tid,
                attempts,
            } => write!(
                f,
                "`{fn_name}` busy on thread {tid}'s stack after {attempts} attempts; update abandoned"
            ),
            ApplyError::TooShort { fn_name, len } => {
                write!(f, "`{fn_name}` is only {len} bytes; cannot place trampoline")
            }
            ApplyError::Hook { kind, detail } => write!(f, "{kind} hook failed: {detail}"),
            ApplyError::MissingMatch { fn_name } => {
                write!(f, "internal: no match entry for `{fn_name}`")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// What a successful undo did — the reversal mirror of [`ApplyReport`].
///
/// `attempts` and `pause` come from the *same* stop_machine window, so
/// callers never pair this undo's attempt count with some other
/// stop_machine's duration read later off the kernel (the same race
/// [`ApplyReport`] closes on the apply side).
#[derive(Debug, Clone)]
pub struct UndoReport {
    /// Update id reversed.
    pub id: String,
    /// stop_machine attempts the reversal took (1 = first try).
    pub attempts: u32,
    /// Pause of the *successful* stop_machine window.
    pub pause: Duration,
    /// Patch sites whose original bytes were restored.
    pub sites_restored: usize,
}

impl UndoReport {
    /// Human-readable multi-line rendering, the reversal mirror of
    /// [`ApplyReport::render`] (`ksplice demo --undo`, `ksplice status`).
    pub fn render(&self) -> String {
        format!(
            "update {}: {} site(s) restored after {} stop_machine attempt(s), pause {:?}\n",
            self.id, self.sites_restored, self.attempts, self.pause
        )
    }
}

/// Errors from undo.
#[derive(Debug)]
pub enum UndoError {
    /// No live update has this id (unknown, or already reversed).
    NotUndoable {
        /// The id the caller asked to undo.
        id: String,
        /// Why it cannot be undone.
        reason: String,
    },
    /// Replacement code still on some stack.
    NotQuiescent {
        /// The replacement function found on a stack on the last attempt.
        fn_name: String,
        /// Thread observed inside the function on the last attempt.
        tid: u64,
        /// How many stop_machine attempts were made before abandoning.
        attempts: u32,
    },
    /// A reverse hook failed.
    Hook {
        /// Which hook kind failed (`pre_reverse`, `reverse`, …).
        kind: &'static str,
        /// What went wrong, for the operator.
        detail: String,
    },
    /// A later live update holds references into this one's loaded code,
    /// so reversing it out of order would leave dangling targets. The
    /// caller must reverse the dependent update first.
    Entangled {
        /// The id the caller asked to undo.
        id: String,
        /// The later live update that depends on it.
        dependent: String,
        /// The symbols/functions whose references tie the two together.
        functions: Vec<String>,
    },
}

impl fmt::Display for UndoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UndoError::NotUndoable { id, reason } => write!(f, "cannot undo {id}: {reason}"),
            UndoError::NotQuiescent {
                fn_name,
                tid,
                attempts,
            } => write!(
                f,
                "replacement `{fn_name}` busy on thread {tid}'s stack after {attempts} attempts; undo abandoned"
            ),
            UndoError::Hook { kind, detail } => write!(f, "{kind} hook failed: {detail}"),
            UndoError::Entangled {
                id,
                dependent,
                functions,
            } => write!(
                f,
                "cannot undo {id}: live update {dependent} depends on it via [{}]; reverse {dependent} first",
                functions.join(", ")
            ),
        }
    }
}

impl std::error::Error for UndoError {}

/// The Ksplice core state for one kernel.
#[derive(Debug, Default, Clone)]
pub struct Ksplice {
    /// Applied updates, oldest first (reversed ones remain, flagged).
    pub updates: Vec<AppliedUpdate>,
    /// Monotonic counter for module naming.
    counter: u64,
}

impl Ksplice {
    /// Fresh core state.
    pub fn new() -> Ksplice {
        Ksplice::default()
    }

    /// The live (applied, not reversed) updates, oldest first.
    pub fn live_updates(&self) -> impl Iterator<Item = &AppliedUpdate> {
        self.updates.iter().filter(|u| !u.reversed)
    }

    /// `ksplice-apply`: applies a pack to the running kernel.
    pub fn apply(
        &mut self,
        kernel: &mut Kernel,
        pack: &UpdatePack,
        opts: &ApplyOptions,
    ) -> Result<usize, ApplyError> {
        self.apply_traced(kernel, pack, opts, &mut Tracer::disabled())
            .map(|r| r.index)
    }

    /// [`Ksplice::apply`] with the full §5 evidence trail on `tracer`:
    /// one event per stop_machine attempt (with the blocking thread and
    /// function on a stack-check rejection), retry delays, trampoline
    /// writes, and per-stage step timings in the returned [`ApplyReport`].
    pub fn apply_traced(
        &mut self,
        kernel: &mut Kernel,
        pack: &UpdatePack,
        opts: &ApplyOptions,
        tracer: &mut Tracer,
    ) -> Result<ApplyReport, ApplyError> {
        tracer.set_now(kernel.steps);
        let span = tracer.span_start(Stage::Apply, "apply", vec![("id", pack.id.as_str().into())]);
        let result = self.apply_inner(kernel, pack, opts, tracer);
        tracer.set_now(kernel.steps);
        tracer.span_end(span);
        result
    }

    fn apply_inner(
        &mut self,
        kernel: &mut Kernel,
        pack: &UpdatePack,
        opts: &ApplyOptions,
        tracer: &mut Tracer,
    ) -> Result<ApplyReport, ApplyError> {
        self.counter += 1;
        let tag = format!("ksplice{}_{}", self.counter, sanitize(&pack.id));
        tracer.set_now(kernel.steps);
        tracer.emit(
            Stage::Apply,
            Severity::Info,
            "apply.start",
            vec![
                ("id", pack.id.as_str().into()),
                ("units", pack.units.len().into()),
            ],
        );
        // The clean-abort invariant: an abort must leave the kernel's
        // mapped text byte-identical to this pre-apply image (no
        // half-written trampolines, no leftover module code).
        let mut unwind = Unwind {
            stage: "load_helpers",
            text_before: kernel.mem.text_checksum(),
            helpers: Vec::new(),
            primaries: Vec::new(),
        };
        self.apply_stages(kernel, pack, opts, &tag, &mut unwind, tracer)
            .map_err(|abort| unwind.abort(kernel, tracer, &pack.id, opts, abort))
    }

    /// The §5 sequence proper. Each stage names itself in `unwind` and
    /// records the modules it loads there, so a failure anywhere returns
    /// to [`Unwind::abort`] with everything it needs to roll back.
    fn apply_stages(
        &mut self,
        kernel: &mut Kernel,
        pack: &UpdatePack,
        opts: &ApplyOptions,
        tag: &str,
        unwind: &mut Unwind,
        tracer: &mut Tracer,
    ) -> Result<ApplyReport, Abort> {
        let mut stage_steps: Vec<(&'static str, u64)> = Vec::new();
        let mut stage_start = kernel.steps;

        // 1. Load helper modules (pre code; invisible to kallsyms so the
        //    matcher cannot mistake them for run code). Kept loaded until
        //    the update is committed, then unloaded to save memory (§5.1).
        for up in &pack.units {
            let mut helper = up.helper.clone();
            helper.name = format!("{tag}_helper_{}", sanitize(&up.unit));
            kernel.insmod_with(&helper, true, false)?;
            unwind.helpers.push(helper.name);
        }
        stage_steps.push(("load_helpers", kernel.steps - stage_start));
        stage_start = kernel.steps;

        // 2. Run-pre match every affected unit.
        unwind.stage = "runpre";
        let mut matches: BTreeMap<String, UnitMatch> = BTreeMap::new();
        for up in &pack.units {
            // §5.4: every function of this unit previously patched by a
            // live update must be matched against its *latest* replacement
            // code — both functions this pack replaces again and functions
            // it merely calls. Live updates iterate oldest first, so later
            // inserts win and the map holds the newest replacement.
            let mut overrides = BTreeMap::new();
            for live in self.live_updates() {
                for s in live.sites.iter().filter(|s| s.unit == up.unit) {
                    overrides.insert(s.fn_name.clone(), s.replacement_addr);
                }
            }
            let m = match_unit_traced(kernel, &up.helper, &overrides, tracer)?;
            matches.insert(up.unit.clone(), m);
        }
        stage_steps.push(("runpre", kernel.steps - stage_start));
        stage_start = kernel.steps;

        // 3. Load primary modules and fulfil their deferred relocations
        //    from the recovered bindings.
        unwind.stage = "load_primaries";
        let mut primaries: Vec<(String, LoadedModule, &Object)> = Vec::new();
        for up in &pack.units {
            let mut primary = up.primary.clone();
            primary.name = format!("{tag}_primary_{}", sanitize(&up.unit));
            let loaded = kernel.insmod_with(&primary, true, true)?;
            unwind.primaries.push(primary.name);
            primaries.push((up.unit.clone(), loaded, &up.primary));
        }
        unwind.stage = "resolve";
        let mut fulfilled_relocs: Vec<(String, u64)> = Vec::new();
        for (unit, loaded, _) in &primaries {
            let um = &matches[unit];
            let mut fulfilled = 0u64;
            for pending in &loaded.pending {
                let s = um
                    .bindings
                    .get(&pending.symbol)
                    .copied()
                    .or_else(|| kernel.syms.lookup_global(&pending.symbol).map(|s| s.addr));
                let Some(s) = s else {
                    return Err(Abort {
                        fields: vec![
                            ("unit", unit.as_str().into()),
                            ("symbol", pending.symbol.as_str().into()),
                            ("msg", "unresolved symbol".into()),
                        ],
                        error: ApplyError::Unresolved {
                            unit: unit.clone(),
                            symbol: pending.symbol.clone(),
                        },
                    });
                };
                apply_reloc_at(
                    &mut kernel.mem,
                    pending.kind,
                    pending.addr,
                    s,
                    pending.addend,
                )?;
                fulfilled_relocs.push((pending.symbol.clone(), s));
                fulfilled += 1;
            }
            tracer.count("apply.relocs_fulfilled", fulfilled);
            tracer.emit(
                Stage::Apply,
                Severity::Debug,
                "apply.relocs_fulfilled",
                vec![("unit", unit.as_str().into()), ("count", fulfilled.into())],
            );
        }
        stage_steps.push(("load_primaries", kernel.steps - stage_start));
        stage_start = kernel.steps;

        // 4. Resolve hooks from the primary objects' .ksplice.* sections.
        unwind.stage = "resolve_hooks";
        let mut hooks = ResolvedHooks::default();
        for (unit, loaded, obj) in &primaries {
            resolve_hooks(kernel, unit, loaded, obj, &matches, &mut hooks)?;
        }

        // 5. Build the patch sites.
        unwind.stage = "sites";
        let mut sites = Vec::new();
        for (up, (_, loaded, _)) in pack.units.iter().zip(&primaries) {
            let um = &matches[&up.unit];
            for (sec_name, fn_name) in &up.replaced_fns {
                let function = ("function", Value::from(fn_name.as_str()));
                let Some(m) = um.fn_addrs.get(fn_name) else {
                    return Err(Abort {
                        fields: vec![function, ("msg", "no match entry".into())],
                        error: ApplyError::MissingMatch {
                            fn_name: fn_name.clone(),
                        },
                    });
                };
                if m.run_len < TRAMPOLINE_LEN as u64 {
                    return Err(Abort {
                        fields: vec![function, ("msg", "too short for trampoline".into())],
                        error: ApplyError::TooShort {
                            fn_name: fn_name.clone(),
                            len: m.run_len,
                        },
                    });
                }
                let replacement_addr = loaded.symbol_addr(fn_name).unwrap_or_else(|| {
                    loaded
                        .section(sec_name)
                        .map(|(a, _)| a)
                        .expect("replacement section loaded")
                });
                let replacement_len = loaded.section(sec_name).map(|(_, l)| l).unwrap_or(0);
                sites.push(PatchSite {
                    unit: up.unit.clone(),
                    fn_name: fn_name.clone(),
                    site_addr: m.run_addr,
                    site_len: m.run_len,
                    replacement_addr,
                    replacement_len,
                    saved: [0; TRAMPOLINE_LEN],
                });
            }
        }

        // 6. pre_apply hooks (ordinary context, may sleep).
        unwind.stage = "pre_apply_hooks";
        if !hooks.of(HookKind::PreApply).is_empty() {
            tracer.emit(
                Stage::Apply,
                Severity::Debug,
                "apply.hooks",
                vec![
                    ("kind", "pre_apply".into()),
                    ("count", hooks.of(HookKind::PreApply).len().into()),
                ],
            );
        }
        run_hooks(kernel, &hooks, HookKind::PreApply)?;
        tracer.set_now(kernel.steps);
        stage_steps.push(("pre_apply_hooks", kernel.steps - stage_start));
        stage_start = kernel.steps;

        // 7. stop_machine + safety check + trampolines, with retries.
        unwind.stage = "stop_machine";
        let ranges: Vec<(u64, u64, String)> = sites
            .iter()
            .map(|s| (s.site_addr, s.site_len, s.fn_name.clone()))
            .collect();
        let writes: Vec<(u64, [u8; TRAMPOLINE_LEN])> = sites
            .iter()
            .map(|s| (s.site_addr, trampoline(s.site_addr, s.replacement_addr)))
            .collect();
        let captured = capture(
            kernel,
            tracer,
            Stage::Apply,
            &opts.retry,
            sites.len(),
            |k| patch_window(k, &ranges, &writes, hooks.of(HookKind::Apply), "apply hook"),
        )
        .map_err(|Abandoned { attempts, error }| {
            let error = match error {
                StopError::Hook(detail) => ApplyError::Hook {
                    kind: "ksplice_apply",
                    detail,
                },
                StopError::Busy { tid, fn_name } => ApplyError::NotQuiescent {
                    fn_name,
                    tid,
                    attempts,
                },
            };
            Abort {
                fields: vec![
                    ("attempts", attempts.into()),
                    ("msg", error.to_string().into()),
                ],
                error,
            }
        })?;
        for (site, buf) in sites.iter_mut().zip(captured.value) {
            site.saved = buf;
            tracer.emit(
                Stage::Apply,
                Severity::Debug,
                "apply.trampoline",
                vec![
                    ("function", site.fn_name.as_str().into()),
                    ("site_addr", site.site_addr.into()),
                    ("target", site.replacement_addr.into()),
                ],
            );
        }
        tracer.count("apply.trampolines_written", sites.len() as u64);
        stage_steps.push(("stop_machine", kernel.steps - stage_start));
        stage_start = kernel.steps;

        // 8. post_apply hooks; then drop the helpers to save memory
        //    (§5.1: "After an update has been applied, its helper module
        //    can be unloaded").
        // A post_apply failure is logged, not fatal: the update is live.
        if let Err(e) = run_hooks(kernel, &hooks, HookKind::PostApply) {
            kernel.klog.push(format!("ksplice: {e}"));
            tracer.set_now(kernel.steps);
            tracer.emit(
                Stage::Apply,
                Severity::Warn,
                "apply.post_hook_failed",
                vec![("msg", e.to_string().into())],
            );
        }
        for name in &unwind.helpers {
            kernel.rmmod(name);
        }
        tracer.set_now(kernel.steps);
        stage_steps.push(("commit", kernel.steps - stage_start));

        let report = ApplyReport {
            index: self.updates.len(),
            id: pack.id.clone(),
            attempts: captured.attempts,
            pause: captured.pause,
            pause_steps: captured.pause_steps,
            sites: sites.len(),
            stage_steps,
        };
        tracer.emit(
            Stage::Apply,
            Severity::Info,
            "apply.committed",
            vec![
                ("id", pack.id.as_str().into()),
                ("sites", report.sites.into()),
                ("attempts", report.attempts.into()),
            ],
        );
        tracer.count("apply.updates_committed", 1);
        self.updates.push(AppliedUpdate {
            id: pack.id.clone(),
            sites,
            primary_modules: std::mem::take(&mut unwind.primaries),
            hooks,
            fulfilled_relocs,
            reversed: false,
        });
        Ok(report)
    }

    /// `ksplice-undo`: reverses any live update by id — newest or not.
    pub fn undo_any(
        &mut self,
        kernel: &mut Kernel,
        id: &str,
        opts: &ApplyOptions,
    ) -> Result<(), UndoError> {
        self.undo_any_traced(kernel, id, opts, &mut Tracer::disabled())
            .map(|_| ())
    }

    /// [`Ksplice::undo_any`] with per-attempt events on `tracer`. Returns
    /// an [`UndoReport`] pairing the reversal's attempt count with the
    /// pause of its successful stop_machine window.
    ///
    /// Reversing the newest live update restores each site's saved
    /// bytes. An older one is reversed by *re-pointing*: for each of its
    /// patch sites with a direct chain successor (a later update whose
    /// site is this update's replacement code for the same function, the
    /// §5.4 stacking shape), the trampoline at this update's site is
    /// rewritten to jump straight to the successor's replacement, and the
    /// successor's undo bookkeeping inherits this site's address and
    /// saved bytes; sites without a successor restore their saved bytes.
    /// A dependency check first refuses reversals where a later live
    /// update holds other references into this update's loaded code
    /// ([`UndoError::Entangled`]).
    pub fn undo_any_traced(
        &mut self,
        kernel: &mut Kernel,
        id: &str,
        opts: &ApplyOptions,
        tracer: &mut Tracer,
    ) -> Result<UndoReport, UndoError> {
        tracer.set_now(kernel.steps);
        tracer.emit(
            Stage::Undo,
            Severity::Info,
            "undo.start",
            vec![("id", id.into())],
        );
        let span = tracer.span_start(Stage::Undo, "undo", vec![("id", id.into())]);
        let result = self.undo_inner(kernel, id, opts, tracer);
        tracer.set_now(kernel.steps);
        tracer.span_end(span);
        match &result {
            Ok(report) => {
                tracer.emit(
                    Stage::Undo,
                    Severity::Info,
                    "undo.committed",
                    vec![("id", id.into()), ("attempts", report.attempts.into())],
                );
                tracer.count("undo.updates_reversed", 1);
            }
            Err(e) => {
                let mut fields: Vec<(&str, Value)> =
                    vec![("id", id.into()), ("msg", e.to_string().into())];
                match e {
                    UndoError::NotQuiescent {
                        fn_name,
                        tid,
                        attempts,
                    } => {
                        fields.push(("busy_fn", fn_name.as_str().into()));
                        fields.push(("busy_tid", (*tid).into()));
                        fields.push(("attempts", (*attempts).into()));
                    }
                    UndoError::Entangled {
                        dependent,
                        functions,
                        ..
                    } => {
                        fields.push(("dependent", dependent.as_str().into()));
                        fields.push(("functions", functions.join(",").into()));
                        tracer.count("undo.entangled_refusals", 1);
                    }
                    _ => {}
                }
                tracer.emit(Stage::Undo, Severity::Error, "undo.abort", fields);
            }
        }
        result
    }

    fn undo_inner(
        &mut self,
        kernel: &mut Kernel,
        id: &str,
        opts: &ApplyOptions,
        tracer: &mut Tracer,
    ) -> Result<UndoReport, UndoError> {
        // The abandon paths below must leave the trampolines (and all
        // other mapped text) exactly as they found them.
        let text_before = kernel.mem.text_checksum();
        // The newest live update with this id, should a raw caller have
        // applied one id twice.
        let Some(idx) = self.updates.iter().rposition(|u| !u.reversed && u.id == id) else {
            return Err(UndoError::NotUndoable {
                id: id.to_string(),
                reason: "no live update with this id".to_string(),
            });
        };
        self.check_not_entangled(kernel, idx)?;
        let update = self.updates[idx].clone();

        // Per-site plan: re-point to the chain successor's replacement,
        // or restore the saved bytes when the chain ends here (always,
        // for the newest live update).
        let successors: Vec<Option<Successor>> = update
            .sites
            .iter()
            .map(|s| self.successor_of(idx, s))
            .collect();

        run_hooks(kernel, &update.hooks, HookKind::PreReverse).map_err(|e| match e {
            ApplyError::Hook { kind, detail } => UndoError::Hook { kind, detail },
            other => UndoError::Hook {
                kind: "ksplice_pre_reverse",
                detail: other.to_string(),
            },
        })?;

        // Reversal is safe only when no thread runs *replacement* code —
        // and, because rewriting the first bytes of the original function
        // matters to threads inside it, the original ranges get the same
        // check the paper applies on the apply side.
        let mut ranges: Vec<(u64, u64, String)> = update
            .sites
            .iter()
            .map(|s| (s.replacement_addr, s.replacement_len, s.fn_name.clone()))
            .collect();
        ranges.extend(
            update
                .sites
                .iter()
                .map(|s| (s.site_addr, s.site_len, format!("{} (original)", s.fn_name))),
        );
        let writes: Vec<(u64, [u8; TRAMPOLINE_LEN])> = update
            .sites
            .iter()
            .zip(&successors)
            .map(|(site, succ)| {
                let bytes = match succ {
                    Some(su) => trampoline(site.site_addr, su.target),
                    None => site.saved,
                };
                (site.site_addr, bytes)
            })
            .collect();
        let captured = capture(
            kernel,
            tracer,
            Stage::Undo,
            &opts.retry,
            update.sites.len(),
            |k| {
                patch_window(
                    k,
                    &ranges,
                    &writes,
                    update.hooks.of(HookKind::Reverse),
                    "reverse hook",
                )
            },
        );
        let captured = match captured {
            Ok(captured) => captured,
            Err(Abandoned { attempts, error }) => {
                cooldown(kernel, tracer, Stage::Undo, opts.retry.cooldown_steps);
                verify_text_restored(kernel, tracer, Stage::Undo, text_before);
                return Err(match error {
                    StopError::Hook(detail) => UndoError::Hook {
                        kind: "ksplice_reverse",
                        detail,
                    },
                    StopError::Busy { tid, fn_name } => UndoError::NotQuiescent {
                        fn_name,
                        tid,
                        attempts,
                    },
                });
            }
        };

        // Commit the bookkeeping: each successor inherits the reversed
        // site's address, length and saved original bytes, so a later
        // undo of the successor restores the true original function.
        let mut repointed = 0u64;
        for (site, succ) in update.sites.iter().zip(&successors) {
            let Some(su) = succ else {
                tracer.emit(
                    Stage::Undo,
                    Severity::Debug,
                    "undo.restored",
                    vec![
                        ("function", site.fn_name.as_str().into()),
                        ("site_addr", site.site_addr.into()),
                    ],
                );
                continue;
            };
            repointed += 1;
            tracer.emit(
                Stage::Undo,
                Severity::Debug,
                "undo.repointed",
                vec![
                    ("function", site.fn_name.as_str().into()),
                    ("site_addr", site.site_addr.into()),
                    ("target", su.target.into()),
                    ("successor", self.updates[su.update].id.as_str().into()),
                ],
            );
            let t = &mut self.updates[su.update].sites[su.site];
            t.site_addr = site.site_addr;
            t.site_len = site.site_len;
            t.saved = site.saved;
        }
        if repointed > 0 {
            tracer.count("undo.sites_repointed", repointed);
        }
        run_hooks(kernel, &update.hooks, HookKind::PostReverse).ok();
        for name in &update.primary_modules {
            kernel.rmmod(name);
        }
        self.updates[idx].reversed = true;
        Ok(UndoReport {
            id: id.to_string(),
            attempts: captured.attempts,
            pause: captured.pause,
            sites_restored: update.sites.len(),
        })
    }

    /// Dependency check for reversing `self.updates[idx]`: a later live
    /// update may sit *on* its replacement code only as a direct chain
    /// successor (same function, site == our replacement). Any other
    /// reference into its modules — a patch site, a fulfilled relocation
    /// target, a hook — makes the reversal unsafe.
    fn check_not_entangled(&self, kernel: &Kernel, idx: usize) -> Result<(), UndoError> {
        let update = &self.updates[idx];
        let mut later = self.updates[idx + 1..]
            .iter()
            .filter(|u| !u.reversed)
            .peekable();
        if later.peek().is_none() {
            // The newest live update: nothing can depend on it.
            return Ok(());
        }
        // This update's loaded code: the memory regions of its primary
        // modules.
        let prefixes: Vec<String> = update
            .primary_modules
            .iter()
            .map(|m| format!("{m}:"))
            .collect();
        let owned: Vec<(u64, u64)> = kernel
            .mem
            .regions()
            .iter()
            .filter(|r| prefixes.iter().any(|p| r.name.starts_with(p.as_str())))
            .map(|r| (r.start, r.size))
            .collect();
        let within = |addr: u64| owned.iter().any(|(s, l)| addr >= *s && addr < s + l);
        for later in later {
            let mut tied: Vec<String> = Vec::new();
            for t in &later.sites {
                let successor = update
                    .sites
                    .iter()
                    .any(|s| t.site_addr == s.replacement_addr && t.fn_name == s.fn_name);
                if !successor && within(t.site_addr) {
                    tied.push(t.fn_name.clone());
                }
            }
            for (symbol, addr) in &later.fulfilled_relocs {
                if within(*addr) {
                    tied.push(symbol.clone());
                }
            }
            for kind in HookKind::ALL {
                if later.hooks.of(kind).iter().any(|&h| within(h)) {
                    tied.push(format!("{} hook", kind.macro_name()));
                }
            }
            tied.sort();
            tied.dedup();
            if !tied.is_empty() {
                return Err(UndoError::Entangled {
                    id: update.id.clone(),
                    dependent: later.id.clone(),
                    functions: tied,
                });
            }
        }
        Ok(())
    }

    /// The first later live update whose site for the same function is
    /// `site`'s replacement code — the §5.4 chain successor that
    /// inherits `site` when `self.updates[idx]` is reversed.
    fn successor_of(&self, idx: usize, site: &PatchSite) -> Option<Successor> {
        self.updates
            .iter()
            .enumerate()
            .skip(idx + 1)
            .filter(|(_, later)| !later.reversed)
            .find_map(|(update, later)| {
                let pos = later.sites.iter().position(|t| {
                    t.site_addr == site.replacement_addr && t.fn_name == site.fn_name
                })?;
                Some(Successor {
                    update,
                    site: pos,
                    target: later.sites[pos].replacement_addr,
                })
            })
    }
}

/// A chain successor of a site being reversed: `updates[update].sites[site]`,
/// whose replacement code at `target` the reversed site's trampoline is
/// re-pointed to.
struct Successor {
    update: usize,
    site: usize,
    target: u64,
}

/// What an apply has done so far that an abort must undo.
struct Unwind {
    /// The stage running now, reported by the `apply.abort` event.
    stage: &'static str,
    /// Text checksum of the pre-apply kernel, which an abort restores.
    text_before: u64,
    /// Helper modules loaded so far, in load order.
    helpers: Vec<String>,
    /// Primary modules loaded so far, in load order.
    primaries: Vec<String>,
}

impl Unwind {
    /// The one apply abort path: unloads the primaries and then the
    /// helpers, each in load order, gives blocked threads the retry
    /// policy's cooldown when the stop_machine stage gave up, checks that
    /// the text is restored, and emits the `apply.abort` event.
    fn abort(
        self,
        kernel: &mut Kernel,
        tracer: &mut Tracer,
        id: &str,
        opts: &ApplyOptions,
        abort: Abort,
    ) -> ApplyError {
        for name in self.primaries.iter().chain(&self.helpers) {
            kernel.rmmod(name);
        }
        if self.stage == "stop_machine" {
            cooldown(kernel, tracer, Stage::Apply, opts.retry.cooldown_steps);
        }
        // Hooks may have run the kernel since the last stamp.
        tracer.set_now(kernel.steps);
        verify_text_restored(kernel, tracer, Stage::Apply, self.text_before);
        let mut fields = vec![("id", id.into()), ("stage", self.stage.into())];
        fields.extend(abort.fields);
        tracer.emit(Stage::Apply, Severity::Error, "apply.abort", fields);
        abort.error
    }
}

/// A failed apply stage on its way to [`Unwind::abort`]: the error the
/// caller gets and the `apply.abort` fields that follow `id` and `stage`.
struct Abort {
    error: ApplyError,
    fields: Vec<(&'static str, Value)>,
}

impl From<LinkError> for Abort {
    fn from(e: LinkError) -> Abort {
        Abort {
            fields: vec![("msg", e.to_string().into())],
            error: ApplyError::Link(e),
        }
    }
}

impl From<MatchError> for Abort {
    fn from(e: MatchError) -> Abort {
        Abort {
            fields: vec![("msg", e.to_string().into())],
            error: ApplyError::Match(e),
        }
    }
}

impl From<ApplyError> for Abort {
    fn from(error: ApplyError) -> Abort {
        Abort {
            fields: vec![("msg", error.to_string().into())],
            error,
        }
    }
}

/// Why one stop_machine capture window was abandoned.
enum StopError {
    /// Thread `tid` is inside `fn_name`: the §5.2 stack check failed, or
    /// vCPU `tid` missed the barrier rendezvous (`fn_name` is then
    /// `<barrier:cpuN>`). Retryable — the next attempt captures from
    /// scratch.
    Busy { tid: u64, fn_name: String },
    /// A stopped-machine hook failed. Not retried.
    Hook(String),
}

/// A stop_machine window that succeeded.
struct Captured<T> {
    /// What the window returned.
    value: T,
    /// Capture attempts it took (1 = first try).
    attempts: u32,
    /// Wall-clock pause of the successful window.
    pause: Duration,
    /// Simulated pause of the successful window, in VM steps.
    pause_steps: u64,
}

/// A capture loop that gave up, with the last attempt's failure.
struct Abandoned {
    attempts: u32,
    error: StopError,
}

/// The §5.2 capture loop shared by apply and undo. Each attempt opens a
/// stop_machine window and runs `window` on the stopped machine. A busy
/// stack or a missed barrier retries after the policy's delay until the
/// attempts run out; a failed hook gives up at once. Emits one
/// `<stage>.attempt` span and one `<stage>.stop_machine` event per
/// attempt; `sites` (the text sites the window rewrites) goes on the
/// `vm.icache_flush` event of the successful window.
fn capture<T>(
    kernel: &mut Kernel,
    tracer: &mut Tracer,
    stage: Stage,
    retry: &RetryPolicy,
    sites: usize,
    mut window: impl FnMut(&mut Kernel) -> Result<T, StopError>,
) -> Result<Captured<T>, Abandoned> {
    let (attempt_span, attempts_counter, pause_histogram, stop_event, delay_event) = match stage {
        Stage::Undo => (
            "undo.attempt",
            "undo.stop_machine_attempts",
            "undo.pause_us",
            "undo.stop_machine",
            "undo.retry_delay",
        ),
        _ => (
            "apply.attempt",
            "apply.stop_machine_attempts",
            "apply.pause_us",
            "apply.stop_machine",
            "apply.retry_delay",
        ),
    };
    let mut attempt = 0;
    loop {
        attempt += 1;
        let span = tracer.span_start(stage, attempt_span, vec![("attempt", attempt.into())]);
        let evicted_before = kernel.vm_stats.blocks_evicted;
        let result = kernel.stop_machine(&mut window).unwrap_or_else(
            // A barrier timeout means `window` never ran: flatten it into
            // the retryable busy path.
            |StopMachineError::BarrierTimeout { cpu }| {
                Err(StopError::Busy {
                    tid: cpu as u64,
                    fn_name: format!("<barrier:cpu{cpu}>"),
                })
            },
        );
        tracer.set_now(kernel.steps);
        tracer.count(attempts_counter, 1);
        let pause_us = kernel
            .last_stop_machine
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        tracer.observe(pause_histogram, pause_us);
        let error = match result {
            Ok(value) => {
                tracer.emit(
                    stage,
                    Severity::Info,
                    stop_event,
                    vec![
                        ("attempt", attempt.into()),
                        ("ok", true.into()),
                        ("pause_us", pause_us.into()),
                    ],
                );
                tracer.count("vm.icache_flush", 1);
                tracer.emit(
                    stage,
                    Severity::Debug,
                    "vm.icache_flush",
                    vec![
                        ("sites", sites.into()),
                        (
                            "evicted",
                            (kernel.vm_stats.blocks_evicted - evicted_before).into(),
                        ),
                    ],
                );
                tracer.span_end(span);
                return Ok(Captured {
                    value,
                    attempts: attempt,
                    pause: kernel.last_stop_machine.unwrap_or_default(),
                    pause_steps: kernel.last_stop_machine_steps,
                });
            }
            Err(error) => error,
        };
        let (busy_tid, busy_fn) = match &error {
            StopError::Busy { tid, fn_name } => (*tid, fn_name.as_str()),
            StopError::Hook(detail) => (0, detail.as_str()),
        };
        tracer.emit(
            stage,
            Severity::Warn,
            stop_event,
            vec![
                ("attempt", attempt.into()),
                ("ok", false.into()),
                ("pause_us", pause_us.into()),
                ("busy_tid", busy_tid.into()),
                ("busy_fn", busy_fn.into()),
            ],
        );
        if matches!(error, StopError::Hook(_)) || attempt >= retry.max_attempts {
            tracer.span_end(span);
            return Err(Abandoned {
                attempts: attempt,
                error,
            });
        }
        // "Ksplice tries again after a short delay" (§5.2): the delay
        // follows the configured backoff curve.
        let delay = retry.delay_steps(attempt);
        tracer.emit(
            stage,
            Severity::Debug,
            delay_event,
            vec![("attempt", attempt.into()), ("steps", delay.into())],
        );
        kernel.run(delay);
        tracer.set_now(kernel.steps);
        tracer.span_end(span);
    }
}

/// Runs the abandon-path cooldown, if the policy asks for one: gives
/// blocked threads `steps` instructions to drain after the rollback,
/// before the failure is reported.
fn cooldown(kernel: &mut Kernel, tracer: &mut Tracer, stage: Stage, steps: u64) {
    if steps == 0 {
        return;
    }
    let name = match stage {
        Stage::Undo => "undo.cooldown",
        _ => "apply.cooldown",
    };
    tracer.emit(stage, Severity::Debug, name, vec![("steps", steps.into())]);
    kernel.run(steps);
    tracer.set_now(kernel.steps);
}

/// Checks the clean-abort invariant after a rollback: mapped kernel text
/// must hash identically to the pre-apply (or pre-undo) image. Emits a
/// `*.rollback_verified` event either way; a mismatch is an `Error`
/// event plus an `undo.rollbacks_mismatched` count, never a panic — the
/// kernel must limp on so the operator can inspect it.
pub(crate) fn verify_text_restored(
    kernel: &Kernel,
    tracer: &mut Tracer,
    stage: Stage,
    expected: u64,
) -> bool {
    let restored = kernel.mem.text_checksum() == expected;
    let name = match stage {
        Stage::Undo => "undo.rollback_verified",
        Stage::Watch => "watch.rollback_verified",
        _ => "apply.rollback_verified",
    };
    tracer.emit(
        stage,
        if restored {
            Severity::Debug
        } else {
            Severity::Error
        },
        name,
        vec![("restored", restored.into())],
    );
    if !restored {
        tracer.count("undo.rollbacks_mismatched", 1);
    }
    restored
}

/// Returns the thread and name of a function some live thread is inside,
/// if any — the §5.2 safety condition over instruction pointers and
/// return addresses. An armed stack-busy fault reports a synthetic
/// occupant first, exercising the retry/abandon machinery on demand.
fn busy_function(kernel: &mut Kernel, ranges: &[(u64, u64, String)]) -> Option<(u64, String)> {
    if kernel.num_cpus() > 1 {
        // At N ≥ 2 an armed stack-busy fault is realized *physically*:
        // a vCPU thread is parked at the target's entry (and released
        // once the armed windows run out), so the generic scan below
        // finds a genuine instruction pointer — no synthetic verdict.
        // The window bookkeeping and fired log march exactly as at
        // N = 1; with no fault armed this costs one integer compare.
        let addr = ranges.first().map(|&(a, _, _)| a).unwrap_or(0);
        if kernel.park_fault_vcpu(addr).is_some() {
            kernel.faults.stack_check_busy(ranges);
        }
    } else if let Some(hit) = kernel.faults.stack_check_busy(ranges) {
        return Some(hit);
    }
    for (tid, backtrace) in kernel.all_backtraces() {
        for addr in backtrace {
            for (start, len, name) in ranges {
                if addr >= *start && addr < start + len {
                    return Some((tid, name.clone()));
                }
            }
        }
    }
    None
}

/// The redirecting jump written at a replaced function's entry `site`.
fn trampoline(site: u64, target: u64) -> [u8; TRAMPOLINE_LEN] {
    let rel = target.wrapping_sub(site + TRAMPOLINE_LEN as u64) as i64;
    let rel = i32::try_from(rel).expect("arena spans < 2 GiB");
    let mut bytes = Vec::with_capacity(TRAMPOLINE_LEN);
    Instr::Jmp32(rel).encode(&mut bytes);
    bytes.try_into().expect("a jmp32 is TRAMPOLINE_LEN bytes")
}

/// The stopped-machine body apply and undo share: the §5.2 safety check
/// over `ranges`, then each `(site, bytes)` write with the overwritten
/// bytes saved, an icache flush (the new routing is live the instant the
/// machine resumes, as after flush_icache_range), and the stopped-machine
/// `hooks` (§5.3). A failing hook puts the saved bytes back and flushes
/// again before the window reports it, so a window either rewrites every
/// site or none. Returns the saved bytes in site order.
fn patch_window(
    kernel: &mut Kernel,
    ranges: &[(u64, u64, String)],
    writes: &[(u64, [u8; TRAMPOLINE_LEN])],
    hooks: &[u64],
    hook_label: &str,
) -> Result<Vec<[u8; TRAMPOLINE_LEN]>, StopError> {
    if let Some((tid, fn_name)) = busy_function(kernel, ranges) {
        return Err(StopError::Busy { tid, fn_name });
    }
    let mut saved = Vec::with_capacity(writes.len());
    for (site, bytes) in writes {
        let old = kernel
            .mem
            .peek(*site, TRAMPOLINE_LEN as u64)
            .expect("site is mapped");
        saved.push(<[u8; TRAMPOLINE_LEN]>::try_from(old).expect("peeked TRAMPOLINE_LEN bytes"));
        kernel.mem.poke(*site, bytes).expect("site is mapped");
    }
    kernel.flush_icache();
    for &h in hooks {
        if let Err(detail) = call_hook(kernel, h) {
            for ((site, _), old) in writes.iter().zip(&saved) {
                kernel.mem.poke(*site, old).expect("site is mapped");
            }
            kernel.flush_icache();
            return Err(StopError::Hook(format!("{hook_label}: {detail}")));
        }
    }
    Ok(saved)
}

/// Resolves one unit's hook entries to loaded addresses.
fn resolve_hooks(
    kernel: &Kernel,
    unit: &str,
    loaded: &LoadedModule,
    obj: &Object,
    matches: &BTreeMap<String, UnitMatch>,
    out: &mut ResolvedHooks,
) -> Result<(), ApplyError> {
    for kind in HookKind::ALL {
        let Some((_, sec)) = obj.section_by_name(kind.section_name()) else {
            continue;
        };
        debug_assert_eq!(sec.kind, SectionKind::Note);
        for r in &sec.relocs {
            debug_assert_eq!(r.kind, RelocKind::Abs64);
            let name = obj
                .symbols
                .get(r.symbol)
                .map(|s| s.name.as_str())
                .unwrap_or("");
            let addr = loaded
                .symbol_addr(name)
                .or_else(|| {
                    matches
                        .get(unit)
                        .and_then(|m| m.bindings.get(name).copied())
                })
                .or_else(|| kernel.syms.lookup_global(name).map(|s| s.addr));
            let Some(addr) = addr else {
                return Err(ApplyError::Unresolved {
                    unit: unit.to_string(),
                    symbol: name.to_string(),
                });
            };
            out.push(kind, addr);
        }
    }
    Ok(())
}

/// Runs all hooks of a kind; a non-zero return or an oops aborts.
fn run_hooks(kernel: &mut Kernel, hooks: &ResolvedHooks, kind: HookKind) -> Result<(), ApplyError> {
    for &addr in hooks.of(kind) {
        call_hook(kernel, addr).map_err(|detail| ApplyError::Hook {
            kind: kind.macro_name(),
            detail,
        })?;
    }
    Ok(())
}

fn call_hook(kernel: &mut Kernel, addr: u64) -> Result<(), String> {
    match kernel.call_at(addr, &[]) {
        Ok(0) => Ok(()),
        Ok(code) => Err(format!("hook returned {code}")),
        Err(e) => Err(e.to_string()),
    }
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}
