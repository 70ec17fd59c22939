//! The update lifecycle manager: pre-flight validation, a health-probed
//! quarantine window with automatic rollback, and non-LIFO reversal of
//! stacked updates.
//!
//! The paper treats `ksplice-apply`/`ksplice-undo` as one-shot operations
//! (§5), but its own evaluation keeps 64 CVE updates live on
//! long-running kernels (§5.4, §6). Operating that fleet needs a
//! *lifecycle* around the one-shot primitives:
//!
//! * **Pre-flight gate** ([`preflight`]): a package is validated against
//!   the pack's own internal consistency, the live update set, and the
//!   kernel's symbol table *before* any kernel mutation. A rejected pack
//!   never loads a module and never reaches `stop_machine`.
//! * **Watch window** ([`UpdateManager::apply_watched`]): a freshly
//!   applied update starts [`UpdateState::Quarantined`]. Caller-supplied
//!   [`HealthProbe`]s run against the patched kernel for a configurable
//!   number of probe rounds (the kernel scheduler advances between
//!   rounds, so probes execute under the step clock). Any failure — a
//!   canary returning the wrong value, a custom check failing, or a new
//!   oops — triggers an automatic, checksum-verified rollback and the
//!   update ends [`UpdateState::RolledBack`]. Only a clean window
//!   promotes it to [`UpdateState::Committed`].
//! * **Non-LIFO undo** ([`Ksplice::undo_any_traced`]): reversing update
//!   A while a later update B is live re-points B's trampoline chain
//!   (B's patch site *is* A's replacement code when both patch the same
//!   function, §5.4) instead of refusing. A dependency check still
//!   refuses truly entangled reversals — B holding relocated references
//!   into A's loaded code — with [`UndoError::Entangled`] naming the
//!   tying symbols.

use std::collections::BTreeMap;
use std::fmt;

use ksplice_kernel::{native_addr, Kernel};
use ksplice_trace::{Severity, Stage, Tracer};

use crate::apply::{
    verify_text_restored, ApplyError, ApplyOptions, ApplyReport, Ksplice, UndoError, UndoReport,
};
use crate::package::UpdatePack;

/// Errors from the pre-flight gate. None of these leave any trace in the
/// kernel: a rejected pack never loads a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreflightError {
    /// The pack's basic shape is wrong (empty id, no units, duplicate
    /// unit names).
    BadPack {
        /// What is malformed, for the operator.
        detail: String,
    },
    /// A replaced function is not defined by its unit's helper object,
    /// so run-pre matching could never locate it.
    MissingHelperSymbol {
        /// The inconsistent unit.
        unit: String,
        /// The function the helper fails to define.
        fn_name: String,
    },
    /// A replaced function's section is absent from the primary object,
    /// so there is no replacement code to redirect to.
    MissingPrimarySection {
        /// The inconsistent unit.
        unit: String,
        /// The missing replacement section.
        section: String,
    },
    /// The pack replaces the same function twice.
    DuplicateInPack {
        /// The doubly-replaced function.
        fn_name: String,
        /// The two units that both claim it.
        units: (String, String),
    },
    /// A live update from a *different* unit already replaces this
    /// function; applying both would chain trampolines across unrelated
    /// packages. (Re-patching the same unit is the legitimate §5.4 case
    /// and is allowed.)
    Conflict {
        /// The contested function.
        fn_name: String,
        /// The live update already patching it.
        live_update: String,
        /// The unit the live update patched it through.
        unit: String,
    },
    /// A primary relocation references a symbol that no resolution path
    /// could ever supply: not defined in the primary, not known to the
    /// helper (so run-pre binding recovery cannot see it), not in
    /// kallsyms, and not a kernel native.
    UnknownRelocTarget {
        /// The unit whose replacement code holds the relocation.
        unit: String,
        /// The unresolvable symbol.
        symbol: String,
    },
}

impl fmt::Display for PreflightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreflightError::BadPack { detail } => write!(f, "malformed pack: {detail}"),
            PreflightError::MissingHelperSymbol { unit, fn_name } => {
                write!(f, "{unit}: helper does not define replaced fn `{fn_name}`")
            }
            PreflightError::MissingPrimarySection { unit, section } => {
                write!(f, "{unit}: primary has no replacement section `{section}`")
            }
            PreflightError::DuplicateInPack { fn_name, units } => write!(
                f,
                "`{fn_name}` replaced twice in one pack (units {} and {})",
                units.0, units.1
            ),
            PreflightError::Conflict {
                fn_name,
                live_update,
                unit,
            } => write!(
                f,
                "`{fn_name}` already patched by live update {live_update} via unit {unit}"
            ),
            PreflightError::UnknownRelocTarget { unit, symbol } => {
                write!(f, "{unit}: no resolution path for reloc target `{symbol}`")
            }
        }
    }
}

impl std::error::Error for PreflightError {}

/// Validates a pack against itself, the live update set, and the
/// kernel's symbol table, without touching kernel state. Emits
/// `preflight.*` events: `preflight.start`, then `preflight.ok`,
/// `preflight.supersedes` (the legitimate §5.4 same-unit re-patch) or an
/// error-severity `preflight.reject` plus an `apply.packs_rejected`
/// count, all inside a `preflight` span.
pub fn preflight(
    ks: &Ksplice,
    kernel: &Kernel,
    pack: &UpdatePack,
    tracer: &mut Tracer,
) -> Result<(), PreflightError> {
    let span = tracer.span_start(
        Stage::Apply,
        "preflight",
        vec![("id", pack.id.as_str().into())],
    );
    let result = preflight_spanned(ks, kernel, pack, tracer);
    tracer.span_end(span);
    result
}

fn preflight_spanned(
    ks: &Ksplice,
    kernel: &Kernel,
    pack: &UpdatePack,
    tracer: &mut Tracer,
) -> Result<(), PreflightError> {
    tracer.emit(
        Stage::Apply,
        Severity::Debug,
        "preflight.start",
        vec![
            ("id", pack.id.as_str().into()),
            ("units", pack.units.len().into()),
        ],
    );
    let result = preflight_inner(ks, kernel, pack, tracer);
    match &result {
        Ok(()) => tracer.emit(
            Stage::Apply,
            Severity::Debug,
            "preflight.ok",
            vec![("id", pack.id.as_str().into())],
        ),
        Err(e) => {
            tracer.count("apply.packs_rejected", 1);
            tracer.emit(
                Stage::Apply,
                Severity::Error,
                "preflight.reject",
                vec![
                    ("id", pack.id.as_str().into()),
                    ("msg", e.to_string().into()),
                ],
            );
        }
    }
    result
}

fn preflight_inner(
    ks: &Ksplice,
    kernel: &Kernel,
    pack: &UpdatePack,
    tracer: &mut Tracer,
) -> Result<(), PreflightError> {
    // 1. Pack shape.
    if pack.id.is_empty() {
        return Err(PreflightError::BadPack {
            detail: "empty update id".to_string(),
        });
    }
    if pack.units.is_empty() {
        return Err(PreflightError::BadPack {
            detail: "no units".to_string(),
        });
    }
    let mut unit_names: Vec<&str> = pack.units.iter().map(|u| u.unit.as_str()).collect();
    unit_names.sort_unstable();
    if let Some(w) = unit_names.windows(2).find(|w| w[0] == w[1]) {
        return Err(PreflightError::BadPack {
            detail: format!("duplicate unit `{}`", w[0]),
        });
    }

    // 2. Helper/primary consistency per replaced function, and duplicate
    //    detection within the pack.
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    for up in &pack.units {
        for (sec_name, fn_name) in &up.replaced_fns {
            let defined = up
                .helper
                .symbol_by_name(fn_name)
                .is_some_and(|(_, s)| s.def.is_some());
            if !defined {
                return Err(PreflightError::MissingHelperSymbol {
                    unit: up.unit.clone(),
                    fn_name: fn_name.clone(),
                });
            }
            if up.primary.section_by_name(sec_name).is_none() {
                return Err(PreflightError::MissingPrimarySection {
                    unit: up.unit.clone(),
                    section: sec_name.clone(),
                });
            }
            if let Some(prev) = seen.insert(fn_name, &up.unit) {
                return Err(PreflightError::DuplicateInPack {
                    fn_name: fn_name.clone(),
                    units: (prev.to_string(), up.unit.clone()),
                });
            }
        }
    }

    // 3. Patch-site conflicts against the live update set. The same
    //    function re-patched through the *same* unit is the §5.4
    //    stacked-update case (run-pre will match the latest replacement);
    //    through a different unit it is a conflict.
    for up in &pack.units {
        for (_, fn_name) in &up.replaced_fns {
            for live in ks.live_updates() {
                for site in live.sites.iter().filter(|s| &s.fn_name == fn_name) {
                    if site.unit != up.unit {
                        return Err(PreflightError::Conflict {
                            fn_name: fn_name.clone(),
                            live_update: live.id.clone(),
                            unit: site.unit.clone(),
                        });
                    }
                    tracer.emit(
                        Stage::Apply,
                        Severity::Info,
                        "preflight.supersedes",
                        vec![
                            ("function", fn_name.as_str().into()),
                            ("prior_update", live.id.as_str().into()),
                        ],
                    );
                }
            }
        }
    }

    // 4. Relocation-target sanity: every symbol the primary's relocations
    //    reference must have at least one possible resolution path —
    //    defined in the primary itself, visible to the helper (so §4.2
    //    binding recovery can supply it), a kallsyms global, or a kernel
    //    native. Anything else is guaranteed to abort mid-apply; catch it
    //    before any module loads.
    for up in &pack.units {
        for sec in &up.primary.sections {
            for r in &sec.relocs {
                let Some(sym) = up.primary.symbols.get(r.symbol) else {
                    continue;
                };
                if sym.name.is_empty() || sym.def.is_some() {
                    continue;
                }
                let reachable = up.helper.symbol_by_name(&sym.name).is_some()
                    || kernel.syms.lookup_global(&sym.name).is_some()
                    || native_addr(&sym.name).is_some();
                if !reachable {
                    return Err(PreflightError::UnknownRelocTarget {
                        unit: up.unit.clone(),
                        symbol: sym.name.clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// One health check run against the patched kernel during the watch
/// window.
pub enum HealthProbe {
    /// Call a kernel function and require an exact return value — the
    /// canary form. A syscall returning its pre-patch (vulnerable)
    /// answer, or oopsing, fails the probe.
    Canary {
        /// Probe name for events and reports.
        name: String,
        /// Kernel function (kallsyms global) to call.
        fn_name: String,
        /// Arguments to pass.
        args: Vec<u64>,
        /// The required return value.
        expected: u64,
    },
    /// An arbitrary check (e.g. the eval crate's exploit replays).
    Custom {
        /// Probe name for events and reports.
        name: String,
        /// The check; `Err(reason)` fails the probe.
        check: ProbeCheck,
    },
}

/// The check run by a [`HealthProbe::Custom`] probe; `Err(reason)` fails
/// the probe.
pub type ProbeCheck = Box<dyn FnMut(&mut Kernel) -> Result<(), String>>;

impl HealthProbe {
    /// The probe's display name.
    pub fn name(&self) -> &str {
        match self {
            HealthProbe::Canary { name, .. } => name,
            HealthProbe::Custom { name, .. } => name,
        }
    }

    /// A canary probe: `fn_name(args...)` must return `expected`.
    pub fn canary(fn_name: &str, args: &[u64], expected: u64) -> HealthProbe {
        HealthProbe::Canary {
            name: format!("canary:{fn_name}"),
            fn_name: fn_name.to_string(),
            args: args.to_vec(),
            expected,
        }
    }

    /// Parses a CLI canary spec: `fn=expected` or `fn(arg,arg)=expected`
    /// (decimal integers; `expected` may be negative, stored two's
    /// complement).
    pub fn parse(spec: &str) -> Result<HealthProbe, String> {
        let (lhs, rhs) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad probe `{spec}` (expected `fn(args)=result`)"))?;
        let expected = rhs
            .trim()
            .parse::<i64>()
            .map_err(|_| format!("bad probe result `{rhs}` (expected an integer)"))?
            as u64;
        let lhs = lhs.trim();
        let (fn_name, args) = match lhs.split_once('(') {
            Some((name, rest)) => {
                let inner = rest
                    .strip_suffix(')')
                    .ok_or_else(|| format!("bad probe `{spec}` (unclosed `(`)"))?;
                let args = inner
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(|a| {
                        a.parse::<i64>()
                            .map(|v| v as u64)
                            .map_err(|_| format!("bad probe argument `{a}`"))
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                (name.trim(), args)
            }
            None => (lhs, Vec::new()),
        };
        if fn_name.is_empty() {
            return Err(format!("bad probe `{spec}` (empty function name)"));
        }
        Ok(HealthProbe::canary(fn_name, &args, expected))
    }
}

impl fmt::Debug for HealthProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthProbe::Canary {
                name,
                fn_name,
                args,
                expected,
            } => f
                .debug_struct("Canary")
                .field("name", name)
                .field("fn_name", fn_name)
                .field("args", args)
                .field("expected", expected)
                .finish(),
            HealthProbe::Custom { name, .. } => {
                f.debug_struct("Custom").field("name", name).finish()
            }
        }
    }
}

/// Shape of the quarantine watch window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchPolicy {
    /// Probe rounds a fresh update must survive before commit.
    pub rounds: u32,
    /// Kernel steps the scheduler runs between probe rounds, so probes
    /// observe a kernel that has actually executed patched code paths.
    pub steps_per_round: u64,
}

impl Default for WatchPolicy {
    fn default() -> WatchPolicy {
        WatchPolicy {
            rounds: 3,
            steps_per_round: 2_000,
        }
    }
}

/// Lifecycle state of one update under management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateState {
    /// Applied, inside the watch window; not yet trusted.
    Quarantined,
    /// Survived a clean watch window.
    Committed,
    /// Automatically reversed after a failed health probe.
    RolledBack,
    /// Reversed on operator request.
    Reversed,
}

impl fmt::Display for UpdateState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UpdateState::Quarantined => "quarantined",
            UpdateState::Committed => "committed",
            UpdateState::RolledBack => "rolled-back",
            UpdateState::Reversed => "reversed",
        })
    }
}

/// Errors from the managed apply path.
#[derive(Debug)]
pub enum LifecycleError {
    /// The pre-flight gate rejected the pack; the kernel is untouched.
    Preflight(PreflightError),
    /// The underlying apply failed (and cleaned up after itself).
    Apply(ApplyError),
    /// A watch-window probe failed and the update was automatically
    /// rolled back; the kernel text is back to its pre-apply image.
    Quarantine {
        /// The rolled-back update.
        id: String,
        /// The probe that failed.
        probe: String,
        /// The round (1-based) it failed in.
        round: u32,
        /// Why the probe failed.
        reason: String,
        /// The automatic rollback's report.
        undo: Box<UndoReport>,
    },
    /// A probe failed *and* the automatic rollback could not complete;
    /// the update is still live and still quarantined. The operator must
    /// intervene.
    RollbackFailed {
        /// The stuck update.
        id: String,
        /// The probe that failed.
        probe: String,
        /// Why the probe failed.
        reason: String,
        /// Why the rollback failed.
        undo: Box<UndoError>,
    },
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::Preflight(e) => write!(f, "preflight rejected: {e}"),
            LifecycleError::Apply(e) => write!(f, "apply failed: {e}"),
            LifecycleError::Quarantine {
                id,
                probe,
                round,
                reason,
                ..
            } => write!(
                f,
                "update {id} failed quarantine (probe {probe}, round {round}: {reason}); automatically rolled back"
            ),
            LifecycleError::RollbackFailed {
                id,
                probe,
                reason,
                undo,
            } => write!(
                f,
                "update {id} failed quarantine (probe {probe}: {reason}) and rollback failed: {undo}"
            ),
        }
    }
}

impl std::error::Error for LifecycleError {}

/// One row of [`UpdateManager::status`].
#[derive(Debug, Clone)]
pub struct UpdateStatus {
    /// Update id.
    pub id: String,
    /// Lifecycle state.
    pub state: UpdateState,
    /// Patch sites the update holds (held, if reversed).
    pub sites: usize,
}

/// The lifecycle layer over [`Ksplice`]: owns the core state plus the
/// per-update lifecycle states and the watch policy.
#[derive(Debug, Default)]
pub struct UpdateManager {
    ks: Ksplice,
    states: BTreeMap<String, UpdateState>,
    watch: WatchPolicy,
}

impl UpdateManager {
    /// A fresh manager with the default watch policy.
    pub fn new() -> UpdateManager {
        UpdateManager::default()
    }

    /// A fresh manager with the given watch policy.
    pub fn with_watch(watch: WatchPolicy) -> UpdateManager {
        UpdateManager {
            watch,
            ..UpdateManager::default()
        }
    }

    /// The underlying core state.
    pub fn ksplice(&self) -> &Ksplice {
        &self.ks
    }

    /// Mutable access to the underlying core state, for callers mixing
    /// managed and raw applies. Raw applies show up in [`status`] as
    /// committed (live) or reversed.
    ///
    /// [`status`]: UpdateManager::status
    pub fn ksplice_mut(&mut self) -> &mut Ksplice {
        &mut self.ks
    }

    /// The active watch policy.
    pub fn watch(&self) -> &WatchPolicy {
        &self.watch
    }

    /// The lifecycle state of an update this manager applied.
    pub fn state(&self, id: &str) -> Option<UpdateState> {
        self.states.get(id).copied()
    }

    /// Lifecycle status of every update, oldest first.
    pub fn status(&self) -> Vec<UpdateStatus> {
        self.ks
            .updates
            .iter()
            .map(|u| UpdateStatus {
                id: u.id.clone(),
                state: self.states.get(&u.id).copied().unwrap_or(if u.reversed {
                    UpdateState::Reversed
                } else {
                    UpdateState::Committed
                }),
                sites: u.sites.len(),
            })
            .collect()
    }

    /// Human-readable status table (`ksplice status`).
    pub fn render_status(&self) -> String {
        let rows = self.status();
        if rows.is_empty() {
            return "no updates\n".to_string();
        }
        let idw = rows.iter().map(|r| r.id.len()).max().unwrap_or(2).max(2);
        let mut out = format!("{:<idw$}  {:<11}  {:>5}\n", "ID", "STATE", "SITES");
        for r in &rows {
            out.push_str(&format!(
                "{:<idw$}  {:<11}  {:>5}\n",
                r.id,
                r.state.to_string(),
                r.sites
            ));
        }
        out
    }

    /// The full managed apply: pre-flight gate, apply, then the
    /// quarantine watch window. On a probe failure the update is
    /// automatically reversed (checksum-verified against the pre-apply
    /// text image) and the call returns [`LifecycleError::Quarantine`].
    pub fn apply_watched(
        &mut self,
        kernel: &mut Kernel,
        pack: &UpdatePack,
        probes: &mut [HealthProbe],
        opts: &ApplyOptions,
        tracer: &mut Tracer,
    ) -> Result<ApplyReport, LifecycleError> {
        tracer.set_now(kernel.steps);
        let span = tracer.span_start(
            Stage::Apply,
            "update",
            vec![("id", pack.id.as_str().into())],
        );
        let result = self.apply_watched_inner(kernel, pack, probes, opts, tracer);
        tracer.set_now(kernel.steps);
        tracer.span_end(span);
        result
    }

    fn apply_watched_inner(
        &mut self,
        kernel: &mut Kernel,
        pack: &UpdatePack,
        probes: &mut [HealthProbe],
        opts: &ApplyOptions,
        tracer: &mut Tracer,
    ) -> Result<ApplyReport, LifecycleError> {
        preflight(&self.ks, kernel, pack, tracer).map_err(LifecycleError::Preflight)?;
        let text_before = kernel.mem.text_checksum();
        let report = self
            .ks
            .apply_traced(kernel, pack, opts, tracer)
            .map_err(LifecycleError::Apply)?;
        self.states
            .insert(pack.id.clone(), UpdateState::Quarantined);
        let watch_span = tracer.span_start(
            Stage::Watch,
            "watch",
            vec![
                ("id", pack.id.as_str().into()),
                ("rounds", self.watch.rounds.into()),
            ],
        );
        tracer.emit(
            Stage::Watch,
            Severity::Info,
            "watch.start",
            vec![
                ("id", pack.id.as_str().into()),
                ("rounds", self.watch.rounds.into()),
                ("steps_per_round", self.watch.steps_per_round.into()),
                ("probes", probes.len().into()),
            ],
        );
        let oopses_before = kernel.oopses.len();
        // A labeled block so the failure paths fall out through the same
        // span-closing tail as the commit path.
        let watched: Result<(), LifecycleError> = 'watch: {
            for round in 1..=self.watch.rounds {
                kernel.run(self.watch.steps_per_round);
                tracer.set_now(kernel.steps);
                for pi in 0..probes.len() + 1 {
                    // After the caller's probes, one implicit check: any new
                    // oops during the window fails the round.
                    let (probe_name, outcome) = if pi < probes.len() {
                        let probe = &mut probes[pi];
                        (probe.name().to_string(), run_probe(kernel, probe))
                    } else if kernel.oopses.len() > oopses_before {
                        let oops = &kernel.oopses[oopses_before];
                        (
                            "oops-monitor".to_string(),
                            Err(format!(
                                "kernel oops on thread {} at {:#x}: {}",
                                oops.tid, oops.ip, oops.reason
                            )),
                        )
                    } else {
                        continue;
                    };
                    tracer.set_now(kernel.steps);
                    let Err(reason) = outcome else {
                        tracer.emit(
                            Stage::Watch,
                            Severity::Debug,
                            "watch.probe_ok",
                            vec![
                                ("id", pack.id.as_str().into()),
                                ("probe", probe_name.as_str().into()),
                                ("round", round.into()),
                            ],
                        );
                        continue;
                    };
                    tracer.count("watch.probes_failed", 1);
                    tracer.emit(
                        Stage::Watch,
                        Severity::Warn,
                        "watch.probe_failed",
                        vec![
                            ("id", pack.id.as_str().into()),
                            ("probe", probe_name.as_str().into()),
                            ("round", round.into()),
                            ("msg", reason.as_str().into()),
                        ],
                    );
                    tracer.count("watch.rollbacks_triggered", 1);
                    tracer.emit(
                        Stage::Watch,
                        Severity::Warn,
                        "watch.auto_rollback",
                        vec![
                            ("id", pack.id.as_str().into()),
                            ("probe", probe_name.as_str().into()),
                            ("round", round.into()),
                        ],
                    );
                    let undo = match self.ks.undo_any_traced(kernel, &pack.id, opts, tracer) {
                        Ok(undo) => undo,
                        Err(e) => {
                            tracer.set_now(kernel.steps);
                            break 'watch Err(LifecycleError::RollbackFailed {
                                id: pack.id.clone(),
                                probe: probe_name,
                                reason,
                                undo: Box::new(e),
                            });
                        }
                    };
                    tracer.set_now(kernel.steps);
                    verify_text_restored(kernel, tracer, Stage::Watch, text_before);
                    self.states
                        .insert(pack.id.clone(), UpdateState::RolledBack);
                    break 'watch Err(LifecycleError::Quarantine {
                        id: pack.id.clone(),
                        probe: probe_name,
                        round,
                        reason,
                        undo: Box::new(undo),
                    });
                }
                tracer.emit(
                    Stage::Watch,
                    Severity::Debug,
                    "watch.round_ok",
                    vec![("id", pack.id.as_str().into()), ("round", round.into())],
                );
            }
            Ok(())
        };
        tracer.set_now(kernel.steps);
        tracer.span_end(watch_span);
        watched?;
        self.states.insert(pack.id.clone(), UpdateState::Committed);
        tracer.count("watch.updates_committed", 1);
        tracer.emit(
            Stage::Watch,
            Severity::Info,
            "watch.committed",
            vec![
                ("id", pack.id.as_str().into()),
                ("rounds", self.watch.rounds.into()),
            ],
        );
        Ok(report)
    }

    /// Reverses any live update — newest or not — via
    /// [`Ksplice::undo_any_traced`], recording the lifecycle state.
    pub fn undo_any(
        &mut self,
        kernel: &mut Kernel,
        id: &str,
        opts: &ApplyOptions,
        tracer: &mut Tracer,
    ) -> Result<UndoReport, UndoError> {
        let report = self.ks.undo_any_traced(kernel, id, opts, tracer)?;
        self.states.insert(id.to_string(), UpdateState::Reversed);
        Ok(report)
    }
}

/// Runs one probe. An armed [`ksplice_kernel::Fault::ProbeFail`] is
/// consulted first, so fault injection can force a failure regardless of
/// what the kernel would answer.
fn run_probe(kernel: &mut Kernel, probe: &mut HealthProbe) -> Result<(), String> {
    if kernel.faults.probe_fails(probe.name()) {
        return Err("injected probe failure".to_string());
    }
    match probe {
        HealthProbe::Canary {
            fn_name,
            args,
            expected,
            ..
        } => match kernel.call_function(fn_name, args) {
            Ok(v) if v == *expected => Ok(()),
            Ok(v) => Err(format!(
                "`{fn_name}` returned {v} ({}), expected {expected} ({})",
                v as i64, *expected as i64
            )),
            Err(e) => Err(e.to_string()),
        },
        HealthProbe::Custom { check, .. } => check(kernel),
    }
}
