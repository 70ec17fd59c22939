//! `ksplice-fuzz`: randomized patch campaigns with a cold-boot vs
//! hot-patch differential oracle.
//!
//! The property under test is the Ksplice contract itself: *a hot-patched
//! kernel must behave exactly like a kernel cold-booted from the patched
//! source*. Each campaign iteration generates a random source mutation
//! (standing in for a security patch), feeds it through the full
//! `ksplice-create` pipeline, and then compares two kernels:
//!
//! * the **reference**: booted cold from the *post*-mutation source, and
//! * the **subject**: booted from the *pre* source and hot-patched.
//!
//! Both run the same workload; their normalized call traces, final
//! memory images (outside legitimately-different regions), and exploit
//! outcomes must agree. Any disagreement — or any Rust-side panic — is an
//! oracle failure, auto-shrunk to a minimal mutation sequence and
//! rendered as a self-contained regression case for
//! `crates/eval/fuzz-regressions/`.
//!
//! Mutants the pipeline *rejects* are not failures: a post build that no
//! longer compiles, a data-semantics veto, a no-object-effect diff, or a
//! clean documented apply abort each exercise a guard the paper requires
//! (§2, §4.3). The campaign counts them per mutator as "kills" and the
//! report shows which pipeline gate killed what.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;

use ksplice_core::trace::{Severity, Stage};
use ksplice_core::{
    create_update_cached_traced, ApplyError, ApplyOptions, BuildCache, CreateError, CreateOptions,
    Ksplice, Tracer, UndoError,
};
use ksplice_kernel::{
    diff_images, diff_traces, normalize_call, traced_call, DiffOptions, Kernel, KernelSnapshot,
    SmpConfig, TraceEntry,
};
use ksplice_lang::{
    apply_mutation, build_tree_cached, fnv1a, generate_mutant, parse_unit, pretty_unit, FuzzRng,
    Mutation, MutatorKind, Options, SourceTree, Type, Unit, FNV_OFFSET,
};

use crate::corpus::{corpus, diff_trees, Cve};
use crate::driver::distro_image;
use crate::exploits::run_exploit;
use crate::pool::{default_eval_jobs, par_map};
use crate::stress::load_stress_cached;
use crate::tree::base_tree;

/// Which workload both kernels run between apply and comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A fixed sweep of int-argument exported functions across the whole
    /// tree, plus targeted probes of the mutated unit's own functions.
    Syscalls,
    /// The §6.2 stress module (files/sockets/ipc/brk/timers), traced via
    /// its checkpoint return value.
    Stress,
    /// Both of the above.
    Both,
}

impl Workload {
    /// Parses a `--workload` argument.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "syscalls" => Some(Workload::Syscalls),
            "stress" => Some(Workload::Stress),
            "both" => Some(Workload::Both),
            _ => None,
        }
    }

    fn includes_syscalls(self) -> bool {
        matches!(self, Workload::Syscalls | Workload::Both)
    }

    fn includes_stress(self) -> bool {
        matches!(self, Workload::Stress | Workload::Both)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Workload::Syscalls => "syscalls",
            Workload::Stress => "stress",
            Workload::Both => "both",
        })
    }
}

/// Campaign parameters (`ksplice fuzz --seed --mutants --workload`).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; the i-th mutant's generator is derived from
    /// `(seed, i)`, so results do not depend on the job count.
    pub seed: u64,
    /// How many mutants to run.
    pub mutants: usize,
    /// Worker threads (1 = sequential).
    pub jobs: usize,
    /// Longest mutation sequence the generator may produce (1–3).
    pub max_mutations: usize,
    /// Workload both kernels run.
    pub workload: Workload,
    /// vCPU count for every kernel in the differential harness (the
    /// reference, calibration and subject all run the same topology, so
    /// the oracle compares like with like). 1 = the historical
    /// uniprocessor campaign, byte-identical to before the knob existed.
    pub cpus: u32,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 1,
            mutants: 200,
            jobs: default_eval_jobs(),
            max_mutations: 3,
            workload: Workload::Syscalls,
            cpus: 1,
        }
    }
}

/// What one mutant did, coarsely classified. `class` strings are stable:
/// regression cases assert on them and FAILURE_MODES.md documents them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The update applied and the subject matched the reference exactly.
    Survived,
    /// The generator found no applicable mutation site.
    NoMutation,
    /// `ksplice-create` (or the post cold-boot) rejected the mutant.
    Killed {
        /// Which gate: `compile-post`, `data-semantics`, `no-effect`,
        /// `post-distro-build`, `post-boot`.
        class: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// `ksplice-apply`/`undo` aborted cleanly (documented failure mode).
    Aborted {
        /// Lower-kebab `ApplyError`/`UndoError` variant name.
        class: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// ORACLE FAILURE: the hot-patched kernel did not match the
    /// cold-booted one.
    Diverged {
        /// What disagreed: `trace`, `exploit`, `image`, `undo-text`.
        class: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// Infrastructure failure (pre build broke, patch machinery failed):
    /// as fatal as a divergence — it means the harness itself is wrong.
    Infra {
        /// What broke.
        detail: String,
    },
}

impl Outcome {
    /// Stable string key, e.g. `killed:data-semantics`.
    pub fn class_key(&self) -> String {
        match self {
            Outcome::Survived => "survived".to_string(),
            Outcome::NoMutation => "no-mutation".to_string(),
            Outcome::Killed { class, .. } => format!("killed:{class}"),
            Outcome::Aborted { class, .. } => format!("aborted:{class}"),
            Outcome::Diverged { class, .. } => format!("diverged:{class}"),
            Outcome::Infra { .. } => "infra".to_string(),
        }
    }

    /// The free-text detail, if any.
    pub fn detail(&self) -> &str {
        match self {
            Outcome::Killed { detail, .. }
            | Outcome::Aborted { detail, .. }
            | Outcome::Diverged { detail, .. }
            | Outcome::Infra { detail } => detail,
            _ => "",
        }
    }
}

/// True for oops entries caused by a memory fault (as opposed to
/// deterministic traps like divide errors): wild-pointer evidence.
fn is_memory_oops(e: &TraceEntry) -> bool {
    match e {
        TraceEntry::Oops(r) => {
            r.contains("read-only memory")
                || r.contains("paging request")
                || r.contains("not executable")
                || r.contains("bad native address")
        }
        _ => false,
    }
}

fn apply_abort_class(e: &ApplyError) -> &'static str {
    match e {
        ApplyError::Link(_) => "link",
        ApplyError::Match(_) => "run-pre-match",
        ApplyError::Unresolved { .. } => "unresolved",
        ApplyError::NotQuiescent { .. } => "not-quiescent",
        ApplyError::TooShort { .. } => "too-short",
        ApplyError::Hook { .. } => "hook",
        ApplyError::MissingMatch { .. } => "missing-match",
    }
}

fn undo_abort_class(e: &UndoError) -> &'static str {
    match e {
        UndoError::NotUndoable { .. } => "undo-not-undoable",
        UndoError::NotQuiescent { .. } => "undo-not-quiescent",
        UndoError::Hook { .. } => "undo-hook",
        UndoError::Entangled { .. } => "undo-entangled",
    }
}

/// One campaign row: the mutant and what happened to it.
#[derive(Debug, Clone)]
pub struct MutantRecord {
    /// Campaign index (also the per-mutant RNG discriminator).
    pub index: usize,
    /// The mutated `.kc` unit path.
    pub unit: String,
    /// The applied mutation sequence.
    pub mutations: Vec<Mutation>,
    /// Stable outcome class key.
    pub class: String,
    /// Free-text detail.
    pub detail: String,
}

/// Per-mutator tallies. A multi-mutation mutant counts once in the row
/// of *each distinct* mutator kind it used.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutatorStats {
    /// Mutants that used this mutator.
    pub used: usize,
    /// ...and were rejected by a create/boot gate.
    pub killed: usize,
    /// ...and survived the full oracle.
    pub survived: usize,
    /// ...and cleanly aborted in apply/undo.
    pub aborted: usize,
    /// ...and diverged (oracle failure).
    pub diverged: usize,
}

/// The aggregate result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Echo of the seed.
    pub seed: u64,
    /// Echo of the mutant count.
    pub mutants: usize,
    /// Echo of the workload.
    pub workload: Workload,
    /// Outcome counts by stable class key.
    pub by_class: BTreeMap<String, usize>,
    /// Per-mutator kill/survive/abort tallies.
    pub by_mutator: BTreeMap<&'static str, MutatorStats>,
    /// Every diverged/infra/panicked mutant, in index order.
    pub failures: Vec<MutantRecord>,
    /// The first mutant seen for each non-survived class, shrunk to a
    /// minimal sequence — exemplar regression cases.
    pub exemplars: Vec<RegressionCase>,
    /// Host panics caught (must be zero).
    pub panics: usize,
    /// FNV-1a fingerprint over every mutant record in index order
    /// (index, unit, class, detail, mutation list). Independent of
    /// `--jobs` by construction — records are hashed in campaign
    /// order, not completion order — so any change to this value
    /// means the oracle's verdicts themselves changed.
    pub digest: u64,
}

impl CampaignReport {
    /// True when the campaign found no oracle failures and no panics.
    pub fn clean(&self) -> bool {
        self.failures.is_empty() && self.panics == 0
    }

    /// Renders the human-readable campaign summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ksplice-fuzz: {} mutants, seed {}, workload {}",
            self.mutants, self.seed, self.workload
        );
        let _ = writeln!(out, "digest: {:#018x}", self.digest);
        let _ = writeln!(out, "\noutcomes:");
        for (class, n) in &self.by_class {
            let _ = writeln!(out, "  {class:<28} {n}");
        }
        let _ = writeln!(
            out,
            "\nper-mutator (a mutant counts in every mutator row it used):"
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>6} {:>7} {:>9} {:>8} {:>9}",
            "mutator", "used", "killed", "survived", "aborted", "diverged"
        );
        for (name, s) in &self.by_mutator {
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>7} {:>9} {:>8} {:>9}",
                name, s.used, s.killed, s.survived, s.aborted, s.diverged
            );
        }
        if !self.exemplars.is_empty() {
            let _ = writeln!(out, "\nshrunk exemplars (one per outcome class):");
            for c in &self.exemplars {
                let _ = writeln!(
                    out,
                    "  {:<28} {} [{}]",
                    c.expect,
                    c.unit,
                    c.mutations
                        .iter()
                        .map(|m| m.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
        }
        for f in &self.failures {
            let _ = writeln!(
                out,
                "\nFAILURE mutant #{} ({}): {}\n  {}",
                f.index, f.unit, f.class, f.detail
            );
        }
        let _ = writeln!(
            out,
            "\nverdict: {}",
            if self.clean() {
                "clean (no divergences, no panics)"
            } else {
                "ORACLE FAILURES FOUND"
            }
        );
        out
    }
}

/// A checked-in, self-contained regression case: a unit, a mutation
/// sequence, and the outcome class the oracle must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegressionCase {
    /// Case name (file stem).
    pub name: String,
    /// The mutated unit path within the canonical base tree.
    pub unit: String,
    /// The expected `Outcome::class_key()`.
    pub expect: String,
    /// The mutation sequence to replay.
    pub mutations: Vec<Mutation>,
    /// Free-text provenance note.
    pub note: String,
}

impl RegressionCase {
    /// Serializes to the `.fuzz` file format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.note.is_empty() {
            for line in self.note.lines() {
                let _ = writeln!(out, "# {line}");
            }
        }
        let _ = writeln!(out, "unit: {}", self.unit);
        let _ = writeln!(out, "expect: {}", self.expect);
        for m in &self.mutations {
            let _ = writeln!(out, "mutation: {m}");
        }
        out
    }

    /// Parses the `.fuzz` file format.
    pub fn parse(name: &str, text: &str) -> Result<RegressionCase, String> {
        let mut unit = None;
        let mut expect = None;
        let mut mutations = Vec::new();
        let mut note = String::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                if !note.is_empty() {
                    note.push('\n');
                }
                note.push_str(rest.trim());
            } else if let Some(rest) = line.strip_prefix("unit:") {
                unit = Some(rest.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("expect:") {
                expect = Some(rest.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("mutation:") {
                mutations.push(Mutation::parse(rest.trim())?);
            } else {
                return Err(format!("{name}: unrecognized line: {line}"));
            }
        }
        if mutations.is_empty() {
            return Err(format!("{name}: no mutations"));
        }
        Ok(RegressionCase {
            name: name.to_string(),
            unit: unit.ok_or_else(|| format!("{name}: missing unit:"))?,
            expect: expect.ok_or_else(|| format!("{name}: missing expect:"))?,
            mutations,
            note,
        })
    }
}

/// Applies the campaign vCPU topology to a freshly booted kernel,
/// gated on N > 1 so uniprocessor campaigns never re-home threads.
fn configure_kernel(kernel: &mut Kernel, cpus: u32) {
    if cpus > 1 {
        kernel.configure_smp(SmpConfig::with_cpus(cpus));
    }
}

/// Loads every `*.fuzz` case under `dir`, sorted by file name.
pub fn load_regression_dir(dir: &std::path::Path) -> Result<Vec<RegressionCase>, String> {
    let mut cases = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fuzz"))
        .collect();
    paths.sort();
    for p in paths {
        let name = p
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("case")
            .to_string();
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        cases.push(RegressionCase::parse(&name, &text)?);
    }
    Ok(cases)
}

/// Returns the base tree with every `.kc` unit replaced by its canonical
/// pretty-printed form. Mutants are generated from — and diffed against —
/// this tree, so a one-node mutation produces a few-line unified diff
/// instead of a whole-file rewrite.
pub fn canonical_base_tree() -> SourceTree {
    let base = base_tree();
    let mut canon = SourceTree::new();
    for (path, src) in base.iter() {
        if path.ends_with(".kc") {
            let unit = parse_unit(path, src)
                .unwrap_or_else(|e| panic!("base tree unit {path} must parse: {e}"));
            canon.insert(path, &pretty_unit(&unit));
        } else {
            canon.insert(path, src);
        }
    }
    canon
}

/// Everything a campaign shares across mutants: the canonical pre tree
/// and its parsed units, the booted pre kernel every subject forks, the
/// build cache, the fixed workload script, and the exploit case used as
/// a behavioral probe.
pub struct FuzzContext {
    /// The canonical (pretty-printed) pre source tree.
    pub canon: SourceTree,
    units: Vec<(String, Unit)>,
    /// The pre kernel, booted once in the campaign topology. Only the
    /// subject forks it: the reference and calibration images change
    /// with every mutant, so those kernels boot cold.
    subject: KernelSnapshot,
    cache: BuildCache,
    apply_opts: ApplyOptions,
    diff_opts: DiffOptions,
    prctl: Cve,
    sweep: Vec<(String, Vec<u64>)>,
    workload: Workload,
    cpus: u32,
}

/// Per-workload-call interpreter step budget. Deliberately far below the
/// interactive default: a mutant that loops forever should cost
/// milliseconds, and both kernels hit the same limit deterministically.
const CALL_LIMIT: u64 = 2_000_000;

const SWEEP_CAP: usize = 48;
const STRESS_LIMIT: u64 = 30_000_000;
const STRESS_ROUNDS: u64 = 2;

impl FuzzContext {
    /// Builds the shared campaign state: canonicalizes the base tree,
    /// compiles and boots the pre image once, and derives the
    /// deterministic cross-tree call sweep.
    pub fn new(cfg: &FuzzConfig) -> Result<FuzzContext, String> {
        let canon = canonical_base_tree();
        let mut units = Vec::new();
        for (path, src) in canon.iter() {
            if path.ends_with(".kc") {
                let unit = parse_unit(path, src).map_err(|e| format!("{path}: {e}"))?;
                units.push((path.to_string(), unit));
            }
        }
        let cache = BuildCache::new();
        let pre_image = distro_image(&canon, &cache)?;
        let mut subject = Kernel::boot_image(&pre_image).map_err(|e| format!("pre boot: {e}"))?;
        configure_kernel(&mut subject, cfg.cpus);
        let prctl = corpus()
            .into_iter()
            .find(|c| c.id == "CVE-2006-2451")
            .ok_or("prctl exploit case missing from corpus")?;

        // The fixed sweep: every exported int-only function with at most
        // two parameters, in sorted order, with small deterministic
        // arguments. Both kernels run exactly this script.
        let mut sweep = Vec::new();
        for (_, unit) in &units {
            for f in unit.functions() {
                if f.is_static
                    || f.params.len() > 2
                    || !f.params.iter().all(|(_, ty)| matches!(ty, Type::Int))
                {
                    continue;
                }
                sweep.push(f.name.clone());
            }
        }
        sweep.sort();
        sweep.dedup();
        sweep.truncate(SWEEP_CAP);
        let sweep = sweep
            .into_iter()
            .enumerate()
            .map(|(k, name)| {
                let args = vec![(k as u64 % 5) + 1, (k as u64 * 7) % 11];
                (name, args)
            })
            .collect();

        // N > 1 threads the vCPU topology through the stop_machine path
        // of every apply/undo; the default stays on the historical
        // uniprocessor options so N = 1 campaigns are byte-identical.
        let apply_opts = if cfg.cpus > 1 {
            ApplyOptions::with_smp(SmpConfig::with_cpus(cfg.cpus))
        } else {
            ApplyOptions::default()
        };
        Ok(FuzzContext {
            canon,
            units,
            subject: subject.snapshot(),
            cache,
            apply_opts,
            diff_opts: DiffOptions::default(),
            prctl,
            sweep,
            workload: cfg.workload,
            cpus: cfg.cpus,
        })
    }

    fn unit(&self, path: &str) -> Option<&Unit> {
        self.units
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, u)| u)
    }

    /// Replays a mutation sequence against a canonical unit and runs the
    /// full oracle. This is the exact path the campaign, the shrinker,
    /// and checked-in regression cases all share.
    pub fn run_case(
        &self,
        unit_path: &str,
        mutations: &[Mutation],
        tracer: &mut Tracer,
    ) -> Result<Outcome, String> {
        let base = self
            .unit(unit_path)
            .ok_or_else(|| format!("{unit_path}: not a mutable unit"))?;
        let mut mutant = base.clone();
        for m in mutations {
            if let Err(e) = apply_mutation(&mut mutant, m) {
                return Err(format!("{unit_path}: {m}: {e}"));
            }
        }
        Ok(self.oracle(unit_path, &mutant, tracer))
    }

    /// The differential oracle for one already-mutated unit.
    fn oracle(&self, unit_path: &str, mutant: &Unit, tracer: &mut Tracer) -> Outcome {
        let id = "fuzz-mutant";
        let post_src = pretty_unit(mutant);
        let mut post_tree = self.canon.clone();
        post_tree.set(unit_path, post_src);
        let patch = diff_trees(&self.canon, &post_tree);
        if patch.is_empty() {
            return Outcome::Killed {
                class: "no-effect",
                detail: "mutation produced identical source".into(),
            };
        }

        // Stage 1: ksplice-create. Rejections here are pipeline gates
        // doing their job — kills, not failures.
        let pack = match create_update_cached_traced(
            id,
            &self.canon,
            &patch,
            &CreateOptions::default(),
            &self.cache,
            tracer,
        ) {
            Ok((pack, _)) => pack,
            Err(CreateError::Compile { phase: "post", error }) => {
                return Outcome::Killed {
                    class: "compile-post",
                    detail: error.to_string(),
                }
            }
            Err(CreateError::DataSemantics { changes }) => {
                return Outcome::Killed {
                    class: "data-semantics",
                    detail: changes
                        .iter()
                        .map(|(u, c)| format!("{u}:{}", c.section))
                        .collect::<Vec<_>>()
                        .join(", "),
                }
            }
            Err(CreateError::NoEffect) => {
                return Outcome::Killed {
                    class: "no-effect",
                    detail: "no object-code change".into(),
                }
            }
            // The pre tree is the canonical tree (known to compile) and
            // the patch came from diff_trees — these can only mean the
            // harness itself is broken.
            Err(e) => {
                return Outcome::Infra {
                    detail: format!("create: {e}"),
                }
            }
        };
        // Stage 2: two reference kernels, cold-booted from post source
        // with *different compiler versions*. Ksplice only promises the
        // hot-patched kernel matches a cold boot up to the freedoms the
        // compiler already has (layout, alignment, register choice) — so
        // any behavior the two references themselves disagree on (an
        // out-of-bounds-read mutant, say) is layout-defined, not
        // semantics, and is excluded from the subject comparison.
        let calib_options = Options {
            cc_version: 2,
            ..Options::distro()
        };
        let ref_image = match build_tree_cached(&post_tree, &Options::distro(), &self.cache) {
            Ok((set, _)) => set,
            Err(e) => {
                return Outcome::Killed {
                    class: "post-distro-build",
                    detail: e.to_string(),
                }
            }
        };
        let calib_image = match build_tree_cached(&post_tree, &calib_options, &self.cache) {
            Ok((set, _)) => set,
            Err(e) => {
                return Outcome::Killed {
                    class: "post-distro-build",
                    detail: format!("cc2: {e}"),
                }
            }
        };
        let mut reference = match Kernel::boot_image(&ref_image) {
            Ok(k) => k,
            Err(e) => {
                return Outcome::Killed {
                    class: "post-boot",
                    detail: e.to_string(),
                }
            }
        };
        configure_kernel(&mut reference, self.cpus);
        let mut calib = match Kernel::boot_image(&calib_image) {
            Ok(k) => k,
            Err(e) => {
                return Outcome::Killed {
                    class: "post-boot",
                    detail: format!("cc2: {e}"),
                }
            }
        };
        configure_kernel(&mut calib, self.cpus);

        // Stage 3: the subject kernel, hot-patched from pre.
        let mut subject = self.subject.fork();

        // Both kernels load the stress module *before* the subject is
        // patched, mirroring live operation (the workload exists first,
        // the update arrives later).
        let mut stress_entries = None;
        if self.workload.includes_stress() {
            let re = match load_stress_cached(&mut reference, &self.cache) {
                Ok(e) => e,
                Err(e) => {
                    return Outcome::Infra {
                        detail: format!("reference stress load: {e}"),
                    }
                }
            };
            let ce = match load_stress_cached(&mut calib, &self.cache) {
                Ok(e) => e,
                Err(e) => {
                    return Outcome::Infra {
                        detail: format!("calibration stress load: {e}"),
                    }
                }
            };
            let se = match load_stress_cached(&mut subject, &self.cache) {
                Ok(e) => e,
                Err(e) => {
                    return Outcome::Infra {
                        detail: format!("subject stress load: {e}"),
                    }
                }
            };
            stress_entries = Some((re, ce, se));
        }
        let text_before = subject.mem.text_checksum();
        let mut ks = Ksplice::new();
        if let Err(e) = ks.apply_traced(&mut subject, &pack, &self.apply_opts, tracer) {
            return Outcome::Aborted {
                class: apply_abort_class(&e),
                detail: e.to_string(),
            };
        }
        // Stage 4: identical workloads on all three kernels, lockstep
        // comparison of the entries the two references agree on.
        //
        // UB taint: the oracle only speaks about *defined* behavior. An
        // entry is tainted when (a) any kernel hit its step budget — the
        // execution was cut off mid-flight, and where exactly the budget
        // expires depends on instruction counts the contract leaves free
        // (the subject pays trampoline overhead) — (b) the two references
        // themselves disagree — the result is decided by memory layout,
        // which the hot-patch contract explicitly leaves free — or (c)
        // the kernels disagree and at least one saw a memory-fault oops
        // (a wild pointer landed in a region that happens to differ
        // between layouts). Once any entry is tainted, downstream kernel
        // *state* has legitimately diverged, so only the trace prefix
        // before the first taint is comparable — which also means the
        // sweep can stop issuing calls the moment an entry taints (and a
        // budget-blown reference call need not even run on the other two
        // kernels): nothing at or after the taint index is ever read.
        // The full call plan, in lockstep order. Targeted probes: the
        // mutated unit's own exported functions, with two argument
        // patterns each. Derived from the canonical unit so every
        // kernel defines every probed symbol.
        let mut plan: Vec<(&str, Vec<u64>)> = Vec::new();
        if self.workload.includes_syscalls() {
            for (name, args) in &self.sweep {
                plan.push((name, args.clone()));
            }
            if let Some(base) = self.unit(unit_path) {
                for f in base.functions() {
                    if f.is_static
                        || f.params.len() > 3
                        || !f.params.iter().all(|(_, ty)| matches!(ty, Type::Int))
                    {
                        continue;
                    }
                    for pattern in [[2u64, 3, 5], [7, 1, 4]] {
                        plan.push((&f.name, pattern[..f.params.len()].to_vec()));
                    }
                }
            }
        }
        let mut ref_trace = Vec::new();
        let mut calib_trace = Vec::new();
        let mut subj_trace = Vec::new();
        let mut first_taint: Option<(usize, &'static str)> = None;
        let hit = |e: &TraceEntry| matches!(e, TraceEntry::StepLimit);
        for (i, (name, args)) in plan.iter().enumerate() {
            // Once an entry taints, nothing at or after it is ever
            // compared, so the two reference kernels stop running — only
            // the subject finishes the plan, because its step clock
            // stamps later trace events and must read exactly as if the
            // whole lockstep sweep had run.
            if first_taint.is_some() {
                let _ = traced_call(&mut subject, name, args, CALL_LIMIT);
                continue;
            }
            let r = traced_call(&mut reference, name, args, CALL_LIMIT);
            if hit(&r) {
                first_taint = Some((i, "truncated"));
                let _ = traced_call(&mut subject, name, args, CALL_LIMIT);
                continue;
            }
            let c = traced_call(&mut calib, name, args, CALL_LIMIT);
            if hit(&c) {
                first_taint = Some((i, "truncated"));
                let _ = traced_call(&mut subject, name, args, CALL_LIMIT);
                continue;
            }
            let s = traced_call(&mut subject, name, args, CALL_LIMIT);
            if hit(&s) {
                first_taint = Some((i, "truncated"));
            } else if r != c
                || (r != s && (is_memory_oops(&r) || is_memory_oops(&c) || is_memory_oops(&s)))
            {
                first_taint = Some((i, "wild-memory"));
            }
            ref_trace.push(r);
            calib_trace.push(c);
            subj_trace.push(s);
        }
        if let Some((re, ce, se)) = stress_entries {
            if first_taint.is_some() {
                let _ = subject.call_at_limited(se, &[STRESS_ROUNDS], STRESS_LIMIT);
            } else {
                let i = ref_trace.len();
                let r = normalize_call(reference.call_at_limited(re, &[STRESS_ROUNDS], STRESS_LIMIT));
                if hit(&r) {
                    first_taint = Some((i, "truncated"));
                    let _ = subject.call_at_limited(se, &[STRESS_ROUNDS], STRESS_LIMIT);
                } else {
                    let c = normalize_call(calib.call_at_limited(ce, &[STRESS_ROUNDS], STRESS_LIMIT));
                    if hit(&c) {
                        first_taint = Some((i, "truncated"));
                        let _ = subject.call_at_limited(se, &[STRESS_ROUNDS], STRESS_LIMIT);
                    } else {
                        let s = normalize_call(subject.call_at_limited(
                            se,
                            &[STRESS_ROUNDS],
                            STRESS_LIMIT,
                        ));
                        if hit(&s) {
                            first_taint = Some((i, "truncated"));
                        } else if r != c
                            || (r != s
                                && (is_memory_oops(&r) || is_memory_oops(&c) || is_memory_oops(&s)))
                        {
                            first_taint = Some((i, "wild-memory"));
                        }
                        ref_trace.push(r);
                        calib_trace.push(c);
                        subj_trace.push(s);
                    }
                }
            }
        }
        let prefix = first_taint.map_or(ref_trace.len(), |(i, _)| i);
        if let Some((i, r, s)) = diff_traces(&ref_trace[..prefix], &subj_trace[..prefix]) {
            return Outcome::Diverged {
                class: "trace",
                detail: format!("workload call #{i}: reference {r} vs subject {s}"),
            };
        }
        if let Some((at, cause)) = first_taint {
            // Tainted mutant: its behavior depends on layout or step
            // budgets, so the full-state comparison is meaningless. The
            // update still has to reverse cleanly, though (checked below).
            if let Err(e) = ks.undo_any_traced(&mut subject, id, &self.apply_opts, tracer) {
                return Outcome::Aborted {
                    class: undo_abort_class(&e),
                    detail: e.to_string(),
                };
            }
            if subject.mem.text_checksum() != text_before {
                return Outcome::Diverged {
                    class: "undo-text",
                    detail: "text checksum after undo differs from pre-apply".into(),
                };
            }
            let what = if cause == "truncated" {
                "step-budget truncation"
            } else {
                "layout-dependent behavior"
            };
            return Outcome::Killed {
                class: cause,
                detail: format!("{what} from workload call #{at} on"),
            };
        }

        // Stage 5: the exploit probe — privilege-escalation behavior must
        // match (all kernels implement post semantics), again only when
        // the two references agree on it.
        let ref_exploit = run_exploit(&mut reference, &self.prctl);
        let calib_exploit = run_exploit(&mut calib, &self.prctl);
        let subj_exploit = run_exploit(&mut subject, &self.prctl);
        if ref_exploit == calib_exploit && ref_exploit != subj_exploit {
            return Outcome::Diverged {
                class: "exploit",
                detail: format!("reference {ref_exploit:?} vs subject {subj_exploit:?}"),
            };
        }

        // Stage 6: final memory images must agree outside patched text.
        // Words the two references themselves disagree on (layout-derived
        // values a wild-but-undetected store left behind) are masked the
        // same way.
        let mut wide = self.diff_opts.clone();
        wide.max_deltas = usize::MAX;
        let unstable: std::collections::BTreeSet<(String, u64)> =
            diff_images(&reference, &calib, &wide)
                .deltas
                .into_iter()
                .map(|d| (d.region, d.offset))
                .collect();
        let image = diff_images(&reference, &subject, &self.diff_opts);
        let real: Vec<_> = image
            .deltas
            .iter()
            .filter(|d| !unstable.contains(&(d.region.clone(), d.offset)))
            .collect();
        if !real.is_empty() {
            return Outcome::Diverged {
                class: "image",
                detail: format!("{} delta(s), first: {}", real.len(), real[0]),
            };
        }

        // Stage 7: reversal restores the original text exactly.
        if let Err(e) = ks.undo_any_traced(&mut subject, id, &self.apply_opts, tracer) {
            return Outcome::Aborted {
                class: undo_abort_class(&e),
                detail: e.to_string(),
            };
        }
        if subject.mem.text_checksum() != text_before {
            return Outcome::Diverged {
                class: "undo-text",
                detail: "text checksum after undo differs from pre-apply".into(),
            };
        }
        Outcome::Survived
    }

    /// Delta-debugs a failing mutation sequence down to a minimal
    /// subsequence with the same outcome class. Sequences are at most 3
    /// long, so plain subset enumeration (singletons first) is exact.
    pub fn shrink(
        &self,
        unit_path: &str,
        mutations: &[Mutation],
        class: &str,
        tracer: &mut Tracer,
    ) -> Vec<Mutation> {
        if mutations.len() <= 1 {
            return mutations.to_vec();
        }
        let n = mutations.len();
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        for mask in 1u32..(1 << n) - 1 {
            let idx: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            subsets.push(idx);
        }
        subsets.sort_by_key(|s| s.len());
        for subset in subsets {
            let seq: Vec<Mutation> = subset.iter().map(|&i| mutations[i]).collect();
            // Later mutations may address sites the dropped ones created;
            // a subsequence that no longer applies is simply skipped.
            match self.run_case(unit_path, &seq, tracer) {
                Ok(outcome) if outcome.class_key() == class => return seq,
                _ => {}
            }
        }
        mutations.to_vec()
    }

    /// Replays a checked-in regression case; `Ok` means the oracle
    /// reproduced the recorded outcome class.
    pub fn replay(&self, case: &RegressionCase, tracer: &mut Tracer) -> Result<(), String> {
        let outcome = self.run_case(&case.unit, &case.mutations, tracer)?;
        let got = outcome.class_key();
        if got == case.expect {
            Ok(())
        } else {
            Err(format!(
                "{}: expected {}, got {} ({})",
                case.name,
                case.expect,
                got,
                outcome.detail()
            ))
        }
    }
}

/// Generates and runs one mutant: derive its RNG from `(seed, index)`,
/// pick a unit, mutate, run the oracle. Host panics are caught and
/// reported as records with class `panicked`.
fn run_mutant(cx: &FuzzContext, cfg: &FuzzConfig, index: usize, tracer: &mut Tracer) -> MutantRecord {
    // Distinct, well-mixed stream per mutant; independent of job count.
    let mut rng = FuzzRng::new(
        cfg.seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let unit_idx = rng.below(cx.units.len() as u64) as usize;
    let (unit_path, base_unit) = &cx.units[unit_idx];
    let generated = generate_mutant(base_unit, &mut rng, cfg.max_mutations);
    let Some((mutant, mutations)) = generated else {
        return MutantRecord {
            index,
            unit: unit_path.clone(),
            mutations: Vec::new(),
            class: Outcome::NoMutation.class_key(),
            detail: String::new(),
        };
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        cx.oracle(unit_path, &mutant, tracer)
    }));
    let outcome = match result {
        Ok(o) => o,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return MutantRecord {
                index,
                unit: unit_path.clone(),
                mutations,
                class: "panicked".to_string(),
                detail: msg,
            };
        }
    };
    MutantRecord {
        index,
        unit: unit_path.clone(),
        mutations,
        class: outcome.class_key(),
        detail: outcome.detail().to_string(),
    }
}

/// Runs a full campaign: `cfg.mutants` mutants fanned out over
/// `cfg.jobs` workers against one shared [`FuzzContext`], with per-class
/// and per-mutator tallies, shrunk exemplars for every non-survived
/// class, and `fuzz.*` counters on `tracer`.
pub fn run_campaign(cfg: &FuzzConfig, tracer: &mut Tracer) -> Result<CampaignReport, String> {
    let cx = FuzzContext::new(cfg)?;
    tracer.emit(
        Stage::Fuzz,
        Severity::Info,
        "fuzz.start",
        vec![
            ("seed", cfg.seed.into()),
            ("mutants", cfg.mutants.into()),
            ("workload", cfg.workload.to_string().into()),
        ],
    );

    let records = par_map((0..cfg.mutants).collect(), cfg.jobs, tracer, |i, tracer| {
        run_mutant(&cx, cfg, i, tracer)
    });

    // Hash the records in campaign (index) order before tallying, so
    // the fingerprint is identical no matter how many workers ran.
    let mut digest = FNV_OFFSET;
    for record in &records {
        digest = fnv1a(digest, &record.index.to_le_bytes());
        digest = fnv1a(digest, record.unit.as_bytes());
        digest = fnv1a(digest, record.class.as_bytes());
        digest = fnv1a(digest, record.detail.as_bytes());
        for m in &record.mutations {
            digest = fnv1a(digest, m.to_string().as_bytes());
        }
    }

    let mut by_class: BTreeMap<String, usize> = BTreeMap::new();
    let mut by_mutator: BTreeMap<&'static str, MutatorStats> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut panics = 0usize;
    let mut first_of_class: BTreeMap<String, MutantRecord> = BTreeMap::new();
    for record in records {
        *by_class.entry(record.class.clone()).or_default() += 1;
        tracer.count(&format!("fuzz.outcome.{}", record.class), 1);
        let mut kinds: Vec<MutatorKind> = record.mutations.iter().map(|m| m.kind).collect();
        kinds.sort_by_key(|k| k.name());
        kinds.dedup();
        for kind in kinds {
            let s = by_mutator.entry(kind.name()).or_default();
            s.used += 1;
            if record.class.starts_with("killed:") {
                s.killed += 1;
                tracer.count(&format!("fuzz.kill.{}", kind.name()), 1);
            } else if record.class == "survived" {
                s.survived += 1;
            } else if record.class.starts_with("aborted:") {
                s.aborted += 1;
            } else if record.class.starts_with("diverged:") {
                s.diverged += 1;
            }
        }
        if record.class == "panicked" {
            panics += 1;
        }
        let failed = record.class.starts_with("diverged:")
            || record.class == "infra"
            || record.class == "panicked";
        if failed {
            tracer.emit(
                Stage::Fuzz,
                Severity::Error,
                "fuzz.failure",
                vec![
                    ("index", record.index.into()),
                    ("unit", record.unit.as_str().into()),
                    ("class", record.class.as_str().into()),
                    ("detail", record.detail.as_str().into()),
                ],
            );
            failures.push(record.clone());
        }
        if record.class != "survived"
            && record.class != "no-mutation"
            && !record.mutations.is_empty()
        {
            first_of_class.entry(record.class.clone()).or_insert(record);
        }
    }

    // Shrink one exemplar per interesting class. Panicked mutants are
    // not re-run (the panic already poisoned determinism guarantees).
    let mut exemplars = Vec::new();
    for (class, record) in &first_of_class {
        if class == "panicked" {
            continue;
        }
        let minimal = cx.shrink(&record.unit, &record.mutations, class, tracer);
        exemplars.push(RegressionCase {
            name: format!("{}-{}", class.replace(':', "-"), record.index),
            unit: record.unit.clone(),
            expect: class.clone(),
            mutations: minimal,
            note: format!(
                "shrunk from campaign seed {} mutant #{} ({} mutation(s) originally)",
                cfg.seed,
                record.index,
                record.mutations.len()
            ),
        });
    }

    let report = CampaignReport {
        seed: cfg.seed,
        mutants: cfg.mutants,
        workload: cfg.workload,
        by_class,
        by_mutator,
        failures,
        exemplars,
        panics,
        digest,
    };
    tracer.emit(
        Stage::Fuzz,
        Severity::Info,
        "fuzz.done",
        vec![
            ("mutants", report.mutants.into()),
            ("failures", report.failures.len().into()),
            ("panics", report.panics.into()),
        ],
    );
    Ok(report)
}
