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

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;

use ksplice_core::trace::{Severity, Stage};
use ksplice_core::{
    create_update_cached_traced, diff_trees, ApplyError, ApplyOptions, BuildCache, CreateError,
    CreateOptions, Ksplice, Tracer, UndoError,
};
use ksplice_kernel::{diff_images, normalize_call, Kernel, KernelSnapshot, SmpConfig, TraceEntry};
use ksplice_lang::{
    apply_mutation, build_tree_cached, fnv1a, generate_mutant, parse_unit, pretty_unit, Function,
    FuzzRng, Mutation, MutatorKind, Options, SourceTree, Type, Unit, FNV_OFFSET,
};

use crate::corpus::{find_cve, Cve};
use crate::driver::distro_image;
use crate::exploits::run_exploit;
use crate::pool::{default_eval_jobs, par_map};
use crate::stress::load_stress;
use crate::tree::canonical_base_tree;

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
    /// A host panic escaped the oracle: as fatal as a divergence.
    Panicked {
        /// The panic message.
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
            Outcome::Panicked { .. } => "panicked".to_string(),
        }
    }

    /// The free-text detail, if any.
    pub fn detail(&self) -> &str {
        match self {
            Outcome::Killed { detail, .. }
            | Outcome::Aborted { detail, .. }
            | Outcome::Diverged { detail, .. }
            | Outcome::Infra { detail }
            | Outcome::Panicked { detail } => detail,
            Outcome::Survived | Outcome::NoMutation => "",
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

fn killed(class: &'static str, detail: impl ToString) -> Outcome {
    Outcome::Killed {
        class,
        detail: detail.to_string(),
    }
}

fn diverged(class: &'static str, detail: impl ToString) -> Outcome {
    Outcome::Diverged {
        class,
        detail: detail.to_string(),
    }
}

/// Sorts a `ksplice-create` rejection. A gate doing its job is a kill.
/// Anything else means the harness itself is broken: the pre tree is the
/// canonical tree, known to compile, and the patch came from
/// `diff_trees`.
fn create_outcome(e: CreateError) -> Outcome {
    match e {
        CreateError::Compile {
            phase: "post",
            error,
        } => killed("compile-post", error),
        CreateError::DataSemantics { changes } => killed(
            "data-semantics",
            changes
                .iter()
                .map(|(u, c)| format!("{u}:{}", c.section))
                .collect::<Vec<_>>()
                .join(", "),
        ),
        CreateError::NoEffect => killed("no-effect", "no object-code change"),
        e => Outcome::Infra {
            detail: format!("create: {e}"),
        },
    }
}

fn apply_aborted(e: ApplyError) -> Outcome {
    let class = match e {
        ApplyError::Link(_) => "link",
        ApplyError::Match(_) => "run-pre-match",
        ApplyError::Unresolved { .. } => "unresolved",
        ApplyError::NotQuiescent { .. } => "not-quiescent",
        ApplyError::TooShort { .. } => "too-short",
        ApplyError::Hook { .. } => "hook",
        ApplyError::MissingMatch { .. } => "missing-match",
        ApplyError::MissingReplacement { .. } => "missing-replacement",
    };
    Outcome::Aborted {
        class,
        detail: e.to_string(),
    }
}

fn undo_aborted(e: UndoError) -> Outcome {
    let class = match e {
        UndoError::NotUndoable { .. } => "undo-not-undoable",
        UndoError::NotQuiescent { .. } => "undo-not-quiescent",
        UndoError::Hook { .. } => "undo-hook",
        UndoError::Entangled { .. } => "undo-entangled",
    };
    Outcome::Aborted {
        class,
        detail: e.to_string(),
    }
}

/// True for an exported function whose parameters are at most `max`
/// ints: the workload can call it with plain numbers.
fn int_entry(f: &Function, max: usize) -> bool {
    !f.is_static && f.params.len() <= max && f.params.iter().all(|(_, ty)| *ty == Type::Int)
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
    /// What the oracle said.
    pub outcome: Outcome,
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
                f.index,
                f.unit,
                f.outcome.class_key(),
                f.outcome.detail()
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
    /// Carries the campaign vCPU topology (`FuzzConfig::cpus`) through
    /// the stop_machine path of every apply and undo.
    apply_opts: ApplyOptions,
    prctl: Cve,
    sweep: Vec<(String, Vec<u64>)>,
    workload: Workload,
}

/// Per-workload-call interpreter step budget. Deliberately far below the
/// interactive default: a mutant that loops forever should cost
/// milliseconds, and both kernels hit the same limit deterministically.
const CALL_LIMIT: u64 = 2_000_000;

const SWEEP_CAP: usize = 48;
const STRESS_LIMIT: u64 = 30_000_000;
const STRESS_ROUNDS: u64 = 2;

/// The oracle's kernels, in lockstep order: the two cold-booted
/// references (the distro compiler and `cc_version` 2), then the
/// hot-patched subject.
const KERNELS: [&str; 3] = ["reference", "calibration", "subject"];
const SUBJECT: usize = 2;

/// Where a lockstep call enters each kernel.
enum Entry<'a> {
    /// An exported function, looked up by name.
    Symbol(&'a str),
    /// A loaded module's entry, one address per kernel of [`KERNELS`].
    Addr([u64; KERNELS.len()]),
}

/// One entry of the lockstep call plan.
struct Call<'a> {
    entry: Entry<'a>,
    args: Vec<u64>,
    limit: u64,
}

impl Call<'_> {
    /// Makes the call on `kernel`, kernel `k` of [`KERNELS`].
    fn run(&self, kernel: &mut Kernel, k: usize) -> TraceEntry {
        normalize_call(match self.entry {
            Entry::Symbol(name) => kernel.call_function_limited(name, &self.args, self.limit),
            Entry::Addr(at) => kernel.call_at_limited(at[k], &self.args, self.limit),
        })
    }
}

/// Stage 4: runs the call plan on every kernel in lockstep and compares
/// the subject with the reference call by call, for the calls the two
/// references agree on. Returns the first tainted call and its cause.
///
/// UB taint: the oracle only speaks about *defined* behavior. A call is
/// tainted when (a) any kernel hit its step budget — the execution was
/// cut off mid-flight, and where exactly the budget expires depends on
/// instruction counts the contract leaves free (the subject pays
/// trampoline overhead) — (b) the two references themselves disagree —
/// the result is decided by memory layout, which the hot-patch contract
/// explicitly leaves free — or (c) the kernels disagree and at least one
/// saw a memory-fault oops (a wild pointer landed in a region that
/// happens to differ between layouts). Once a call taints, downstream
/// kernel *state* has legitimately diverged, so nothing at or after it
/// is compared: a budget-blown reference call need not run on the next
/// reference, and after the taint the references stop. Only the subject
/// finishes the plan, because its step clock stamps later trace events
/// and must read exactly as if the whole lockstep sweep had run.
fn lockstep(
    kernels: &mut [Kernel],
    plan: &[Call],
) -> Result<Option<(usize, &'static str)>, Outcome> {
    let mut taint = None;
    for (i, call) in plan.iter().enumerate() {
        let mut row = Vec::with_capacity(KERNELS.len());
        for (k, kernel) in kernels.iter_mut().enumerate() {
            if k != SUBJECT && (taint.is_some() || row.contains(&TraceEntry::StepLimit)) {
                continue;
            }
            row.push(call.run(kernel, k));
        }
        if taint.is_some() {
            continue;
        }
        if row.contains(&TraceEntry::StepLimit) {
            taint = Some((i, "truncated"));
        } else if row[0] != row[1] || (row[0] != row[SUBJECT] && row.iter().any(is_memory_oops)) {
            taint = Some((i, "wild-memory"));
        } else if row[0] != row[SUBJECT] {
            return Err(diverged(
                "trace",
                format!(
                    "workload call #{i}: reference {} vs subject {}",
                    row[0], row[SUBJECT]
                ),
            ));
        }
    }
    Ok(taint)
}

/// Stage 6: final memory images must agree outside patched text. Words
/// the two references themselves disagree on (layout-derived values a
/// wild-but-undetected store left behind) are dropped before the subject
/// is judged; every delta that remains counts.
fn compare_images(kernels: &[Kernel]) -> Result<(), Outcome> {
    let unstable = diff_images(&kernels[0], &kernels[1]);
    let unstable: HashSet<(&str, u64)> = unstable
        .iter()
        .map(|d| (d.region.as_str(), d.offset))
        .collect();
    let real: Vec<_> = diff_images(&kernels[0], &kernels[SUBJECT])
        .into_iter()
        .filter(|d| !unstable.contains(&(d.region.as_str(), d.offset)))
        .collect();
    match real.first() {
        None => Ok(()),
        Some(first) => Err(diverged(
            "image",
            format!("{} delta(s), first: {first}", real.len()),
        )),
    }
}

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
        let apply_opts = ApplyOptions::with_smp(SmpConfig::with_cpus(cfg.cpus));
        let pre_image = distro_image(&canon, &cache)?;
        let mut subject = Kernel::boot_image(&pre_image).map_err(|e| format!("pre boot: {e}"))?;
        subject.configure_smp(apply_opts.smp.clone());
        let prctl = find_cve("CVE-2006-2451")?;

        // The fixed sweep: every exported int-only function with at most
        // two parameters, in sorted order, with small deterministic
        // arguments. Both kernels run exactly this script.
        let mut sweep: Vec<String> = units
            .iter()
            .flat_map(|(_, unit)| unit.functions())
            .filter(|f| int_entry(f, 2))
            .map(|f| f.name.clone())
            .collect();
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

        Ok(FuzzContext {
            canon,
            units,
            subject: subject.snapshot(),
            cache,
            apply_opts,
            prctl,
            sweep,
            workload: cfg.workload,
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
            apply_mutation(&mut mutant, m).map_err(|e| format!("{unit_path}: {m}: {e}"))?;
        }
        Ok(self.oracle(unit_path, &mutant, tracer))
    }

    /// The differential oracle for one already-mutated unit.
    fn oracle(&self, unit_path: &str, mutant: &Unit, tracer: &mut Tracer) -> Outcome {
        match self.differential(unit_path, mutant, tracer) {
            Ok(()) => Outcome::Survived,
            Err(outcome) => outcome,
        }
    }

    /// The oracle's one pass over the [`KERNELS`]: every gate that
    /// stops a mutant returns its verdict as the `Err`.
    fn differential(
        &self,
        unit_path: &str,
        mutant: &Unit,
        tracer: &mut Tracer,
    ) -> Result<(), Outcome> {
        let id = "fuzz-mutant";
        let mut post_tree = self.canon.clone();
        post_tree.set(unit_path, pretty_unit(mutant));
        let patch = diff_trees(&self.canon, &post_tree);
        if patch.is_empty() {
            return Err(killed("no-effect", "mutation produced identical source"));
        }

        // Stage 1: ksplice-create. Rejections here are pipeline gates
        // doing their job — kills, not failures.
        let (pack, _) = create_update_cached_traced(
            id,
            &self.canon,
            &patch,
            &CreateOptions::default(),
            &self.cache,
            tracer,
        )
        .map_err(create_outcome)?;

        // Stage 2: two reference kernels, cold-booted from post source
        // with *different compiler versions*. Ksplice only promises the
        // hot-patched kernel matches a cold boot up to the freedoms the
        // compiler already has (layout, alignment, register choice) — so
        // any behavior the two references themselves disagree on (an
        // out-of-bounds-read mutant, say) is layout-defined, not
        // semantics, and is excluded from the subject comparison. Both
        // build before either boots.
        let references = [
            (Options::distro(), ""),
            (
                Options {
                    cc_version: 2,
                    ..Options::distro()
                },
                "cc2: ",
            ),
        ];
        let mut images = Vec::new();
        for (options, tag) in &references {
            let (image, _) = build_tree_cached(&post_tree, options, &self.cache)
                .map_err(|e| killed("post-distro-build", format!("{tag}{e}")))?;
            images.push(image);
        }
        let mut kernels = Vec::with_capacity(KERNELS.len());
        for (image, (_, tag)) in images.iter().zip(&references) {
            let mut kernel =
                Kernel::boot_image(image).map_err(|e| killed("post-boot", format!("{tag}{e}")))?;
            kernel.configure_smp(self.apply_opts.smp.clone());
            kernels.push(kernel);
        }
        // Stage 3: the subject kernel, hot-patched from pre.
        kernels.push(self.subject.fork());

        // Every kernel loads the stress module *before* the subject is
        // patched, mirroring live operation (the workload exists first,
        // the update arrives later). Its one call ends the plan.
        let mut plan = self.call_plan(unit_path);
        if self.workload.includes_stress() {
            let mut at = [0; KERNELS.len()];
            for (k, kernel) in kernels.iter_mut().enumerate() {
                at[k] = load_stress(kernel, &self.cache).map_err(|e| Outcome::Infra {
                    detail: format!("{} stress load: {e}", KERNELS[k]),
                })?;
            }
            plan.push(Call {
                entry: Entry::Addr(at),
                args: vec![STRESS_ROUNDS],
                limit: STRESS_LIMIT,
            });
        }
        let text_before = kernels[SUBJECT].mem.text_checksum();
        let mut ks = Ksplice::new();
        ks.apply_traced(&mut kernels[SUBJECT], &pack, &self.apply_opts, tracer)
            .map_err(apply_aborted)?;

        let taint = lockstep(&mut kernels, &plan)?;
        if taint.is_none() {
            self.compare_state(&mut kernels)?;
        }

        // Stage 7: reversal restores the original text exactly. A tainted
        // mutant skips the state comparison (its behavior depends on
        // layout or step budgets) but must reverse cleanly all the same.
        ks.undo_any_traced(&mut kernels[SUBJECT], id, &self.apply_opts, tracer)
            .map_err(undo_aborted)?;
        if kernels[SUBJECT].mem.text_checksum() != text_before {
            return Err(diverged(
                "undo-text",
                "text checksum after undo differs from pre-apply",
            ));
        }
        match taint {
            None => Ok(()),
            Some((at, cause)) => {
                let what = if cause == "truncated" {
                    "step-budget truncation"
                } else {
                    "layout-dependent behavior"
                };
                Err(killed(cause, format!("{what} from workload call #{at} on")))
            }
        }
    }

    /// The syscall part of the lockstep call plan: the fixed sweep, then
    /// targeted probes of the mutated unit's own exported functions,
    /// with two argument patterns each. Derived from the canonical unit
    /// so every kernel defines every probed symbol.
    fn call_plan(&self, unit_path: &str) -> Vec<Call<'_>> {
        let mut plan = Vec::new();
        if !self.workload.includes_syscalls() {
            return plan;
        }
        let call = |name, args| Call {
            entry: Entry::Symbol(name),
            args,
            limit: CALL_LIMIT,
        };
        for (name, args) in &self.sweep {
            plan.push(call(name, args.clone()));
        }
        let probes = self.unit(unit_path).into_iter().flat_map(Unit::functions);
        for f in probes.filter(|f| int_entry(f, 3)) {
            for pattern in [[2u64, 3, 5], [7, 1, 4]] {
                plan.push(call(&f.name, pattern[..f.params.len()].to_vec()));
            }
        }
        plan
    }

    /// Stages 5 and 6, for an untainted mutant: the exploit probe and the
    /// final memory images must match wherever the two references agree.
    fn compare_state(&self, kernels: &mut [Kernel]) -> Result<(), Outcome> {
        // Stage 5: privilege-escalation behavior must match (all kernels
        // implement post semantics).
        let exploits = kernels
            .iter_mut()
            .map(|k| run_exploit(k, &self.prctl, &self.cache))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|detail| Outcome::Infra { detail })?;
        let (reference, subject) = (exploits[0], exploits[SUBJECT]);
        if reference == exploits[1] && reference != subject {
            return Err(diverged(
                "exploit",
                format!("reference {reference:?} vs subject {subject:?}"),
            ));
        }

        compare_images(kernels)
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
/// reported as [`Outcome::Panicked`].
fn run_mutant(cx: &FuzzContext, cfg: &FuzzConfig, index: usize, tracer: &mut Tracer) -> MutantRecord {
    // Distinct, well-mixed stream per mutant; independent of job count.
    let mut rng = FuzzRng::new(
        cfg.seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let unit_idx = rng.below(cx.units.len() as u64) as usize;
    let (unit_path, base_unit) = &cx.units[unit_idx];
    let (mutations, outcome) = match generate_mutant(base_unit, &mut rng, cfg.max_mutations) {
        None => (Vec::new(), Outcome::NoMutation),
        Some((mutant, mutations)) => {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                cx.oracle(unit_path, &mutant, tracer)
            }));
            let outcome = result.unwrap_or_else(|payload| Outcome::Panicked {
                detail: payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string()),
            });
            (mutations, outcome)
        }
    };
    MutantRecord {
        index,
        unit: unit_path.clone(),
        mutations,
        outcome,
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
        digest = fnv1a(digest, record.outcome.class_key().as_bytes());
        digest = fnv1a(digest, record.outcome.detail().as_bytes());
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
        let class = record.outcome.class_key();
        *by_class.entry(class.clone()).or_default() += 1;
        tracer.count(&format!("fuzz.outcome.{class}"), 1);
        let mut kinds: Vec<MutatorKind> = record.mutations.iter().map(|m| m.kind).collect();
        kinds.sort_by_key(|k| k.name());
        kinds.dedup();
        for kind in kinds {
            let s = by_mutator.entry(kind.name()).or_default();
            s.used += 1;
            match record.outcome {
                Outcome::Killed { .. } => {
                    s.killed += 1;
                    tracer.count(&format!("fuzz.kill.{}", kind.name()), 1);
                }
                Outcome::Survived => s.survived += 1,
                Outcome::Aborted { .. } => s.aborted += 1,
                Outcome::Diverged { .. } => s.diverged += 1,
                Outcome::NoMutation | Outcome::Infra { .. } | Outcome::Panicked { .. } => {}
            }
        }
        let panicked = matches!(record.outcome, Outcome::Panicked { .. });
        panics += usize::from(panicked);
        let failed = matches!(
            record.outcome,
            Outcome::Diverged { .. } | Outcome::Infra { .. }
        );
        if panicked || failed {
            tracer.emit(
                Stage::Fuzz,
                Severity::Error,
                "fuzz.failure",
                vec![
                    ("index", record.index.into()),
                    ("unit", record.unit.as_str().into()),
                    ("class", class.as_str().into()),
                    ("detail", record.outcome.detail().into()),
                ],
            );
            failures.push(record.clone());
        }
        // Panicked mutants are not re-run (the panic already poisoned
        // determinism guarantees).
        let shrinkable =
            !panicked && !matches!(record.outcome, Outcome::Survived | Outcome::NoMutation);
        if shrinkable && !record.mutations.is_empty() {
            first_of_class.entry(class).or_insert(record);
        }
    }

    // Shrink one exemplar per interesting class.
    let mut exemplars = Vec::new();
    for (class, record) in &first_of_class {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every lockstep kernel shares these: `tick` and `spin` bump
    /// `count`, which `ticks` reads back; `f` is appended per kernel.
    const COMMON: &str = "int count;\n\
        int tick() { count = count + 1; return count; }\n\
        int spin() { count = count + 1; while (1) { } return 0; }\n\
        int ticks() { return count; }\n";

    fn boot(src: &str) -> Kernel {
        let mut tree = SourceTree::new();
        tree.insert("m.kc", src);
        Kernel::boot(&tree, &Options::distro()).unwrap()
    }

    /// `[reference, calibration, subject]`, each with its own `f`.
    fn kernels(f: [&str; 3]) -> Vec<Kernel> {
        f.iter().map(|f| boot(&format!("{COMMON}{f}"))).collect()
    }

    fn plan<'a>(calls: &[(&'a str, &[u64])]) -> Vec<Call<'a>> {
        calls
            .iter()
            .map(|&(name, args)| Call {
                entry: Entry::Symbol(name),
                args: args.to_vec(),
                limit: 10_000,
            })
            .collect()
    }

    fn ticks(kernels: &mut [Kernel]) -> Vec<u64> {
        let read = |k: &mut Kernel| k.call_function("ticks", &[]).unwrap();
        kernels.iter_mut().map(read).collect()
    }

    const IDENTITY: &str = "int f(int a) { return a; }";

    #[test]
    fn trace_diff_reports_first_mismatch() {
        let off_by_one = "int f(int a) { return a + 1; }";
        let mut ks = kernels([IDENTITY, IDENTITY, off_by_one]);
        let calls = plan(&[("tick", &[]), ("f", &[5]), ("tick", &[])]);
        assert_eq!(
            lockstep(&mut ks, &calls),
            Err(diverged(
                "trace",
                "workload call #1: reference ret:5 vs subject ret:6"
            ))
        );
        // A divergence ends the sweep on every kernel.
        assert_eq!(ticks(&mut ks), [1, 1, 1]);

        let mut ks = kernels([IDENTITY; 3]);
        assert_eq!(lockstep(&mut ks, &calls), Ok(None));
        assert_eq!(ticks(&mut ks), [2, 2, 2]);
    }

    #[test]
    fn disagreeing_references_taint_and_only_the_subject_runs_on() {
        let plus_two = "int f(int a) { return a + 2; }";
        let mut ks = kernels([IDENTITY, plus_two, IDENTITY]);
        let calls = plan(&[("tick", &[]), ("f", &[5]), ("tick", &[]), ("tick", &[])]);
        assert_eq!(lockstep(&mut ks, &calls), Ok(Some((1, "wild-memory"))));
        assert_eq!(ticks(&mut ks), [1, 1, 3]);
    }

    #[test]
    fn a_memory_fault_on_one_side_is_wild_memory_not_a_divergence() {
        let null_read = "int f(int a) { int *p; p = 0; return *p + a; }";
        let mut ks = kernels([IDENTITY, IDENTITY, null_read]);
        assert_eq!(
            lockstep(&mut ks, &plan(&[("f", &[5])])),
            Ok(Some((0, "wild-memory")))
        );

        // A deterministic trap is behavior, not layout: it diverges.
        let divide = "int f(int a) { return a / (a - 5); }";
        let mut ks = kernels([IDENTITY, IDENTITY, divide]);
        let got = lockstep(&mut ks, &plan(&[("f", &[5])]));
        assert!(
            matches!(got, Err(Outcome::Diverged { class: "trace", .. })),
            "{got:?}"
        );
    }

    #[test]
    fn a_step_limit_truncates_and_skips_the_next_reference() {
        let mut ks = kernels([IDENTITY; 3]);
        let calls = plan(&[("tick", &[]), ("spin", &[]), ("tick", &[])]);
        assert_eq!(lockstep(&mut ks, &calls), Ok(Some((1, "truncated"))));
        // The reference's spin hit the budget, so the calibration kernel
        // never ran it; only the subject ran the last tick.
        assert_eq!(ticks(&mut ks), [2, 1, 3]);
    }

    fn poke_table(kernel: &mut Kernel, word: u64, value: u64) {
        let regions = kernel.mem.regions();
        let bss = regions.iter().find(|r| r.name == "m.kc:.bss").unwrap();
        let addr = bss.start + word * 8;
        kernel.mem.poke(addr, &value.to_le_bytes()).unwrap();
    }

    #[test]
    fn image_deltas_behind_unstable_words_are_reported() {
        let mut ks: Vec<Kernel> = (0..3).map(|_| boot("int table[32];\n")).collect();
        // Ten words the references disagree on: more than a region's
        // first eight deltas.
        for word in 0..10 {
            poke_table(&mut ks[1], word, 100 + word);
            poke_table(&mut ks[SUBJECT], word, 200 + word);
        }
        assert_eq!(compare_images(&ks), Ok(()));

        poke_table(&mut ks[SUBJECT], 10, 42);
        assert_eq!(
            compare_images(&ks),
            Err(diverged(
                "image",
                "1 delta(s), first: m.kc:.bss+0x50: \
                 ref 0x0000000000000000 vs subj 0x000000000000002a"
            ))
        );
    }
}
