//! `ksplice` — the command-line face of the reproduction.
//!
//! Mirrors the paper's §5 workflow on the simulated kernel:
//!
//! ```text
//! ksplice create  --tree <dir> --patch <file> --id <name>  # build an update pack
//! ksplice inspect <pack.kupd>          # list what a pack replaces
//! ksplice demo    [--cve <id>]         # boot, exploit, hot-patch, re-exploit
//! ksplice eval    [--stress <rounds>]  # the full §6 evaluation
//! ksplice profile [--cve <id>]         # sample the hot path pre/post apply
//! ksplice fuzz    [--seed <n>]         # differential patch fuzzing
//! ksplice rebase  [--levels D1,D2]     # port the corpus onto drifted trees
//! ksplice fleet   [--nodes <n>]        # staged rollout across a simulated fleet
//! ksplice status  [--cve <id>]...      # stack updates, undo one, show their states
//! ksplice list                         # the 64-CVE corpus
//! ksplice report  <trace.jsonl>        # summarise a recorded trace
//! ```
//!
//! Each command reads only the flags its usage line in `COMMANDS`
//! declares, and refuses anything else before it does any work.
//!
//! Every command accepts the global flags `--trace <path>` (write the
//! structured event stream as JSONL), `--verbose` (show Debug events)
//! and `--quiet` (only Errors), before or after the command name.
//! Progress output goes through the human-readable trace sink, so the
//! verbosity flags govern *all* of it uniformly; command *products*
//! (pack listings, the corpus table, the evaluation report) print
//! plainly regardless.
//!
//! `create` reads an on-disk source tree (files with `.kc`/`.ks`/`.kh`
//! suffixes), applies a unified diff, performs the pre and post builds,
//! and writes the update pack — the equivalent of the paper's
//! `ksplice-create --patch=prctl ~/src` producing
//! `ksplice-8c4o6u.tar.gz`. Because the "running kernel" here lives
//! inside a process, `demo`/`eval` boot one and apply updates to it live.

use std::collections::BTreeMap;
use std::fmt::{Debug, Display};
use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::ops::RangeInclusive;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use ksplice_core::trace::{
    chrome_trace_json, render_span_tree, Event, HumanSink, JsonlSink, Severity, Stage, Tracer,
    Value,
};
use ksplice_core::{
    create_update_cached_traced, ApplyOptions, BuildCache, CreateOptions, HealthProbe, RetryPolicy,
    SmpConfig, UpdateManager, UpdatePack, WatchPolicy,
};
use ksplice_eval::{
    base_tree, corpus, default_eval_jobs, exploit_probe, find_cve, quiescence_correlation,
    run_exploit, run_profile, shippable_update, Cve, FuzzConfig, ProfileConfig, RebaseMatrixConfig,
    Workload, DISJOINT_STACK,
};
use ksplice_fleet::{
    build_packset, Fleet, FleetConfig, NetFaults, Outcome, Partition, RolloutOrchestrator,
    RolloutPolicy, SimTransport, VERSION_NAMES,
};
use ksplice_kernel::{Fault, Kernel};
use ksplice_lang::{DriftLevel, Options, SourceTree};

type Run = fn(&Args, &mut Tracer) -> Result<(), String>;

/// The flags every command takes, before or after its name.
const GLOBAL: &str = "[--trace <file>] [--verbose] [--quiet]";

/// Each command's usage line, which is also its flag declaration: `[--f]`
/// is a switch, `[--f <v>]` takes one value, `[--f <v>]...` may repeat,
/// `--f <v>` must be given, and a leading `<v>` is the one operand.
#[rustfmt::skip]
const COMMANDS: &[(&str, Run, &str)] = &[
    ("create", cmd_create, "--tree <dir> --patch <file> --id <name> [--accept-data-changes]
          [--out <file>]"),
    ("inspect", cmd_inspect, "<pack.kupd>"),
    ("demo", cmd_demo, "[--cve <id>] [--retry-policy <spec>] [--cpus <n>] [--fault <site>]...
          [--fault-seed <n>] [--watch-rounds <n>] [--probe <spec>]... [--undo]"),
    ("eval", cmd_eval, "[--stress <rounds>] [--jobs <n>] [--retry-policy <spec>] [--cpus <n>]"),
    ("profile", cmd_profile, "[--cve <id>] [--interval <steps>] [--samples <n>] [--rounds <n>]
          [--seed <n>] [--flame <file>] [--json] [--correlate]"),
    ("fuzz", cmd_fuzz, "[--seed <n>] [--mutants <n>] [--max-mutations <n>]
          [--workload <syscalls|stress|both>] [--jobs <n>] [--cpus <n>]
          [--emit <dir>] [--replay <dir>]"),
    ("rebase", cmd_rebase, "[--seed <n>] [--levels <D1,D2,...>] [--cves <n>] [--jobs <n>] [--json]
          [--out <file>]"),
    ("fleet", cmd_fleet, "[--nodes <n>] [--versions <n>] [--cpus <n>] [--load <threads>]
          [--canary <n>] [--growth <n>] [--halt-per-mille <n>] [--jobs <n>]
          [--seed <n>] [--transport-seed <n>] [--max-ticks <n>] [--resident]
          [--update <id>] [--faults <drop:PM,dup:PM,corrupt:PM,delay:MIN..MAX>]
          [--partition <FIRST..LAST@FROM..HEAL>]... [--poison-version <v>]..."),
    ("status", cmd_status, "[--cve <id>]... [--undo <id>] [--retry-policy <spec>] [--cpus <n>]
          [--watch-rounds <n>] [--probe <spec>]..."),
    ("list", cmd_list, ""),
    ("report", cmd_report, "<trace.jsonl> [--spans] [--timeline <file>]"),
];

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
    let mut text = format!("usage: ksplice {GLOBAL} <{}> [options]\n", names.join("|"));
    for (name, _, spec) in COMMANDS {
        text += format!("\n  {name:<7} {spec}").trim_end();
    }
    text + "\n\n  retry-policy spec: fixed:ATTEMPTS:DELAY (DELAY kernel steps between attempts)\
            \n  fault sites (dev): stack-busy:N | module-load:N | corrupt-text[:0xADDR] |\
            \n  step-jitter:N | probe-fail:N | barrier-stall:N\
            \n  probe spec: canary call + expected result, e.g. sys_getuid()=1000; with\
            \n  --watch-rounds the update is quarantined and auto-rolled-back on failure"
}

/// How usage line `spec` declares flag `name`: whether it takes a value
/// and whether it may repeat.
fn declared(spec: &str, name: &str) -> Option<(bool, bool)> {
    let words: Vec<&str> = spec.split_whitespace().collect();
    let at = words
        .iter()
        .position(|w| w.trim_matches(['[', ']', '.']) == name)?;
    let takes_value = words.get(at + 1).is_some_and(|w| w.starts_with('<'));
    let last = words[at + usize::from(takes_value)];
    Some((takes_value, last.ends_with("...")))
}

/// A command line, read against its command's usage line.
#[derive(Default)]
struct Args {
    /// The operand; empty when the command takes none.
    operand: String,
    /// Each flag given, with its values in order (none for a switch).
    given: BTreeMap<String, Vec<String>>,
}

/// Reads one flag value.
type Reader<T> = fn(&str) -> Result<T, String>;

impl Args {
    fn switch(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.given.get(name)?.first().map(String::as_str)
    }

    /// Every value given for flag `name`, each read by `read`. An error
    /// names the flag.
    fn get_all<T>(&self, name: &str, read: Reader<T>) -> Result<Vec<T>, String> {
        let values = self.given.get(name).map_or(&[][..], Vec::as_slice);
        values
            .iter()
            .map(|v| read(v).map_err(|e| format!("{name}: {e}")))
            .collect()
    }

    /// The value given for a flag that may not repeat, read by `read`.
    fn get<T>(&self, name: &str, read: Reader<T>) -> Result<Option<T>, String> {
        Ok(self.get_all(name, read)?.pop())
    }
}

/// Reads a number, or any other `FromStr` value. The `NonZero` types
/// refuse zero, so they are the one zero rule for counts that need one.
fn num<T: FromStr>(s: &str) -> Result<T, String>
where
    T::Err: Display,
{
    s.parse().map_err(|e| format!("bad value `{s}` ({e})"))
}

/// Reads a number within `range`.
fn num_in<T: FromStr + PartialOrd + Debug>(s: &str, range: RangeInclusive<T>) -> Result<T, String>
where
    T::Err: Display,
{
    let n = num(s)?;
    if range.contains(&n) {
        Ok(n)
    } else {
        Err(format!("bad value `{s}` (outside {range:?})"))
    }
}

/// Reads `argv` (the command name removed) against the command's usage
/// line `spec` and the global flags. A value starting with a single `-`
/// (such as `-` for stdout) is still a value.
fn read_args(name: &str, spec: &str, argv: &[String]) -> Result<Args, String> {
    let operand = spec.split(' ').next().filter(|w| w.starts_with('<'));
    let mut args = Args::default();
    let mut rest = argv.iter().peekable();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if operand.is_none() || !args.operand.is_empty() {
                return Err(format!("{name}: unexpected argument `{arg}`"));
            }
            args.operand = arg.clone();
            continue;
        }
        let (takes_value, repeats) = declared(GLOBAL, arg)
            .or_else(|| declared(spec, arg))
            .ok_or_else(|| format!("{name}: unknown flag {arg}"))?;
        if args.switch(arg) && !repeats {
            return Err(format!("{arg} given more than once"));
        }
        let values = args.given.entry(arg.clone()).or_default();
        if takes_value {
            let value = rest.next_if(|v| !v.starts_with("--"));
            values.push(value.ok_or(format!("{arg} needs a value"))?.clone());
        }
    }
    let missing = spec
        .split_whitespace()
        .find(|w| w.starts_with("--") && !args.switch(w))
        .or(operand.filter(|_| args.operand.is_empty()));
    match missing {
        Some(what) => Err(format!("{name}: missing {what}")),
        None => Ok(args),
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // The command is the first argument that is neither a global flag
    // nor the value of one.
    let mut at = 0;
    while let Some((takes_value, _)) = argv.get(at).and_then(|a| declared(GLOBAL, a)) {
        at += 1 + usize::from(takes_value);
    }
    let Some(&(name, run, spec)) = argv
        .get(at)
        .and_then(|a| COMMANDS.iter().find(|c| c.0 == a))
    else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    argv.remove(at);
    let args = match read_args(name, spec, &argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ksplice: {e}\nusage: ksplice {name} {spec}");
            return ExitCode::FAILURE;
        }
    };

    let min_severity = if args.switch("--quiet") {
        Severity::Error
    } else if args.switch("--verbose") {
        Severity::Debug
    } else {
        Severity::Info
    };
    let mut tracer = Tracer::new().with_sink(Box::new(HumanSink::stdout(min_severity)));
    if let Some(path) = args.value("--trace") {
        match JsonlSink::create(Path::new(path)) {
            Ok(sink) => _ = tracer.add_sink(Box::new(sink)),
            Err(e) => {
                eprintln!("ksplice: cannot open trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let result = run(&args, &mut tracer);
    tracer.flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ksplice: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--jobs`, or one worker per hardware thread.
fn jobs(args: &Args) -> Result<usize, String> {
    let jobs = args.get("--jobs", num::<NonZeroUsize>)?;
    Ok(jobs.map_or_else(default_eval_jobs, NonZeroUsize::get))
}

/// `--cpus`, or `default` when it is not given.
fn cpus(args: &Args, default: u32) -> Result<u32, String> {
    let cpus = args.get("--cpus", num::<NonZeroU32>)?;
    Ok(cpus.map_or(default, NonZeroU32::get))
}

/// `--retry-policy` and `--cpus`: the apply schedule and the kernel's
/// vCPU count.
fn apply_options(args: &Args) -> Result<ApplyOptions, String> {
    let retry = args.get("--retry-policy", RetryPolicy::parse)?;
    Ok(ApplyOptions {
        retry: retry.unwrap_or_default(),
        smp: SmpConfig::with_cpus(cpus(args, 1)?),
    })
}

/// `--watch-rounds`. Probes run only inside watch rounds, so zero rounds
/// with a `--probe` is refused rather than committing unchecked.
fn watch_rounds(args: &Args) -> Result<Option<u32>, String> {
    let rounds = args.get("--watch-rounds", num)?;
    if rounds == Some(0) && args.switch("--probe") {
        return Err("--probe runs only in watch rounds, and --watch-rounds is 0".to_string());
    }
    Ok(rounds)
}

/// Boots the base tree's kernel on the vCPUs `opts` asks for.
fn boot(opts: &ApplyOptions) -> Result<Kernel, String> {
    let mut kernel = Kernel::boot(&base_tree(), &Options::distro()).map_err(|e| e.to_string())?;
    if opts.smp.cpus > 1 {
        kernel.configure_smp(opts.smp.clone());
    }
    Ok(kernel)
}

/// Progress note: an Info-severity CLI event carrying one message.
fn note(tracer: &mut Tracer, name: &str, msg: String) {
    tracer.emit(Stage::Cli, Severity::Info, name, vec![("msg", msg.into())]);
}

/// Runs `case`'s exploit, if it has one, and notes `worked` or `failed`.
fn note_exploit(kernel: &mut Kernel, case: &Cve, tracer: &mut Tracer, worked: &str, failed: &str) {
    if case.exploit.is_some() {
        let verdict = if run_exploit(kernel, case) == Some(true) {
            worked
        } else {
            failed
        };
        tracer.set_now(kernel.steps);
        let msg = format!("exploit for {}: {verdict}", case.id);
        note(tracer, "cli.exploit", msg);
    }
}

/// Reads a source tree from disk: every `.kc`/`.ks`/`.kh` file under
/// `root`, keyed by its relative path.
fn read_tree(root: &Path) -> Result<SourceTree, String> {
    let mut tree = SourceTree::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                stack.push(path);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("kc") | Some("ks") | Some("kh")
            ) {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .to_string_lossy()
                    .replace('\\', "/");
                let body = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                tree.insert(&rel, &body);
            }
        }
    }
    if tree.is_empty() {
        return Err(format!("{}: no .kc/.ks/.kh sources found", root.display()));
    }
    Ok(tree)
}

fn cmd_create(args: &Args, tracer: &mut Tracer) -> Result<(), String> {
    // `read_args` refuses a command line without these.
    let [tree_dir, patch_file, id] =
        ["--tree", "--patch", "--id"].map(|f| args.value(f).unwrap_or_default());
    let default_out = format!("ksplice-{id}.kupd");
    let out = Path::new(args.value("--out").unwrap_or(&default_out));

    let tree = read_tree(Path::new(tree_dir))?;
    let patch = std::fs::read_to_string(patch_file).map_err(|e| format!("{patch_file}: {e}"))?;
    let opts = CreateOptions {
        accept_data_changes: args.switch("--accept-data-changes"),
        ..CreateOptions::default()
    };
    let (pack, _) =
        create_update_cached_traced(id, &tree, &patch, &opts, &BuildCache::new(), tracer)
            .map_err(|e| e.to_string())?;
    std::fs::write(out, pack.to_bytes()).map_err(|e| format!("{}: {e}", out.display()))?;
    note(
        tracer,
        "cli.pack_written",
        format!(
            "Ksplice update pack written to {} ({} unit(s), {} function(s) replaced, helper {}B / primary {}B)",
            out.display(),
            pack.units.len(),
            pack.replaced_fn_count(),
            pack.helper_size(),
            pack.primary_size()
        ),
    );
    Ok(())
}

fn cmd_inspect(args: &Args, _: &mut Tracer) -> Result<(), String> {
    let file = &args.operand;
    let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
    let pack = UpdatePack::parse(&bytes)?;
    println!("update: {}", pack.id);
    for u in &pack.units {
        println!("  unit {}", u.unit);
        for (sec, f) in &u.replaced_fns {
            println!("    replaces {f} ({sec})");
        }
        for s in &u.primary.sections {
            println!("    primary section {} ({} bytes)", s.name, s.size);
        }
    }
    Ok(())
}

/// `ksplice demo`: boots the vulnerable kernel, runs the CVE's exploit,
/// hot-applies the update through the lifecycle manager, and runs the
/// exploit again. A watch window or a probe asks for quarantine: three
/// rounds by default, and the state table at the end.
fn cmd_demo(args: &Args, tracer: &mut Tracer) -> Result<(), String> {
    let case = args
        .get("--cve", find_cve)?
        .map_or_else(|| find_cve("CVE-2006-2451"), Ok)?;
    let apply_opts = apply_options(args)?;
    let watch_rounds = watch_rounds(args)?;
    let mut probes = args.get_all("--probe", HealthProbe::parse)?;
    let faults = args.get_all("--fault", Fault::parse)?;
    let fault_seed: Option<u64> = args.get("--fault-seed", num)?;
    let watched = watch_rounds.is_some() || !probes.is_empty();
    let rounds = watch_rounds.unwrap_or(if watched { 3 } else { 0 });

    note(
        tracer,
        "cli.boot",
        "booting the vulnerable kernel...".into(),
    );
    let mut kernel = boot(&apply_opts)?;
    tracer.set_now(kernel.steps);
    note_exploit(&mut kernel, &case, tracer, "SUCCEEDS (vulnerable)", "fails");
    let (pack, _) =
        shippable_update(&case, &BuildCache::new(), tracer).map_err(|e| e.to_string())?;
    // Faults target the hot-update pipeline, so arm them only now —
    // arming before the exploit demonstration would fire them on the
    // exploit module's load instead of the update's.
    if let Some(seed) = fault_seed {
        kernel.faults.reseed(seed);
    }
    for fault in &faults {
        let hit = kernel.arm_fault(*fault)?;
        note(
            tracer,
            "cli.fault_armed",
            match hit {
                Some(addr) => format!("fault armed: {fault} (flipped byte at {addr:#x})"),
                None => format!("fault armed: {fault}"),
            },
        );
    }
    // The exploit itself doubles as a health probe: a healthy patched
    // kernel must defeat it every round.
    probes.extend(case.exploit.is_some().then(|| exploit_probe(&case)));
    let mut mgr = UpdateManager::with_watch(WatchPolicy {
        rounds,
        ..WatchPolicy::default()
    });
    let applied = mgr.apply_watched(&mut kernel, &pack, &mut probes, &apply_opts, tracer);
    // Leftover armed counts must not sabotage the re-exploit check.
    kernel.faults.disarm();
    if applied.is_err() && watched {
        print!("{}", mgr.render_status());
    }
    let report = applied.map_err(|e| e.to_string())?;
    note(
        tracer,
        "cli.applied",
        format!(
            "hot update committed after {rounds} healthy watch round(s): {} function(s) \
             replaced in {} attempt(s)",
            pack.replaced_fn_count(),
            report.attempts
        ),
    );
    note_exploit(&mut kernel, &case, tracer, "still succeeds!?", "DEFEATED");
    if args.switch("--undo") {
        let undo = mgr
            .undo_any(&mut kernel, case.id, &apply_opts, tracer)
            .map_err(|e| e.to_string())?;
        print!("{}", undo.render());
    }
    if watched {
        print!("{}", mgr.render_status());
    }
    note(tracer, "cli.done", "Done!".into());
    Ok(())
}

/// `ksplice status`: boots a kernel, hot-applies a stack of updates
/// through the lifecycle manager, optionally reverses one of them (in
/// any order — non-LIFO reversals re-point trampoline chains), and
/// prints the lifecycle table.
fn cmd_status(args: &Args, tracer: &mut Tracer) -> Result<(), String> {
    let apply_opts = apply_options(args)?;
    let mut cases = args.get_all("--cve", find_cve)?;
    if cases.is_empty() {
        for id in DISJOINT_STACK {
            cases.push(find_cve(id)?);
        }
    }
    let rounds = watch_rounds(args)?.unwrap_or(1);
    let mut probes = args.get_all("--probe", HealthProbe::parse)?;
    let canaries = probes.len();

    let mut kernel = boot(&apply_opts)?;
    tracer.set_now(kernel.steps);
    let mut mgr = UpdateManager::with_watch(WatchPolicy {
        rounds,
        ..WatchPolicy::default()
    });
    for case in &cases {
        let (pack, _) =
            shippable_update(case, &BuildCache::new(), tracer).map_err(|e| e.to_string())?;
        // The caller's canaries, then this update's exploit.
        probes.truncate(canaries);
        probes.extend(case.exploit.is_some().then(|| exploit_probe(case)));
        if let Err(e) = mgr.apply_watched(&mut kernel, &pack, &mut probes, &apply_opts, tracer) {
            print!("{}", mgr.render_status());
            return Err(e.to_string());
        }
    }
    if let Some(id) = args.value("--undo") {
        let undo = mgr
            .undo_any(&mut kernel, id, &apply_opts, tracer)
            .map_err(|e| e.to_string())?;
        print!("{}", undo.render());
    }
    print!("{}", mgr.render_status());
    Ok(())
}

fn cmd_eval(args: &Args, tracer: &mut Tracer) -> Result<(), String> {
    let rounds = args.get("--stress", num)?.unwrap_or(8);
    let jobs = jobs(args)?;
    let apply_opts = apply_options(args)?;
    let report = ksplice_eval::run_full_evaluation(rounds, jobs, &apply_opts, tracer)?;
    tracer.count("eval.cases_run", report.outcomes.len() as u64);
    println!("{}", report.render());
    Ok(())
}

/// `ksplice profile`: PC-sampling profile of an update's hot path —
/// sample the stress workload on the unpatched kernel, apply the CVE's
/// update, sample again, and show which functions migrated into the
/// patch arena. `--flame` writes the post-apply collapsed stacks;
/// `--correlate` additionally measures observed stop_machine abort rates
/// against the profiler's quiescence-risk ranking.
fn cmd_profile(args: &Args, tracer: &mut Tracer) -> Result<(), String> {
    let d = ProfileConfig::default();
    let interval = args.get("--interval", num::<NonZeroU64>)?;
    let cfg = ProfileConfig {
        interval: interval.map_or(d.interval, NonZeroU64::get),
        max_samples: args.get("--samples", num)?.unwrap_or(d.max_samples),
        rounds: args.get("--rounds", num)?.unwrap_or(d.rounds),
        seed: args.get("--seed", num)?.unwrap_or(d.seed),
    };
    let cve = args.get("--cve", find_cve)?;
    let report = run_profile(cve.map_or("CVE-2005-1263", |c| c.id), &cfg, tracer)?;
    if let Some(path) = args.value("--flame") {
        std::fs::write(path, &report.post.folded).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote {} collapsed stack(s) to {path}",
            report.post.folded.lines().count()
        );
    }
    if args.switch("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if args.switch("--correlate") {
        let corr = quiescence_correlation(&cfg, 60, 3, tracer)?;
        print!("{}", corr.render());
    }
    Ok(())
}

/// `ksplice fuzz`: a randomized patch campaign against the differential
/// oracle, or (`--replay <dir>`) a deterministic re-run of checked-in
/// regression cases.
fn cmd_fuzz(args: &Args, tracer: &mut Tracer) -> Result<(), String> {
    // A replay re-runs the checked-in cases: only the topology flags
    // `FuzzContext::new` reads apply to it.
    if args.switch("--replay") {
        let campaign = ["--seed", "--mutants", "--max-mutations", "--jobs", "--emit"];
        if let Some(flag) = campaign.into_iter().find(|f| args.switch(f)) {
            return Err(format!("{flag} has no effect with --replay"));
        }
    }
    let d = FuzzConfig::default();
    let workload = args.get("--workload", |s| {
        Workload::parse(s).ok_or_else(|| format!("bad value `{s}` (expected syscalls|stress|both)"))
    })?;
    let cfg = FuzzConfig {
        seed: args.get("--seed", num)?.unwrap_or(d.seed),
        mutants: args.get("--mutants", num)?.unwrap_or(d.mutants),
        jobs: jobs(args)?,
        max_mutations: args.get("--max-mutations", num)?.unwrap_or(d.max_mutations),
        workload: workload.unwrap_or(d.workload),
        cpus: cpus(args, d.cpus)?,
    };

    if let Some(dir) = args.value("--replay") {
        let cases = ksplice_eval::load_regression_dir(Path::new(dir))?;
        let cx = ksplice_eval::FuzzContext::new(&cfg)?;
        let mut failed = 0usize;
        for case in &cases {
            // A regression case's expected outcome is usually a kill, so
            // the pipeline's abort events are not worth reporting here.
            match cx.replay(case, &mut Tracer::disabled()) {
                Ok(()) => println!("replay {:<32} ok ({})", case.name, case.expect),
                Err(e) => {
                    failed += 1;
                    println!("replay {:<32} FAILED: {e}", case.name);
                }
            }
        }
        println!("{} case(s), {} failed", cases.len(), failed);
        return if failed == 0 {
            Ok(())
        } else {
            Err(format!("{failed} regression case(s) failed"))
        };
    }

    let report = ksplice_eval::run_campaign(&cfg, tracer)?;
    println!("{}", report.render());
    if let Some(dir) = args.value("--emit") {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for case in &report.exemplars {
            let path = dir.join(format!("{}.fuzz", case.name));
            std::fs::write(&path, case.render()).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("emitted {}", path.display());
        }
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!(
            "{} oracle failure(s), {} panic(s)",
            report.failures.len(),
            report.panics
        ))
    }
}

/// `ksplice rebase`: the drift matrix — port every corpus update onto
/// seeded-drift variants of the base tree and report auto-port success
/// per drift level and mutator class.
fn cmd_rebase(args: &Args, tracer: &mut Tracer) -> Result<(), String> {
    let d = RebaseMatrixConfig::default();
    let levels = args.get("--levels", |s| {
        let level =
            |l| DriftLevel::parse(l).ok_or_else(|| format!("bad entry `{l}` (expected D1..D4)"));
        s.split(',').map(level).collect()
    })?;
    let cfg = RebaseMatrixConfig {
        seed: args.get("--seed", num)?.unwrap_or(d.seed),
        levels: levels.unwrap_or(d.levels),
        cve_limit: args.get("--cves", num)?.unwrap_or(d.cve_limit),
        jobs: jobs(args)?,
    };
    let matrix = ksplice_eval::run_rebase_matrix(&cfg, tracer)?;
    let text = if args.switch("--json") {
        matrix.to_json()
    } else {
        matrix.render()
    };
    if let Some(path) = args.value("--out") {
        std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
    } else {
        print!("{text}");
    }
    let misports = matrix.misports().len();
    let unclassified = matrix.unclassified().len();
    if misports > 0 || unclassified > 0 {
        return Err(format!(
            "{misports} ground-truth violation(s), {unclassified} unclassified cell(s)"
        ));
    }
    Ok(())
}

/// `ksplice fleet`: a staged, canary-gated rollout across a simulated
/// fleet of heterogeneous kernels over a fault-injectable transport —
/// the Uptrack-style mass-deployment story in one command.
fn cmd_fleet(args: &Args, tracer: &mut Tracer) -> Result<(), String> {
    let d = FleetConfig::default();
    let cfg = FleetConfig {
        nodes: args.get("--nodes", num)?.unwrap_or(d.nodes),
        versions: args
            .get("--versions", |s| num_in(s, 1..=VERSION_NAMES.len()))?
            .unwrap_or(d.versions),
        cpus: cpus(args, d.cpus)?,
        load_threads: args.get("--load", num)?.unwrap_or(d.load_threads),
        seed: args.get("--seed", num)?.unwrap_or(d.seed),
        resident: args.switch("--resident"),
        ..d
    };
    let versions = cfg.versions;
    let d = RolloutPolicy::default();
    let policy = RolloutPolicy {
        canary: args
            .get("--canary", num::<NonZeroU32>)?
            .map_or(d.canary, NonZeroU32::get),
        growth: args
            .get("--growth", |s| num_in(s, 2..=u32::MAX))?
            .unwrap_or(d.growth),
        halt_per_mille: args
            .get("--halt-per-mille", num)?
            .unwrap_or(d.halt_per_mille),
        max_ticks: args.get("--max-ticks", num)?.unwrap_or(d.max_ticks),
        jobs: jobs(args)?,
    };
    let update = args.value("--update").unwrap_or("cve-2006-2451");
    let poison: Vec<usize> = args.get_all("--poison-version", num)?;
    if let Some(v) = poison.iter().find(|&&v| v >= versions) {
        return Err(format!("--poison-version: the fleet has no version {v}"));
    }
    let mut transport = SimTransport::with_faults(
        args.get("--transport-seed", num)?.unwrap_or(0xf1ee_cafe),
        args.get("--faults", NetFaults::parse)?.unwrap_or_default(),
    );
    for partition in args.get_all("--partition", Partition::parse)? {
        transport.add_partition(partition);
    }

    note(
        tracer,
        "cli.fleet_boot",
        format!(
            "building a {}-node fleet across {} base version(s)...",
            cfg.nodes, versions
        ),
    );
    let mut fleet = Fleet::new(cfg)?;
    let packset = build_packset(update, versions, &poison, fleet.context().cache())?;
    note(
        tracer,
        "cli.fleet_rollout",
        format!(
            "rolling out `{update}` in staged waves (canary {}, growth x{})...",
            policy.canary, policy.growth
        ),
    );
    let orch = RolloutOrchestrator::new(policy, packset, &fleet);
    let report = orch.run(&mut fleet, &mut transport, tracer);
    print!("{}", report.render());
    match report.outcome {
        Outcome::Committed => Ok(()),
        Outcome::Contained => Err(format!(
            "rollout halted at wave {} and rolled back ({} node(s) restored)",
            report.halted_wave.unwrap_or(0),
            report.rolled_back
        )),
        Outcome::Exhausted => Err(format!(
            "rollout did not converge within {} tick(s)",
            report.ticks
        )),
    }
}

fn cmd_list(_: &Args, _: &mut Tracer) -> Result<(), String> {
    println!(
        "{:<16} {:>4} {:<12} custom  summary",
        "CVE", "year", "class"
    );
    for c in corpus() {
        println!(
            "{:<16} {:>4} {:<12} {:>6}  {}",
            c.id,
            c.year,
            match c.class {
                ksplice_eval::VulnClass::PrivilegeEscalation => "priv-esc",
                ksplice_eval::VulnClass::InformationDisclosure => "info-leak",
            },
            c.custom
                .as_ref()
                .map(|cc| cc.lines.to_string())
                .unwrap_or_else(|| "-".into()),
            c.summary
        );
    }
    Ok(())
}

/// Summarises a JSONL trace: per-stage event counts, stop_machine
/// attempt history, and any recorded mismatches/aborts. `--spans`
/// renders the causal span tree; `--timeline <file>` exports the trace
/// as Chrome trace JSON (load in Perfetto or `chrome://tracing`; `-`
/// writes to stdout).
fn cmd_report(args: &Args, _: &mut Tracer) -> Result<(), String> {
    let file = &args.operand;
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Event::from_json(line).map_err(|e| format!("{file}:{}: {e}", lineno + 1))?;
        events.push(event);
    }
    if events.is_empty() {
        return Err(format!("{file}: no events"));
    }
    println!(
        "trace: {} event(s), steps {}..{}",
        events.len(),
        events.first().map(|e| e.ts_steps).unwrap_or(0),
        events.last().map(|e| e.ts_steps).unwrap_or(0)
    );
    for stage in Stage::ALL {
        let n = events.iter().filter(|e| e.stage == stage).count();
        if n > 0 {
            println!("  {:<8} {n} event(s)", stage.as_str());
        }
    }
    let attempts: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "apply.stop_machine" || e.name == "undo.stop_machine")
        .collect();
    if !attempts.is_empty() {
        println!("stop_machine attempts:");
        for e in attempts {
            let ok = e.field("ok").and_then(Value::as_bool).unwrap_or(false);
            let attempt = e.u64_field("attempt").unwrap_or(0);
            if ok {
                println!(
                    "  {} attempt {attempt}: ok (pause {}us)",
                    e.stage,
                    e.u64_field("pause_us").unwrap_or(0)
                );
            } else {
                println!(
                    "  {} attempt {attempt}: busy `{}` (tid {})",
                    e.stage,
                    e.str_field("busy_fn").unwrap_or("?"),
                    e.u64_field("busy_tid").unwrap_or(0)
                );
            }
        }
    }
    if args.switch("--spans") {
        let tree = render_span_tree(&events);
        if tree.is_empty() {
            println!("no spans recorded");
        } else {
            println!("spans:");
            print!("{tree}");
        }
    }
    if let Some(path) = args.value("--timeline") {
        let json = chrome_trace_json(&events);
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote Chrome trace to {path} (load in Perfetto or chrome://tracing)");
        }
    }
    for e in &events {
        if e.name == "runpre.mismatch" {
            println!(
                "run-pre mismatch: unit {} fn {} pre+{:#x}{}",
                e.str_field("unit").unwrap_or("?"),
                e.str_field("function").unwrap_or("?"),
                e.u64_field("pre_offset").unwrap_or(0),
                match (e.u64_field("expected_byte"), e.u64_field("actual_byte")) {
                    (Some(x), Some(a)) => format!(" expected {x:#04x} found {a:#04x}"),
                    _ => String::new(),
                }
            );
        } else if e.severity == Severity::Error {
            println!("error: {}", e.render_human());
        }
    }
    Ok(())
}
