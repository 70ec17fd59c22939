//! `ksplice` — the command-line face of the reproduction.
//!
//! Mirrors the paper's §5 workflow on the simulated kernel:
//!
//! ```text
//! ksplice create --tree <dir> --patch <file> --id <name> [--accept-data-changes] [--out pack.kupd]
//! ksplice inspect <pack.kupd>
//! ksplice demo   [--cve <id>]           # boot, exploit, hot-patch, re-exploit
//! ksplice eval   [--stress <rounds>] [--jobs <n>]   # the full §6 evaluation
//! ksplice profile [--cve <id>] [--flame <file>]     # sample the hot path pre/post apply
//! ksplice list                          # the 64-CVE corpus
//! ksplice report <trace.jsonl> [--spans] [--timeline <file>]
//! ```
//!
//! Every command accepts the global flags `--trace <path>` (write the
//! structured event stream as JSONL), `--verbose` (show Debug events)
//! and `--quiet` (only Errors). Progress output goes through the
//! human-readable trace sink, so the verbosity flags govern *all* of it
//! uniformly; command *products* (pack listings, the corpus table, the
//! evaluation report) print plainly regardless.
//!
//! `create` reads an on-disk source tree (files with `.kc`/`.ks`/`.kh`
//! suffixes), applies a unified diff, performs the pre and post builds,
//! and writes the update pack — the equivalent of the paper's
//! `ksplice-create --patch=prctl ~/src` producing
//! `ksplice-8c4o6u.tar.gz`. Because the "running kernel" here lives
//! inside a process, `demo`/`eval` boot one and apply updates to it live.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ksplice_core::trace::{
    chrome_trace_json, render_span_tree, Event, HumanSink, JsonlSink, Severity, Stage, Tracer,
    Value,
};
use ksplice_core::{
    create_update_cached_traced, ApplyOptions, BuildCache, CreateOptions, HealthProbe, Ksplice,
    RetryPolicy, SmpConfig, UpdateManager, UpdatePack, WatchPolicy,
};
use ksplice_eval::{base_tree, corpus, quiescence_correlation, run_exploit, run_profile, ProfileConfig};
use ksplice_fleet::{
    build_packset, Fleet, FleetConfig, NetFaults, Outcome, Partition, RolloutOrchestrator,
    RolloutPolicy, SimTransport, VERSION_NAMES,
};
use ksplice_kernel::{Fault, Kernel};
use ksplice_lang::{Options, SourceTree};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = take_flag_value(&mut args, "--trace");
    if trace_path.is_none() && args.iter().any(|a| a == "--trace") {
        eprintln!("ksplice: --trace requires a file path");
        return ExitCode::from(2);
    }
    let verbose = take_flag(&mut args, "--verbose");
    let quiet = take_flag(&mut args, "--quiet");

    let min_severity = if quiet {
        Severity::Error
    } else if verbose {
        Severity::Debug
    } else {
        Severity::Info
    };
    let mut tracer = Tracer::new().with_sink(Box::new(HumanSink::stdout(min_severity)));
    if let Some(path) = &trace_path {
        match JsonlSink::create(Path::new(path)) {
            Ok(sink) => {
                tracer.add_sink(Box::new(sink));
            }
            Err(e) => {
                eprintln!("ksplice: cannot open trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let result = match args.first().map(String::as_str) {
        Some("create") => cmd_create(&args[1..], &mut tracer),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("demo") => cmd_demo(&args[1..], &mut tracer),
        Some("eval") => cmd_eval(&args[1..], &mut tracer),
        Some("profile") => cmd_profile(&args[1..], &mut tracer),
        Some("fuzz") => cmd_fuzz(&args[1..], &mut tracer),
        Some("rebase") => cmd_rebase(&args[1..], &mut tracer),
        Some("fleet") => cmd_fleet(&args[1..], &mut tracer),
        Some("status") => cmd_status(&args[1..], &mut tracer),
        Some("list") => cmd_list(),
        Some("report") => cmd_report(&args[1..]),
        _ => {
            eprintln!(
                "usage: ksplice [--trace <file>] [--verbose|--quiet] <create|inspect|demo|eval|profile|fuzz|rebase|fleet|status|list|report> [options]\n\
                 \n  create  --tree <dir> --patch <file> --id <name> [--accept-data-changes] [--out <file>]\
                 \n  inspect <pack.kupd>\
                 \n  demo    [--cve <id>] [--retry-policy <spec>] [--cpus <n>] [--fault <site>]...\
                 \n          [--fault-seed <n>] [--watch-rounds <n>] [--probe <fn(args)=expected>]... [--undo]\
                 \n  eval    [--stress <rounds>] [--jobs <n>] [--retry-policy <spec>] [--cpus <n>]\
                 \n  profile [--cve <id>] [--interval <steps>] [--samples <n>] [--rounds <n>]\
                 \n          [--seed <n>] [--flame <file>] [--json] [--correlate]\
                 \n  fuzz    [--seed <n>] [--mutants <n>] [--workload syscalls|stress|both]\
                 \n          [--jobs <n>] [--cpus <n>] [--emit <dir>] [--replay <dir>]\
                 \n  rebase  [--seed <n>] [--levels D1,D2,...] [--cves <n>] [--jobs <n>]\
                 \n          [--json] [--out <file>]\
                 \n  fleet   [--nodes <n>] [--versions <n>] [--cpus <n>] [--load <threads>]\
                 \n          [--canary <n>] [--growth <n>] [--halt-per-mille <n>] [--jobs <n>]\
                 \n          [--seed <n>] [--transport-seed <n>] [--max-ticks <n>] [--resident]\
                 \n          [--faults drop:PM,dup:PM,corrupt:PM,delay:MIN..MAX]\
                 \n          [--partition FIRST..LAST@FROM..HEAL]... [--poison-version <v>]...\
                 \n  status  [--cve <id>]... [--undo <id>] [--cpus <n>] [--watch-rounds <n>] [--probe <spec>]...\
                 \n  list\
                 \n  report  <trace.jsonl> [--spans] [--timeline <file>]\
                 \n\
                 \n  retry-policy spec: fixed:ATTEMPTS:DELAY | exp:ATTEMPTS:INITIAL:MAX, with\
                 \n  optional :jPCT (jitter) and :cSTEPS (abandon cooldown) modifiers\
                 \n  fault sites (dev): stack-busy:N | module-load:N | corrupt-text[:0xADDR] |\
                 \n  step-jitter:N | probe-fail:N | barrier-stall:N\
                 \n  probe spec: canary call + expected result, e.g. sys_getuid()=1000; with\
                 \n  --watch-rounds the update is quarantined and auto-rolled-back on failure"
            );
            return ExitCode::from(2);
        }
    };
    tracer.flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ksplice: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes a boolean flag, returning whether it was present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Removes `name <value>`, returning the value.
fn take_flag_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        return None;
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// All values of a repeatable `name <value>` flag, in order.
fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// The `--retry-policy` and `--cpus` flags, or the default schedule on
/// a uniprocessor kernel.
fn retry_policy_arg(args: &[String]) -> Result<ApplyOptions, String> {
    let mut opts = match flag_value(args, "--retry-policy") {
        Some(spec) => ApplyOptions::with_retry(RetryPolicy::parse(spec)?),
        None => ApplyOptions::default(),
    };
    if let Some(n) = flag_value(args, "--cpus") {
        let cpus: u32 = n
            .parse()
            .map_err(|_| format!("--cpus: expected a number, got `{n}`"))?;
        opts.smp = SmpConfig::with_cpus(cpus);
    }
    Ok(opts)
}

/// Progress note: an Info-severity CLI event carrying one message.
fn note(tracer: &mut Tracer, name: &str, msg: String) {
    tracer.emit(Stage::Cli, Severity::Info, name, vec![("msg", msg.into())]);
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

fn cmd_create(args: &[String], tracer: &mut Tracer) -> Result<(), String> {
    let tree_dir = flag_value(args, "--tree").ok_or("create: missing --tree <dir>")?;
    let patch_file = flag_value(args, "--patch").ok_or("create: missing --patch <file>")?;
    let id = flag_value(args, "--id").ok_or("create: missing --id <name>")?;
    let out: PathBuf = flag_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("ksplice-{id}.kupd")));
    let accept = args.iter().any(|a| a == "--accept-data-changes");

    let tree = read_tree(Path::new(tree_dir))?;
    let patch = std::fs::read_to_string(patch_file).map_err(|e| format!("{patch_file}: {e}"))?;
    let opts = CreateOptions {
        accept_data_changes: accept,
        ..CreateOptions::default()
    };
    let (pack, _) =
        create_update_cached_traced(id, &tree, &patch, &opts, &BuildCache::new(), tracer)
            .map_err(|e| e.to_string())?;
    std::fs::write(&out, pack.to_bytes()).map_err(|e| format!("{}: {e}", out.display()))?;
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

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let file = args.first().ok_or("inspect: missing pack file")?;
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

fn cmd_demo(args: &[String], tracer: &mut Tracer) -> Result<(), String> {
    let id = flag_value(args, "--cve").unwrap_or("CVE-2006-2451");
    let apply_opts = retry_policy_arg(args)?;
    let watch_rounds: Option<u32> = flag_value(args, "--watch-rounds")
        .map(|s| s.parse().map_err(|_| "bad --watch-rounds value".to_string()))
        .transpose()?;
    let probe_specs = flag_values(args, "--probe");
    let do_undo = args.iter().any(|a| a == "--undo");
    let watched = watch_rounds.is_some() || !probe_specs.is_empty();
    let faults: Vec<Fault> = flag_values(args, "--fault")
        .into_iter()
        .map(Fault::parse)
        .collect::<Result<_, _>>()?;
    let fault_seed: Option<u64> = flag_value(args, "--fault-seed")
        .map(|s| s.parse().map_err(|_| "bad --fault-seed value".to_string()))
        .transpose()?;
    let case = corpus()
        .into_iter()
        .find(|c| c.id == id)
        .ok_or_else(|| format!("unknown CVE `{id}` (try `ksplice list`)"))?;
    note(
        tracer,
        "cli.boot",
        "booting the vulnerable kernel...".into(),
    );
    let mut kernel = Kernel::boot(&base_tree(), &Options::distro()).map_err(|e| e.to_string())?;
    if apply_opts.smp.cpus > 1 {
        kernel.configure_smp(apply_opts.smp.clone());
    }
    tracer.set_now(kernel.steps);
    if case.exploit.is_some() {
        let worked = run_exploit(&mut kernel, &case) == Some(true);
        tracer.set_now(kernel.steps);
        note(
            tracer,
            "cli.exploit",
            format!(
                "exploit for {id}: {}",
                if worked {
                    "SUCCEEDS (vulnerable)"
                } else {
                    "fails"
                }
            ),
        );
    }
    let opts = CreateOptions {
        accept_data_changes: case.needs_custom_code(),
        ..CreateOptions::default()
    };
    let patch = if case.needs_custom_code() {
        case.full_patch_text()
    } else {
        case.patch_text()
    };
    let (pack, _) = create_update_cached_traced(
        case.id,
        &base_tree(),
        &patch,
        &opts,
        &BuildCache::new(),
        tracer,
    )
    .map_err(|e| e.to_string())?;
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
    if watched {
        // Lifecycle path: preflight, apply, quarantine under probes,
        // auto-rollback on failure — driven by the UpdateManager.
        let mut probes: Vec<HealthProbe> = probe_specs
            .iter()
            .map(|s| HealthProbe::parse(s))
            .collect::<Result<_, _>>()?;
        if case.exploit.is_some() {
            // The exploit itself doubles as a health probe: a healthy
            // patched kernel must defeat it every round.
            let c = case.clone();
            probes.push(HealthProbe::Custom {
                name: format!("exploit:{id}"),
                check: Box::new(move |k: &mut Kernel| match run_exploit(k, &c) {
                    Some(true) => Err("exploit still succeeds".to_string()),
                    _ => Ok(()),
                }),
            });
        }
        let mut mgr = UpdateManager::with_watch(WatchPolicy {
            rounds: watch_rounds.unwrap_or(3),
            ..WatchPolicy::default()
        });
        let report =
            match mgr.apply_watched(&mut kernel, &pack, &mut probes, &apply_opts, tracer) {
                Ok(r) => r,
                Err(e) => {
                    kernel.faults.disarm();
                    print!("{}", mgr.render_status());
                    return Err(e.to_string());
                }
            };
        kernel.faults.disarm();
        note(
            tracer,
            "cli.applied",
            format!(
                "hot update committed after {} healthy watch round(s): {} function(s) \
                 replaced in {} attempt(s)",
                mgr.watch().rounds,
                pack.replaced_fn_count(),
                report.attempts
            ),
        );
        if do_undo {
            let undo = mgr
                .undo_any(&mut kernel, case.id, &apply_opts, tracer)
                .map_err(|e| e.to_string())?;
            print!("{}", undo.render());
        }
        print!("{}", mgr.render_status());
        note(tracer, "cli.done", "Done!".into());
        return Ok(());
    }
    let mut ks = Ksplice::new();
    let report = ks
        .apply_traced(&mut kernel, &pack, &apply_opts, tracer)
        .map_err(|e| e.to_string())?;
    // Leftover armed counts must not sabotage the re-exploit check.
    kernel.faults.disarm();
    note(
        tracer,
        "cli.applied",
        format!(
            "hot update applied: {} function(s) replaced in {} attempt(s), pause {:?}",
            pack.replaced_fn_count(),
            report.attempts,
            kernel.last_stop_machine.unwrap_or_default()
        ),
    );
    if case.exploit.is_some() {
        let worked = run_exploit(&mut kernel, &case) == Some(true);
        tracer.set_now(kernel.steps);
        note(
            tracer,
            "cli.exploit",
            format!(
                "exploit for {id}: {}",
                if worked {
                    "still succeeds!?"
                } else {
                    "DEFEATED"
                }
            ),
        );
    }
    if do_undo {
        let undo = ks
            .undo_any_traced(&mut kernel, case.id, &apply_opts, tracer)
            .map_err(|e| e.to_string())?;
        print!("{}", undo.render());
    }
    note(tracer, "cli.done", "Done!".into());
    Ok(())
}

/// `ksplice status`: boots a kernel, hot-applies a stack of updates
/// through the lifecycle manager, optionally reverses one of them (in
/// any order — non-LIFO reversals re-point trampoline chains), and
/// prints the lifecycle table.
fn cmd_status(args: &[String], tracer: &mut Tracer) -> Result<(), String> {
    let apply_opts = retry_policy_arg(args)?;
    let mut ids: Vec<&str> = flag_values(args, "--cve");
    if ids.is_empty() {
        // Three corpus entries patching disjoint units, so they stack
        // and reverse independently.
        ids = vec!["CVE-2006-2451", "CVE-2005-0750", "CVE-2005-4605"];
    }
    let watch_rounds: Option<u32> = flag_value(args, "--watch-rounds")
        .map(|s| s.parse().map_err(|_| "bad --watch-rounds value".to_string()))
        .transpose()?;
    let undo_id = flag_value(args, "--undo");
    let probe_specs = flag_values(args, "--probe");

    let mut kernel = Kernel::boot(&base_tree(), &Options::distro()).map_err(|e| e.to_string())?;
    if apply_opts.smp.cpus > 1 {
        kernel.configure_smp(apply_opts.smp.clone());
    }
    tracer.set_now(kernel.steps);
    let mut mgr = UpdateManager::with_watch(WatchPolicy {
        rounds: watch_rounds.unwrap_or(1),
        ..WatchPolicy::default()
    });
    for id in &ids {
        let case = corpus()
            .into_iter()
            .find(|c| c.id == *id)
            .ok_or_else(|| format!("unknown CVE `{id}` (try `ksplice list`)"))?;
        let opts = CreateOptions {
            accept_data_changes: case.needs_custom_code(),
            ..CreateOptions::default()
        };
        let patch = if case.needs_custom_code() {
            case.full_patch_text()
        } else {
            case.patch_text()
        };
        let (pack, _) = create_update_cached_traced(
            case.id,
            &base_tree(),
            &patch,
            &opts,
            &BuildCache::new(),
            tracer,
        )
        .map_err(|e| e.to_string())?;
        let mut probes: Vec<HealthProbe> = probe_specs
            .iter()
            .map(|s| HealthProbe::parse(s))
            .collect::<Result<_, _>>()?;
        if case.exploit.is_some() {
            let c = case.clone();
            probes.push(HealthProbe::Custom {
                name: format!("exploit:{id}"),
                check: Box::new(move |k: &mut Kernel| match run_exploit(k, &c) {
                    Some(true) => Err("exploit still succeeds".to_string()),
                    _ => Ok(()),
                }),
            });
        }
        if let Err(e) = mgr.apply_watched(&mut kernel, &pack, &mut probes, &apply_opts, tracer) {
            print!("{}", mgr.render_status());
            return Err(e.to_string());
        }
    }
    if let Some(id) = undo_id {
        let undo = mgr
            .undo_any(&mut kernel, id, &apply_opts, tracer)
            .map_err(|e| e.to_string())?;
        print!("{}", undo.render());
    }
    print!("{}", mgr.render_status());
    Ok(())
}

fn cmd_eval(args: &[String], tracer: &mut Tracer) -> Result<(), String> {
    let rounds: u64 = flag_value(args, "--stress")
        .map(|s| s.parse().map_err(|_| "bad --stress value".to_string()))
        .transpose()?
        .unwrap_or(8);
    let jobs: usize = flag_value(args, "--jobs")
        .map(|s| s.parse().map_err(|_| "bad --jobs value".to_string()))
        .transpose()?
        .unwrap_or_else(ksplice_eval::default_eval_jobs);
    if jobs == 0 {
        return Err("bad --jobs value".to_string());
    }
    let apply_opts = retry_policy_arg(args)?;
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
fn cmd_profile(args: &[String], tracer: &mut Tracer) -> Result<(), String> {
    let cve = flag_value(args, "--cve").unwrap_or("CVE-2005-1263");
    let mut cfg = ProfileConfig::default();
    if let Some(s) = flag_value(args, "--interval") {
        cfg.interval = s.parse().map_err(|_| "bad --interval value".to_string())?;
        if cfg.interval == 0 {
            return Err("bad --interval value".to_string());
        }
    }
    if let Some(s) = flag_value(args, "--samples") {
        cfg.max_samples = s.parse().map_err(|_| "bad --samples value".to_string())?;
    }
    if let Some(s) = flag_value(args, "--rounds") {
        cfg.rounds = s.parse().map_err(|_| "bad --rounds value".to_string())?;
    }
    if let Some(s) = flag_value(args, "--seed") {
        cfg.seed = s.parse().map_err(|_| "bad --seed value".to_string())?;
    }
    let report = run_profile(cve, &cfg, tracer)?;
    if let Some(path) = flag_value(args, "--flame") {
        std::fs::write(path, &report.post.folded).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote {} collapsed stack(s) to {path}",
            report.post.folded.lines().count()
        );
    }
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if args.iter().any(|a| a == "--correlate") {
        let corr = quiescence_correlation(&cfg, 60, 3, tracer)?;
        print!("{}", corr.render());
    }
    Ok(())
}

/// `ksplice fuzz`: a randomized patch campaign against the differential
/// oracle, or (`--replay <dir>`) a deterministic re-run of checked-in
/// regression cases.
fn cmd_fuzz(args: &[String], tracer: &mut Tracer) -> Result<(), String> {
    let mut cfg = ksplice_eval::FuzzConfig::default();
    if let Some(s) = flag_value(args, "--seed") {
        cfg.seed = s.parse().map_err(|_| "bad --seed value".to_string())?;
    }
    if let Some(s) = flag_value(args, "--mutants") {
        cfg.mutants = s.parse().map_err(|_| "bad --mutants value".to_string())?;
    }
    if let Some(s) = flag_value(args, "--jobs") {
        cfg.jobs = s.parse().map_err(|_| "bad --jobs value".to_string())?;
        if cfg.jobs == 0 {
            return Err("bad --jobs value".to_string());
        }
    }
    if let Some(s) = flag_value(args, "--max-mutations") {
        cfg.max_mutations = s
            .parse()
            .map_err(|_| "bad --max-mutations value".to_string())?;
    }
    if let Some(s) = flag_value(args, "--workload") {
        cfg.workload = ksplice_eval::Workload::parse(s)
            .ok_or("bad --workload: expected syscalls|stress|both")?;
    }
    if let Some(s) = flag_value(args, "--cpus") {
        cfg.cpus = s.parse().map_err(|_| "bad --cpus value".to_string())?;
        if cfg.cpus == 0 {
            return Err("bad --cpus value".to_string());
        }
    }

    if let Some(dir) = flag_value(args, "--replay") {
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
    if let Some(dir) = flag_value(args, "--emit") {
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
fn cmd_rebase(args: &[String], tracer: &mut Tracer) -> Result<(), String> {
    let mut cfg = ksplice_eval::RebaseMatrixConfig::default();
    if let Some(s) = flag_value(args, "--seed") {
        cfg.seed = s.parse().map_err(|_| "bad --seed value".to_string())?;
    }
    if let Some(s) = flag_value(args, "--levels") {
        cfg.levels = s
            .split(',')
            .map(|l| {
                ksplice_lang::DriftLevel::parse(l)
                    .ok_or_else(|| format!("bad --levels entry `{l}` (expected D1..D4)"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if cfg.levels.is_empty() {
            return Err("bad --levels: empty list".to_string());
        }
    }
    if let Some(s) = flag_value(args, "--cves") {
        cfg.cve_limit = s.parse().map_err(|_| "bad --cves value".to_string())?;
    }
    if let Some(s) = flag_value(args, "--jobs") {
        cfg.jobs = s.parse().map_err(|_| "bad --jobs value".to_string())?;
        if cfg.jobs == 0 {
            return Err("bad --jobs value".to_string());
        }
    }
    let matrix = ksplice_eval::run_rebase_matrix(&cfg, tracer)?;
    let text = if args.iter().any(|a| a == "--json") {
        matrix.to_json()
    } else {
        matrix.render()
    };
    if let Some(path) = flag_value(args, "--out") {
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
fn cmd_fleet(args: &[String], tracer: &mut Tracer) -> Result<(), String> {
    let parse_u32 = |name: &str| -> Result<Option<u32>, String> {
        flag_value(args, name)
            .map(|s| s.parse().map_err(|_| format!("bad {name} value `{s}`")))
            .transpose()
    };
    let parse_u64 = |name: &str| -> Result<Option<u64>, String> {
        flag_value(args, name)
            .map(|s| s.parse().map_err(|_| format!("bad {name} value `{s}`")))
            .transpose()
    };

    let mut cfg = FleetConfig::default();
    if let Some(n) = parse_u32("--nodes")? {
        cfg.nodes = n;
    }
    if let Some(n) = parse_u32("--versions")? {
        cfg.versions = n as usize;
    }
    if let Some(n) = parse_u32("--cpus")? {
        cfg.cpus = n;
    }
    if let Some(n) = parse_u32("--load")? {
        cfg.load_threads = n;
    }
    if let Some(n) = parse_u64("--seed")? {
        cfg.seed = n;
    }
    cfg.resident = args.iter().any(|a| a == "--resident");
    let versions = cfg.versions.clamp(1, VERSION_NAMES.len());

    let mut policy = RolloutPolicy {
        jobs: std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1).max(1))
            .unwrap_or(4),
        ..RolloutPolicy::default()
    };
    if let Some(n) = parse_u32("--canary")? {
        policy.canary = n;
    }
    if let Some(n) = parse_u32("--growth")? {
        policy.growth = n;
    }
    if let Some(n) = parse_u32("--halt-per-mille")? {
        policy.halt_per_mille = n;
    }
    if let Some(n) = parse_u64("--max-ticks")? {
        policy.max_ticks = n;
    }
    if let Some(n) = parse_u32("--jobs")? {
        if n == 0 {
            return Err("bad --jobs value `0`".to_string());
        }
        policy.jobs = n as usize;
    }

    let update = flag_value(args, "--update").unwrap_or("cve-2006-2451");
    let poison: Vec<usize> = flag_values(args, "--poison-version")
        .into_iter()
        .map(|s| {
            s.parse::<usize>()
                .ok()
                .filter(|&v| v < versions)
                .ok_or_else(|| format!("bad --poison-version `{s}` (fleet has {versions})"))
        })
        .collect::<Result<_, _>>()?;

    let transport_seed = parse_u64("--transport-seed")?.unwrap_or(0xf1ee_cafe);
    let mut transport = match flag_value(args, "--faults") {
        Some(spec) => SimTransport::with_faults(transport_seed, NetFaults::parse(spec)?),
        None => SimTransport::new(transport_seed),
    };
    for spec in flag_values(args, "--partition") {
        transport.add_partition(Partition::parse(spec)?);
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

fn cmd_list() -> Result<(), String> {
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
fn cmd_report(args: &[String]) -> Result<(), String> {
    let file = args.first().ok_or("report: missing trace file")?;
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
    if args.iter().any(|a| a == "--spans") {
        let tree = render_span_tree(&events);
        if tree.is_empty() {
            println!("no spans recorded");
        } else {
            println!("spans:");
            print!("{tree}");
        }
    }
    if let Some(path) = flag_value(args, "--timeline") {
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
