//! Integration tests driving the `ksplice` binary itself.

use std::process::Command;

fn ksplice() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ksplice"))
}

#[test]
fn usage_on_no_args() {
    let out = ksplice().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn list_shows_the_corpus() {
    let out = ksplice().arg("list").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CVE-2006-2451"));
    assert!(text.contains("CVE-2005-2709"));
    // Header plus 64 entries.
    assert_eq!(text.lines().count(), 65);
}

#[test]
fn demo_defeats_the_default_exploit() {
    let out = ksplice().arg("demo").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SUCCEEDS (vulnerable)"));
    assert!(text.contains("DEFEATED"));
}

#[test]
fn watched_demo_commits_and_undoes() {
    let out = ksplice()
        .args(["demo", "--watch-rounds", "2", "--undo"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("watch.start"));
    assert!(text.contains("committed after 2 healthy watch round(s)"));
    assert!(text.contains("site(s) restored"));
    assert!(text.contains("reversed"));
}

#[test]
fn watched_demo_rolls_back_on_failing_probe() {
    // A probe demanding uid 1000 from a fresh thread (uid 0) always
    // fails, so quarantine must auto-roll-back and exit nonzero.
    let out = ksplice()
        .args(["demo", "--watch-rounds", "1", "--probe", "sys_getuid()=1000"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("watch.auto_rollback"));
    assert!(text.contains("rolled-back"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed quarantine"));
}

#[test]
fn status_stacks_updates_and_reverses_mid_stack() {
    let out = ksplice()
        .args(["status", "--undo", "CVE-2005-0750", "--quiet"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CVE-2006-2451  committed"));
    assert!(text.contains("CVE-2005-0750  reversed"));
    assert!(text.contains("CVE-2005-4605  committed"));
    assert!(text.contains("site(s) restored"));
}

#[test]
fn status_table_tracks_quarantine_to_committed() {
    // Each update passes through quarantined (watch window) before the
    // table reports it committed; the watch trace shows the transition.
    let out = ksplice()
        .args(["status", "--watch-rounds", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for id in ["CVE-2006-2451", "CVE-2005-0750", "CVE-2005-4605"] {
        assert!(text.contains("watch.start"), "missing watch window");
        assert!(
            text.contains(&format!("{id}  committed")),
            "{id} not committed in:\n{text}"
        );
    }
    assert_eq!(text.matches("watch.committed").count(), 3);
    // Nothing was reversed or left in quarantine.
    assert!(!text.contains("  quarantined"));
    assert!(!text.contains("rolled-back"));
}

#[test]
fn status_table_tracks_rolled_back_updates() {
    // A probe demanding uid 1000 from a fresh thread (uid 0) fails every
    // round, so the first update is auto-reversed out of quarantine and
    // the state table records it as rolled-back.
    let out = ksplice()
        .args([
            "status",
            "--quiet",
            "--probe",
            "sys_getuid()=1000",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("CVE-2006-2451  rolled-back"),
        "table missing rolled-back row:\n{text}"
    );
    assert!(!text.contains("committed"), "apply loop continued past the rollback");
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed quarantine"));
}

#[test]
fn create_and_inspect_roundtrip() {
    let dir = std::env::temp_dir().join(format!("ksplice-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tree_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../eval/tree");
    let patch_path = dir.join("fix.patch");
    std::fs::write(
        &patch_path,
        "--- a/drivers/dst_ca.kc\n\
         +++ b/drivers/dst_ca.kc\n\
         @@ -6,7 +6,7 @@\n \n int ca_get_slot_info(int slot) {\n     debug = debug + 1;\n\
         -    if (slot > 7) {\n+    if (slot < 0 || slot > 7) {\n         return 0 - 22;\n     }\n     return ca_messages[slot];\n",
    )
    .unwrap();
    let pack_path = dir.join("u.kupd");
    let out = ksplice()
        .args([
            "create",
            "--tree",
            tree_dir,
            "--patch",
            patch_path.to_str().unwrap(),
            "--id",
            "cli-test",
            "--out",
            pack_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(pack_path.exists());

    let out = ksplice()
        .args(["inspect", pack_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("update: cli-test"));
    assert!(text.contains("replaces ca_get_slot_info"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn create_rejects_nonapplying_patch() {
    let dir = std::env::temp_dir().join(format!("ksplice-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tree_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../eval/tree");
    let patch_path = dir.join("bad.patch");
    std::fs::write(
        &patch_path,
        "--- a/drivers/dst_ca.kc\n+++ b/drivers/dst_ca.kc\n@@ -1,1 +1,1 @@\n-no such line\n+whatever\n",
    )
    .unwrap();
    let out = ksplice()
        .args([
            "create",
            "--tree",
            tree_dir,
            "--patch",
            patch_path.to_str().unwrap(),
            "--id",
            "bad",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_timeline_is_valid_chrome_trace_json() {
    use ksplice_core::trace::{parse_json_object, Value};

    let dir = std::env::temp_dir().join(format!("ksplice-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("demo.jsonl");
    let trace = dir.join("demo.trace.json");

    let out = ksplice()
        .args([
            "--trace",
            jsonl.to_str().unwrap(),
            "--quiet",
            "demo",
            "--cve",
            "CVE-2005-1263",
            "--watch-rounds",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = ksplice()
        .args([
            "report",
            jsonl.to_str().unwrap(),
            "--timeline",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The acceptance bar: the file parses as Chrome trace JSON — a top
    // level object holding a traceEvents array of complete events.
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = parse_json_object(&text).expect("timeline is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut names = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?}");
        assert!(ev.get("ts").and_then(Value::as_u64).is_some());
        if ph == "X" {
            // Complete (span) events carry a duration and their span id.
            assert!(ev.get("dur").and_then(Value::as_u64).unwrap_or(0) >= 1);
            assert!(ev
                .get("args")
                .and_then(|a| a.get("span_id"))
                .and_then(Value::as_u64)
                .is_some());
            names.push(ev.get("name").and_then(Value::as_str).unwrap().to_string());
        }
    }
    // The span hierarchy the demo lifecycle is expected to produce.
    for expected in ["create", "update", "preflight", "apply", "apply.attempt", "watch"] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing span `{expected}` in {names:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_is_deterministic_across_processes() {
    // The CI determinism smoke in binary form: the same seed and config
    // must produce byte-identical JSON reports in separate processes.
    let run = || {
        let out = ksplice()
            .args([
                "--quiet",
                "profile",
                "--cve",
                "CVE-2005-1263",
                "--rounds",
                "8",
                "--seed",
                "7",
                "--json",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let first = run();
    assert!(first.contains("\"migrated\""), "unexpected report: {first}");
    assert_eq!(first, run());
}

#[test]
fn profile_correlate_keeps_its_measured_aborts_out_of_quiet_output() {
    // The correlation's single-attempt applies abort by design; those
    // aborts are its measurement, not errors for the operator.
    let out = ksplice()
        .args([
            "--quiet",
            "profile",
            "--cve",
            "CVE-2005-1263",
            "--correlate",
            "--rounds",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("rankings agree"), "{text}");
    assert!(
        !text.lines().any(|l| l.contains("error]")),
        "error events in quiet output:\n{text}"
    );
}

#[test]
fn report_rejects_a_deeply_nested_trace_line() {
    // A million unclosed brackets: the parser refuses past its nesting
    // limit instead of overflowing the stack.
    let dir = std::env::temp_dir().join(format!("ksplice-cli-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.jsonl");
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    let out = ksplice()
        .args(["report", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let expected = format!(
        "ksplice: {}:1: nesting deeper than 64 levels",
        path.display()
    );
    assert!(stderr.starts_with(&expected), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_spans_survives_a_span_id_loop() {
    // Span 5's child 7 has a child that reuses id 5: following parent ids
    // alone loops forever (this overflowed the stack and aborted).
    let dir = std::env::temp_dir().join(format!("ksplice-cli-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("loop.jsonl");
    let line = |seq: u64, id: u64, parent: u64| {
        format!(
            "{{\"v\":2,\"seq\":{seq},\"ts_steps\":{seq},\"stage\":\"apply\",\"severity\":\"info\",\
             \"event\":\"span.begin\",\"fields\":{{\"span\":\"s{id}\",\"span_id\":{id},\"parent_id\":{parent}}}}}\n"
        )
    };
    let spans = |trace: String| {
        std::fs::write(&path, trace).unwrap();
        let out = ksplice()
            .args(["report", path.to_str().unwrap(), "--spans"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let stdout = spans(line(1, 5, 0) + &line(2, 7, 5) + &line(3, 5, 7));
    assert!(stdout.contains("spans:\ns5 [apply] 1..3"), "{stdout}");
    assert_eq!(stdout.matches(" [apply] ").count(), 3, "{stdout}");
    // A span that is its own parent: no root reaches it (it printed
    // `no spans recorded`).
    let stdout = spans(line(1, 5, 5));
    assert!(
        stdout.ends_with("spans:\ns5 [apply] 1..1 (+0 steps)\n"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_spans_shows_a_span_whose_parent_is_not_in_the_file() {
    // One complete span cut from a longer run: its parent, span 3, is
    // not in the file, so it is a root (it was dropped, and the report
    // said no spans were recorded).
    let dir = std::env::temp_dir().join(format!("ksplice-cli-orphan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("orphan.jsonl");
    let line = |seq: u64, event: &str| {
        format!(
            "{{\"v\":2,\"seq\":{seq},\"ts_steps\":{},\"stage\":\"apply\",\"severity\":\"info\",\
             \"event\":\"{event}\",\"fields\":{{\"span\":\"s4\",\"span_id\":4,\"parent_id\":3}}}}\n",
            seq * 10
        )
    };
    std::fs::write(&path, line(1, "span.begin") + &line(2, "span.end")).unwrap();
    let out = ksplice()
        .args(["report", path.to_str().unwrap(), "--spans"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.ends_with("spans:\ns4 [apply] 10..20 (+10 steps)\n"),
        "{stdout}"
    );
    assert!(!stdout.contains("no spans recorded"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn create_refuses_a_patch_that_nests_too_deep() {
    // 10,000 nested blocks or 100,000 parentheses: the compiler refuses
    // the patched unit past its nesting bound instead of overflowing the
    // stack (which aborted `create` with exit 134).
    let dir = std::env::temp_dir().join(format!("ksplice-cli-nest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tree_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../eval/tree");
    let blocks = format!("    {}{}", "{".repeat(10_000), "}".repeat(10_000));
    let parens = format!(
        "    slot = {}slot{};",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    for (name, added) in [("blocks", blocks), ("parens", parens)] {
        let patch_path = dir.join(format!("{name}.patch"));
        std::fs::write(
            &patch_path,
            format!(
                "--- a/drivers/dst_ca.kc\n+++ b/drivers/dst_ca.kc\n@@ -7,3 +7,4 @@\n \
                 int ca_get_slot_info(int slot) {{\n     debug = debug + 1;\n+{added}\n     \
                 if (slot > 7) {{\n"
            ),
        )
        .unwrap();
        let patch = patch_path.to_str().unwrap();
        let args = [
            "--quiet", "create", "--tree", tree_dir, "--patch", patch, "--id", "t",
        ];
        assert_refused(&args, "drivers/dst_ca.kc:8: nesting deeper than 128 levels");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `ksplice` with `args` and requires exit 1 with a `ksplice:`
/// error line on stderr (a runtime error, not a panic's 101).
fn assert_refused(args: &[&str], message: &str) {
    let out = ksplice().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("ksplice: ") && stderr.contains(message),
        "{args:?}: {stderr}"
    );
}

#[test]
fn malformed_retry_policies_are_refused() {
    for spec in ["fixed:3:100:", "fixed:3:100:é", "exp:3:1:2"] {
        assert_refused(
            &["demo", "--retry-policy", spec],
            "expected fixed:ATTEMPTS:DELAY",
        );
    }
    // Zero attempts would still make one.
    assert_refused(
        &["demo", "--retry-policy", "fixed:0:5"],
        "--retry-policy: bad attempts `0`",
    );
}

#[test]
fn corrupt_text_outside_the_arena_is_refused() {
    assert_refused(
        &["demo", "--fault", "corrupt-text:0xffffffffffffffff"],
        "corrupt-text at 0xffffffffffffffff",
    );
}

#[test]
fn repeated_fault_counts_saturate_instead_of_wrapping() {
    // The two counts sum to 2^32 windows: wrapped to zero, the update
    // would commit at once; saturated, every attempt finds it busy.
    assert_refused(
        &[
            "demo",
            "--fault",
            "stack-busy:4294967295",
            "--fault",
            "stack-busy:1",
        ],
        "update abandoned",
    );
}

#[test]
fn usage_names_every_fault_site() {
    let out = ksplice().output().unwrap();
    let usage = String::from_utf8_lossy(&out.stderr);
    for (site, _, _) in ksplice_kernel::SITES {
        assert!(usage.contains(&site.usage()), "{usage}");
    }
}

#[test]
fn a_fleet_of_zero_nodes_is_refused() {
    assert_refused(&["fleet", "--nodes", "0"], "at least one node");
}

#[test]
fn flag_errors_are_refused_before_any_work() {
    // Each case names the flags the message must name. `--help` is not a
    // flag of any command, so every command refuses it like a typo.
    let commands = [
        "create", "inspect", "demo", "eval", "profile", "fuzz", "rebase", "fleet", "status",
        "list", "report",
    ];
    let mut cases: Vec<(Vec<&str>, Vec<&str>)> = commands
        .iter()
        .map(|&c| (vec![c, "--help"], vec!["--help"]))
        .collect();
    cases.extend([
        (vec!["fuzz", "--seed"], vec!["--seed"]),
        (vec!["fuzz", "--seed", "1", "--seed", "2"], vec!["--seed"]),
        (vec!["rebase", "--out", "--json"], vec!["--out"]),
        (vec!["profile", "--interval", "0"], vec!["--interval"]),
        (vec!["demo", "--trace"], vec!["--trace"]),
        (vec!["list", "extra"], vec!["extra"]),
        // A rollout shape the orchestrator would silently substitute.
        (vec!["fleet", "--canary", "0"], vec!["--canary"]),
        (vec!["fleet", "--growth", "0"], vec!["--growth"]),
        (vec!["fleet", "--growth", "1"], vec!["--growth"]),
        (vec!["fleet", "--versions", "0"], vec!["--versions"]),
        (vec!["fleet", "--versions", "4"], vec!["--versions"]),
        (vec!["fleet", "--nodes", "0"], vec!["--nodes"]),
    ]);
    for command in ["eval", "fuzz", "rebase", "fleet"] {
        cases.push((vec![command, "--jobs", "0"], vec!["--jobs"]));
    }
    for command in ["demo", "eval", "status", "fuzz", "fleet"] {
        cases.push((vec![command, "--cpus", "0"], vec!["--cpus"]));
    }
    // A replay ignores the campaign's flags, so it refuses them.
    for (flag, value) in [
        ("--seed", "1"),
        ("--mutants", "5"),
        ("--max-mutations", "2"),
        ("--jobs", "2"),
        ("--emit", "out"),
    ] {
        let args = vec!["fuzz", "--replay", "cases", flag, value];
        cases.push((args, vec!["--replay", flag]));
    }
    // Probes run only in watch rounds, so zero rounds cannot check one.
    for command in ["demo", "status"] {
        let args = vec![
            command,
            "--watch-rounds",
            "0",
            "--probe",
            "sys_getuid()=1000",
        ];
        cases.push((args, vec!["--watch-rounds", "--probe"]));
    }
    let dir = std::env::temp_dir().join(format!("ksplice-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, flags) in &cases {
        let out = ksplice().args(args).current_dir(&dir).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("ksplice: ") && flags.iter().all(|f| stderr.contains(f)),
            "{args:?}: {stderr}"
        );
        // Nothing was booted, built or run: no progress note, no report.
        assert!(out.stdout.is_empty(), "{args:?} did some work");
    }
    // No case wrote a file: `rebase --out --json` took no `--json` path.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_fault_specs_are_refused() {
    // A kernel call takes at most six arguments.
    assert_refused(
        &[
            "demo",
            "--watch-rounds",
            "1",
            "--probe",
            "sys_getuid(1,2,3,4,5,6,7)=0",
        ],
        "at most 6 arguments",
    );
    // A count past u32::MAX is refused, not wrapped to zero; so is a
    // step jitter, whose budget arithmetic it would overflow.
    for (spec, what) in [
        ("stack-busy:4294967296", "windows"),
        ("step-jitter:4294967296", "steps"),
        ("step-jitter:18446744073709551615", "steps"),
    ] {
        assert_refused(
            &["demo", "--watch-rounds", "1", "--fault", spec],
            &format!("--fault: {what} out of range"),
        );
    }
    // A reversed delay range is refused, not rewritten to `5..5`.
    assert_refused(
        &["fleet", "--nodes", "2", "--faults", "delay:5..1"],
        "bad delay",
    );
}
