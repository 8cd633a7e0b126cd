//! Smoke tests for the `pata` command-line interface.

use std::process::Command;

fn pata() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pata"))
}

fn write_demo(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("demo.c");
    std::fs::write(
        &path,
        r#"
        struct dev { int *res; };
        static int probe(struct dev *d) {
            if (d->res == NULL) { log_warn("x"); }
            return *d->res;
        }
        static struct drv d = { .probe = probe };
        "#,
    )
    .unwrap();
    path
}

#[test]
fn analyze_reports_bug() {
    let dir = std::env::temp_dir().join("pata_cli_analyze");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    let out = pata()
        .args(["analyze", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("null-pointer-dereference"), "{stdout}");
    assert!(stdout.contains("probe"));
}

#[test]
fn analyze_json_is_versioned_report() {
    let dir = std::env::temp_dir().join("pata_cli_json");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    let out = pata()
        .args(["analyze", file.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The output is the versioned wire format: parse it back through the
    // library, not by string inspection.
    let report = pata::core::Report::from_json(stdout.trim()).expect("valid report document");
    assert_eq!(report.schema_version, pata::core::REPORT_SCHEMA_VERSION);
    assert_eq!(report.reports.len(), 1);
    assert_eq!(report.reports[0].kind.as_str(), "null-pointer-dereference");
    assert_eq!(report.reports[0].function, "probe");
}

#[test]
fn analyze_stats_json_matches_telemetry_schema() {
    let dir = std::env::temp_dir().join("pata_cli_stats_json");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    let stats_path = dir.join("stats.json");
    let out = pata()
        .args([
            "analyze",
            file.to_str().unwrap(),
            "--stats-json",
            stats_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&stats_path).unwrap();
    let doc = pata::core::json::JsonValue::parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(u64::from(pata::core::telemetry::TELEMETRY_SCHEMA_VERSION))
    );
    let metrics = doc
        .get("metrics")
        .and_then(|v| v.as_array())
        .expect("metrics array");
    let names: Vec<&str> = metrics
        .iter()
        .filter_map(|m| m.get("name").and_then(|n| n.as_str()))
        .collect();
    for expected in [
        "collect.roots",
        "path.paths",
        "stage.explore",
        "validate.solve",
    ] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
}

#[test]
fn analyze_profile_prints_stage_breakdown() {
    let dir = std::env::temp_dir().join("pata_cli_profile");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    let out = pata()
        .args(["analyze", file.to_str().unwrap(), "--profile"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stage breakdown"), "{stderr}");
    assert!(stderr.contains("slowest roots"), "{stderr}");
}

#[test]
fn analyze_checker_selection() {
    let dir = std::env::temp_dir().join("pata_cli_checkers");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    // Only the ML checker: the NPD must not be reported.
    let out = pata()
        .args(["analyze", file.to_str().unwrap(), "--checkers", "ml"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no bugs found"), "{stdout}");
}

#[test]
fn bad_input_fails_cleanly() {
    let out = pata()
        .args(["analyze", "/nonexistent/nope.c"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn unknown_command_usage() {
    let out = pata().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn fsm_lists_all_checkers() {
    let out = pata().args(["fsm"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for abbrev in ["NPD", "UVA", "ML", "DL", "AIU", "DBZ", "UAF"] {
        assert!(stdout.contains(abbrev), "missing {abbrev}: {stdout}");
    }
}

#[test]
fn corpus_writes_files_and_manifest() {
    let dir = std::env::temp_dir().join("pata_cli_corpus");
    let _ = std::fs::remove_dir_all(&dir);
    let out = pata()
        .args([
            "corpus",
            "tencent",
            "--scale",
            "0.15",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(dir.join("manifest.json").exists());
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"bugs\""));
}

#[test]
fn ir_dump_contains_functions() {
    let dir = std::env::temp_dir().join("pata_cli_ir");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    let out = pata()
        .args(["ir", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fn probe"));
    assert!(stdout.contains("gep"));
}

#[test]
fn unknown_flag_is_rejected_with_usage() {
    let dir = std::env::temp_dir().join("pata_cli_badflag");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    for args in [
        vec!["analyze", file.to_str().unwrap(), "--bogus"],
        vec!["analyze", file.to_str().unwrap(), "--socket", "x"],
        vec!["serve", "--stdio", "--json"],
        vec!["corpus", "tencent", "--threads", "2"],
        vec!["client", "--socket", "x", "--store", "y"],
    ] {
        let out = pata().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_enumerates_every_knob() {
    let out = pata().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for knob in [
        "--checkers",
        "--na",
        "--no-validate",
        "--no-validation-cache",
        "--resolve-fptrs",
        "--loops",
        "--threads",
        "--no-exploration-cache",
        "--no-callee-memo",
        "--store",
        "--socket",
        "--stdio",
        "--json",
        "--stats",
        "--stats-json",
        "--profile",
        "--scale",
        "--seed",
        "--out",
        "--root-deadline-ms",
        "--max-live-bytes",
        "--fault-plan",
        "--raw",
        "--max-request-bytes",
        "--request-timeout-ms",
    ] {
        assert!(stdout.contains(knob), "help missing {knob}");
    }
}

#[test]
fn misspelled_flag_suggests_nearest_match() {
    let dir = std::env::temp_dir().join("pata_cli_typo");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    for (typo, suggestion) in [
        ("--max-live-btyes", "--max-live-bytes"),
        ("--theads", "--threads"),
        ("--fault-pan", "--fault-plan"),
    ] {
        let out = pata()
            .args(["analyze", file.to_str().unwrap(), typo])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{typo} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{typo}`")),
            "{stderr}"
        );
        assert!(
            stderr.contains(&format!("did you mean `{suggestion}`?")),
            "{typo}: {stderr}"
        );
    }
}

#[test]
fn bad_flag_value_names_the_flag() {
    let dir = std::env::temp_dir().join("pata_cli_badvalue");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    for (flag, value, expect) in [
        (
            "--root-deadline-ms",
            "abc",
            "bad --root-deadline-ms value `abc`",
        ),
        ("--max-live-bytes", "-1", "bad --max-live-bytes value `-1`"),
        ("--threads", "lots", "bad --threads value `lots`"),
        ("--fault-plan", "nosuchsite@1", "bad --fault-plan"),
    ] {
        let out = pata()
            .args(["analyze", file.to_str().unwrap(), flag, value])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} {value} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{flag} {value}: {stderr}");
    }
}

#[test]
fn missing_flag_argument_is_an_error() {
    let dir = std::env::temp_dir().join("pata_cli_missing");
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    for flag in ["--fault-plan", "--root-deadline-ms", "--store"] {
        let out = pata()
            .args(["analyze", file.to_str().unwrap(), flag])
            .output()
            .unwrap();
        assert!(!out.status.success(), "trailing {flag} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} expects a value")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn analyze_store_makes_second_run_warm() {
    let dir = std::env::temp_dir().join("pata_cli_store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    let store = dir.join("store.json");
    let run = || {
        pata()
            .args([
                "analyze",
                file.to_str().unwrap(),
                "--store",
                store.to_str().unwrap(),
                "--json",
                "--stats",
            ])
            .output()
            .unwrap()
    };
    let cold = run();
    assert!(cold.status.success(), "{cold:?}");
    assert!(String::from_utf8_lossy(&cold.stderr).contains("warm start: false"));
    let warm = run();
    assert!(warm.status.success(), "{warm:?}");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("warm start: true"), "{stderr}");
    assert!(stderr.contains("roots dirty/clean: 0/1"), "{stderr}");
    assert_eq!(cold.stdout, warm.stdout, "cold and warm reports identical");
}

#[test]
fn serve_stdio_answers_and_shuts_down() {
    use std::io::Write as _;
    let mut child = pata()
        .args(["serve", "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let src = "int probe(int *p) { if (p == NULL) { } return *p; }";
    let request = format!(
        "{{\"id\": 1, \"op\": \"analyze\", \"files\": [{{\"name\": \"t.c\", \"text\": {}}}]}}\n{{\"id\": 2, \"op\": \"shutdown\"}}\n",
        pata::core::json::quote(src)
    );
    child
        .stdin
        .take()
        .unwrap()
        .write_all(request.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    let first = pata::core::json::JsonValue::parse(lines[0]).unwrap();
    assert_eq!(first.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert!(lines[0].contains("null-pointer-dereference"), "{stdout}");
    assert!(lines[1].contains("\"op\": \"shutdown\""));
}

#[cfg(unix)]
#[test]
fn serve_socket_shares_warm_cache_across_clients() {
    let dir = std::env::temp_dir().join("pata_cli_daemon");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = write_demo(&dir);
    let socket = dir.join("pata.sock");
    let mut daemon = pata()
        .args(["serve", "--socket", socket.to_str().unwrap()])
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let client = |extra: &[&str]| {
        let mut args = vec!["client", "--socket", socket.to_str().unwrap()];
        args.extend_from_slice(extra);
        pata().args(&args).output().unwrap()
    };
    let first = client(&[file.to_str().unwrap()]);
    assert!(first.status.success(), "{first:?}");
    let second = client(&[file.to_str().unwrap()]);
    assert!(second.status.success(), "{second:?}");
    let doc =
        pata::core::json::JsonValue::parse(String::from_utf8_lossy(&second.stdout).trim()).unwrap();
    let serve = doc.get("serve").expect("serve block");
    assert_eq!(
        serve.get("dirty_roots").and_then(|v| v.as_u64()),
        Some(0),
        "second client fully served from the shared warm cache"
    );
    // Identical embedded report for both clients.
    let report_of = |out: &std::process::Output| {
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let start = text.find("\"report\": ").unwrap();
        let end = text.find(", \"serve\": ").unwrap();
        text[start..end].to_string()
    };
    assert_eq!(report_of(&first), report_of(&second));
    let bye = client(&["--op", "shutdown"]);
    assert!(bye.status.success(), "{bye:?}");
    assert!(daemon.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
