//! Inputs whose paths are very long: thousands of sequential branches, a
//! long `goto` chain, a 100,000-statement root. Stage 1 walks a path on an
//! explicit work stack, so each of these ends in a report (truncated by
//! the exploration budget where the path count explodes), on the main
//! thread, on worker threads, through `pata serve`, and on a thread with a
//! small stack.

use pata::core::{AnalysisConfig, AnalysisRequest, AnalysisSession, Report};
use std::io::Write;
use std::process::{Command, Stdio};

fn pata() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pata"))
}

/// A root `name` with `n` sequential `if (x > i) g = i;` statements, so
/// its first path passes `n` two-way branches.
fn if_chain(name: &str, n: usize) -> String {
    let mut src = format!("int {name}(int x) {{\n");
    for i in 1..=n {
        src.push_str(&format!("    if (x > {i}) g = {i};\n"));
    }
    src + "    return g;\n}\n"
}

/// A root whose one path jumps through `n` labels in a row.
fn goto_chain(n: usize) -> String {
    let mut src = String::from("int g;\nint goto_root(int x) {\n");
    for i in 1..=n {
        src.push_str(&format!("    goto L{i}; L{i}:\n"));
    }
    src + "    return x;\n}\n"
}

/// Runs `pata analyze <src> --json <extra>` on a file in a fresh temp
/// directory and returns the report document it printed.
fn analyze_cli(test: &str, src: &str, extra: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("pata_deep_{test}"));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("deep.c");
    std::fs::write(&file, src).unwrap();
    let out = pata()
        .args(["analyze", file.to_str().unwrap(), "--json"])
        .args(extra)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{test}: exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("{\"schema_version\""),
        "{test}: {stdout}"
    );
    stdout
}

/// One root runs on the calling thread: the 3,000-branch path used to
/// overflow the 8 MiB main-thread stack.
#[test]
fn three_thousand_branches_on_the_main_thread() {
    let src = format!("int g;\n{}", if_chain("deep_root", 3_000));
    let report = analyze_cli("main", &src, &[]);
    assert!(
        report.contains(r#""budget_notes": [{"root": "deep_root", "reason": "max_paths""#),
        "{report}"
    );
}

/// Two roots run on two spawned workers with the default thread stack.
#[test]
fn two_thousand_branch_roots_on_two_workers() {
    let src = format!(
        "int g;\n{}{}",
        if_chain("deep_a", 1_000),
        if_chain("deep_b", 1_000)
    );
    let report = analyze_cli("workers", &src, &["--threads", "2"]);
    for root in ["deep_a", "deep_b"] {
        assert!(report.contains(&format!(r#""root": "{root}""#)), "{report}");
    }
}

#[test]
fn twenty_thousand_gotos() {
    let report = analyze_cli("goto", &goto_chain(20_000), &[]);
    assert_eq!(report.trim_end(), r#"{"schema_version": 1, "reports": []}"#);
}

/// The daemon answers the deep frame and stays up for the next one.
#[test]
fn serve_stdio_answers_a_deep_frame_then_ping() {
    let src = format!("int g; {}", if_chain("deep_root", 3_000)).replace('\n', " ");
    let frames = format!(
        "{{\"id\": 1, \"op\": \"analyze\", \"files\": [{{\"name\": \"deep.c\", \"text\": \"{src}\"}}]}}\n\
         {{\"id\": 2, \"op\": \"ping\"}}\n"
    );
    let mut child = pata()
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(frames.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].contains(r#""id": 1, "ok": true, "op": "analyze""#),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains(r#""root": "deep_root""#), "{}", lines[0]);
    assert!(
        lines[1].contains(r#""id": 2, "ok": true, "op": "ping""#),
        "{}",
        lines[1]
    );
}

/// Analyzes `src` on a thread with a 256 KiB stack (an unoptimized build
/// uses far more stack per call than a release one) and returns the
/// report document.
fn analyze_on_small_stack(src: String, config: AnalysisConfig) -> String {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let request = AnalysisRequest::new().file("deep.c", src);
            let outcome = AnalysisSession::new(config).analyze(&request).unwrap();
            outcome.report.to_json()
        })
        .unwrap()
        .join()
        .unwrap()
}

/// A 100,000-statement root: the first path is cut by the instruction
/// budget long before its end, and nothing recurses along it.
#[test]
fn hundred_thousand_statements_on_a_256_kib_stack() {
    let src = format!("int g;\n{}", if_chain("huge_root", 100_000));
    let report =
        Report::from_json(&analyze_on_small_stack(src, AnalysisConfig::default())).unwrap();
    assert!(report.reports.is_empty());
    let notes: Vec<_> = report
        .budget_notes
        .iter()
        .map(|n| (n.root.as_str(), n.reason.as_str()))
        .collect();
    assert_eq!(notes, [("huge_root", "max_insts")]);
}

/// Clone-based forking keeps one deep copy per arm in flight, so its
/// memory grows with the square of the path depth (~290 MB at 1,000
/// branches); 500 branches keep it small while still being far deeper
/// than a recursive walk fits in 256 KiB.
#[test]
fn clone_forks_match_cow_forks_on_a_deep_root() {
    let src = format!("int *p;\nint g;\n{}", if_chain("deep_root", 500))
        .replace("return g;", "if (x > 7) p = NULL;\n    return *p + g;");
    let run = |cow| {
        let config = AnalysisConfig::builder()
            .threads(1)
            .cow_state(cow)
            .validation_cache(cow)
            .build()
            .unwrap();
        analyze_on_small_stack(src.clone(), config)
    };
    let cow = run(true);
    assert!(cow.contains("null-pointer-dereference"), "{cow}");
    assert_eq!(run(false), cow);
}
