//! Persistence benchmark: warm incremental re-analysis from the on-disk
//! store vs. a cold run (ISSUE 7).
//!
//! The scenario is the `pata serve` / CI loop: analyze the linux corpus
//! once (cold, store written), then append one new function and re-analyze.
//! The warm run must
//!
//! 1. re-explore only the roots reachable from the changed function
//!    (here: exactly the one new root — every pre-existing root replays
//!    from the store), and
//! 2. cut wall-clock by at least 5x against the cold run.
//!
//! The gate is on the median over rounds of the cold-to-warm time ratio.
//! Each round times one cold run and then one warm run, so a slow phase
//! of the host hits both sides of the ratio it slows.
//!
//! Independently of timing, the cold report, the warm-from-disk report,
//! and the daemon-served report (through the NDJSON serve loop) must be
//! byte-identical at every tested thread count.
//!
//! It also records the store layer on its own: `store_load_ms`, the
//! median time `AnalysisSession::open` takes to read the store in the
//! warm rounds, and `store_bytes`, the size of the store it reads. And it
//! records `restart_ms`, the median time a restart over an unchanged tree
//! takes (open the store the warm run saved, then analyze the same
//! sources), which the session serves from the store's records without
//! compiling; each round times one after its warm run.
//!
//! `--smoke` runs a reduced configuration for CI; `--scale F` sizes the
//! corpus (default 1.0).

use pata_bench::harness::time_once;
use pata_bench::results;
use pata_core::{AnalysisConfig, AnalysisRequest, AnalysisSession, SessionOutcome};
use pata_corpus::{Corpus, OsProfile};
use std::path::{Path, PathBuf};

fn config(threads: usize) -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(threads)
        .build()
        .expect("valid bench config")
}

/// A deep-path interface function: `branches` sequential condition
/// diamonds produce `2^branches` constraint-distinct paths, each walked by
/// the DFS, so exploration cost dwarfs parse cost, as it does on real OS
/// code.
/// The function is bug-free: replaying it from the store costs nothing.
fn heavy_file(i: usize, branches: usize) -> String {
    let mut text = format!("int heavy_probe_{i}(int *p, int n) {{\n");
    text.push_str("    int acc = 0;\n");
    text.push_str("    int *buf = malloc(n);\n");
    text.push_str("    if (buf == NULL) { return -1; }\n");
    for b in 0..branches {
        text.push_str(&format!(
            "    if (n > {b}) {{ acc = acc + {b}; }} else {{ acc = acc - {b}; }}\n"
        ));
    }
    text.push_str("    free(buf);\n    return acc;\n}\n");
    text
}

fn request(corpus: &Corpus, heavy: &[(String, String)], edit: Option<&str>) -> AnalysisRequest {
    let mut r = AnalysisRequest::new();
    for f in &corpus.files {
        r = r.file(f.path.as_str(), f.text.as_str());
    }
    for (name, text) in heavy {
        r = r.file(name.as_str(), text.as_str());
    }
    if let Some(extra) = edit {
        r = r.file("bench_edit.c", extra);
    }
    r
}

fn run(store: &Path, threads: usize, req: &AnalysisRequest) -> SessionOutcome {
    AnalysisSession::open(config(threads), store)
        .analyze(req)
        .expect("corpus analyzes")
}

/// [`run`], with the seconds `AnalysisSession::open` took to load the
/// store.
fn run_timed_open(store: &Path, req: &AnalysisRequest) -> (SessionOutcome, f64) {
    let (mut session, load_s) = time_once(|| AnalysisSession::open(config(1), store));
    let out = session.analyze(req).expect("corpus analyzes");
    (out, load_s)
}

fn fresh_store(dir: &Path, tag: &str) -> PathBuf {
    let path = dir.join(format!("store-{tag}.json"));
    let _ = std::fs::remove_file(&path);
    path
}

/// The single-function edit: one new interface function in its own file,
/// so every previously analyzed function keeps its fingerprint.
const EDIT: &str = "
int bench_edit_probe(int *p) {
    if (p == NULL) { }
    return *p;
}
";

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale: f64 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 0.2 } else { 1.0 });
    let rounds = if smoke { 7 } else { 9 };
    println!(
        "Persistence benchmark (linux profile, scale {scale}{})",
        if smoke { ", smoke mode" } else { "" }
    );

    let dir = std::env::temp_dir().join(format!("pata-bench-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(scale));
    // Smoke mode uses fewer but deeper roots: exploration must still dwarf
    // parse cost (the scenario above) now that copy-on-write forking has
    // made cold exploration itself cheaper.
    let heavy: Vec<(String, String)> = (0..if smoke { 12 } else { 40 })
        .map(|i| {
            let branches = if smoke { 12 } else { 11 };
            (format!("drivers/heavy_{i}.c"), heavy_file(i, branches))
        })
        .collect();
    let base_req = request(&corpus, &heavy, None);
    let edited_req = request(&corpus, &heavy, Some(EDIT));

    // Timed region: cold full analysis vs. warm incremental re-analysis
    // after the one-function edit, interleaved round by round, fresh store
    // per cold round so nothing replays.
    let (mut colds, mut warms, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let mut restarts = Vec::new();
    let mut store_bytes = 0;
    let mut cold_out = None;
    let mut warm_out = None;
    for round in 0..rounds {
        let store = fresh_store(&dir, &format!("timed-{round}"));
        let (out, t) = time_once(|| run(&store, 1, &base_req));
        assert!(!out.incremental.warm_start, "fresh store must run cold");
        colds.push(t);
        cold_out = Some(out);

        store_bytes = std::fs::metadata(&store).expect("the cold run saved").len();
        let ((out, load_s), t) = time_once(|| run_timed_open(&store, &edited_req));
        loads.push(load_s);
        assert!(out.incremental.warm_start, "second run must load the store");
        assert_eq!(
            out.incremental.changed_functions, 1,
            "the edit touches exactly one function"
        );
        assert_eq!(
            out.incremental.dirty_roots, 1,
            "only the edited root may be re-explored"
        );
        assert_eq!(
            out.incremental.clean_roots,
            out.incremental.roots - 1,
            "every pre-existing root replays from the store"
        );
        warms.push(t);
        warm_out = Some(out);

        let (out, t) = time_once(|| run(&store, 1, &edited_req));
        assert_eq!(
            (
                out.incremental.dirty_roots,
                out.incremental.parsed_files,
                out.incremental.lowered_functions
            ),
            (0, 0, 0),
            "a restart over an unchanged tree compiles and explores nothing"
        );
        restarts.push(t);
    }
    let ratios: Vec<f64> = colds
        .iter()
        .zip(&warms)
        .map(|(cold, warm)| cold / warm.max(1e-9))
        .collect();
    let (cold_s, warm_s, speedup) = (median(colds), median(warms), median(ratios));
    let load_ms = median(loads) * 1e3;
    let restart_ms = median(restarts) * 1e3;
    let cold_out = cold_out.unwrap();
    let warm_out = warm_out.unwrap();

    // The incremental report must equal a from-scratch analysis of the
    // edited sources.
    let scratch = run(&fresh_store(&dir, "scratch"), 1, &edited_req);
    assert_eq!(
        warm_out.report.to_json(),
        scratch.report.to_json(),
        "incremental report must match from-scratch analysis"
    );

    // Byte identity at every thread count: cold, warm-from-disk, and
    // daemon-served (the NDJSON loop `pata serve` runs) must all produce
    // the same report document.
    let expected = cold_out.report.to_json();
    for threads in [1, 2, 4] {
        let store = fresh_store(&dir, &format!("identity-{threads}"));
        let cold = run(&store, threads, &base_req);
        assert_eq!(cold.report.to_json(), expected, "cold, {threads} threads");
        let warm = run(&store, threads, &base_req);
        assert_eq!(warm.report.to_json(), expected, "warm, {threads} threads");
        assert_eq!(warm.incremental.dirty_roots, 0);

        let mut session = AnalysisSession::open(config(threads), &store);
        let files = corpus
            .files
            .iter()
            .map(|f| (f.path.as_str(), f.text.as_str()))
            .chain(heavy.iter().map(|(n, t)| (n.as_str(), t.as_str())))
            .map(|(name, text)| {
                format!(
                    "{{\"name\": {}, \"text\": {}}}",
                    pata_core::json::quote(name),
                    pata_core::json::quote(text)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let input = format!("{{\"id\": 1, \"op\": \"analyze\", \"files\": [{files}]}}\n");
        let mut out = Vec::new();
        pata_core::serve_loop(&mut session, input.as_bytes(), &mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        let start = line.find("\"report\": ").expect("analyze response") + "\"report\": ".len();
        assert!(
            line[start..].starts_with(&expected),
            "served, {threads} threads"
        );
    }

    println!();
    println!(
        "{:<28} {:>10} {:>8} {:>8}",
        "configuration (median)", "seconds", "dirty", "clean"
    );
    println!("{}", "-".repeat(58));
    println!(
        "{:<28} {:>10.4} {:>8} {:>8}",
        "cold (fresh store)",
        cold_s,
        cold_out.incremental.dirty_roots,
        cold_out.incremental.clean_roots
    );
    println!(
        "{:<28} {:>10.4} {:>8} {:>8}",
        "warm (one-function edit)",
        warm_s,
        warm_out.incremental.dirty_roots,
        warm_out.incremental.clean_roots
    );
    println!();
    println!("reports: byte-identical cold/warm/served at threads 1, 2, 4");
    println!("warm speedup: {speedup:.1}x, median of {rounds} rounds (target ≥5x)");
    println!("store load: {load_ms:.3} ms median over the warm rounds, {store_bytes} bytes");
    println!("restart over the unchanged tree: {restart_ms:.3} ms median (open + analyze)");

    let section = results::object(&[
        ("scale", format!("{scale}")),
        ("cold_seconds", format!("{cold_s:.6}")),
        ("warm_seconds", format!("{warm_s:.6}")),
        ("warm_speedup", format!("{speedup:.3}")),
        (
            "dirty_roots",
            format!("{}", warm_out.incremental.dirty_roots),
        ),
        (
            "clean_roots",
            format!("{}", warm_out.incremental.clean_roots),
        ),
        ("store_load_ms", format!("{load_ms:.3}")),
        ("store_bytes", format!("{store_bytes}")),
        ("restart_ms", format!("{restart_ms:.3}")),
    ]);
    results::write_section("persistence", &section).expect("write results/BENCH_stage1.json");
    println!(
        "results: persistence section written to {}",
        results::bench_stage1_path().display()
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!();
    if speedup >= 5.0 {
        println!(
            "PASS: warm incremental re-analysis is {speedup:.1}x faster than cold (target ≥5x)"
        );
    } else {
        println!(
            "FAIL: warm incremental re-analysis is {speedup:.1}x faster than cold (target ≥5x)"
        );
        std::process::exit(1);
    }
}
