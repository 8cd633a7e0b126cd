//! Stage-1 exploration benchmark: measures the effect of the exploration
//! reuse layer (state-fingerprint subsumption + memoized callee inlining)
//! on the linux corpus profile.
//!
//! Two configurations explore the *same* module:
//!
//! 1. `caches off` — plain DFS, every instruction executed live;
//! 2. `caches on`  — subsumption table + callee-summary memo (defaults).
//!
//! Both must produce bit-identical bug reports — checked here via the full
//! versioned report document, not just timed. The report must also be
//! bit-identical with caches on at threads 1, 2 and 4.
//!
//! The target (ISSUE 3): caches cut live DFS steps
//! (`insts_processed - insts_replayed`) by at least 30%, with the wall-clock
//! effect reported alongside.
//!
//! A second comparison (ISSUE 8) isolates the copy-on-write path-state
//! representation: with every cache off, branch forking through the undo
//! journal (`cow_state`, the default) must deliver at least 2x the live-step
//! throughput of literal clone-based forking (`--no-cow-state`), and both
//! must produce bit-identical reports at thread counts 1, 2 and 4.
//!
//! Headline numbers land in `results/BENCH_stage1.json` (section
//! `exploration`): live steps/sec, fork count, peak live-state bytes.
//!
//! `--smoke` runs a reduced single-round configuration for CI; `--scale F`
//! sizes the corpus (default 1.0).

use pata_bench::harness::time_once;
use pata_bench::results;
use pata_core::{AnalysisConfig, AnalysisSession, AnalysisStats, PossibleBug, Report};
use pata_corpus::{Corpus, OsProfile};

fn config(caches: bool, threads: usize, cow: bool) -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(threads)
        .exploration_cache(caches)
        .callee_memo(caches)
        .cow_state(cow)
        .build()
        .expect("valid bench config")
}

/// Stage-1 only (the timed region): path exploration without validation.
fn explore(module: &pata_ir::Module, caches: bool, cow: bool) -> (Vec<PossibleBug>, AnalysisStats) {
    let pata = AnalysisSession::new(config(caches, 1, cow));
    let (_, candidates, stats) = pata.collect_candidates(module.clone());
    (candidates, stats)
}

/// Full pipeline: the versioned report document, for bit-identity checks.
fn full_report(module: &pata_ir::Module, caches: bool, threads: usize, cow: bool) -> String {
    let outcome = AnalysisSession::new(config(caches, threads, cow)).analyze_module(module.clone());
    Report::new(outcome.reports)
        .with_budget_notes(outcome.budget_notes)
        .to_json()
}

/// One cache-free stage-1 run with telemetry on, for the fork counters.
fn fork_telemetry(module: &pata_ir::Module) -> (u64, u64, i64) {
    let session = AnalysisSession::new(
        AnalysisConfig::builder()
            .threads(1)
            .exploration_cache(false)
            .callee_memo(false)
            .telemetry(true)
            .build()
            .expect("valid bench config"),
    );
    let _ = session.collect_candidates(module.clone());
    let snap = session.telemetry().snapshot();
    (
        snap.counter_sum("driver.explore.fork.forks"),
        snap.counter_sum("driver.explore.fork.bytes_copied"),
        snap.gauge("driver.explore.fork.live_bytes.max")
            .unwrap_or(0),
    )
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
    let rounds = if smoke { 1 } else { 5 };
    println!(
        "Stage-1 exploration benchmark (linux profile, scale {scale}{})",
        if smoke { ", smoke mode" } else { "" }
    );

    let corpus = Corpus::generate(&OsProfile::linux().with_scale(scale));
    let module = corpus.compile().expect("corpus compiles");

    // Timed: best of `rounds` for each configuration.
    let mut off_s = f64::INFINITY;
    let mut on_s = f64::INFINITY;
    let mut clone_s = f64::INFINITY;
    let (base_candidates, base_stats) = explore(&module, false, true);
    let mut on_stats = AnalysisStats::default();
    for _ in 0..rounds {
        let ((candidates, stats), t) = time_once(|| explore(&module, false, true));
        assert_eq!(
            candidates.len(),
            base_candidates.len(),
            "caches-off runs must be deterministic"
        );
        assert_eq!(stats.insts_replayed, 0, "caches off must never replay");
        off_s = off_s.min(t);

        let ((candidates, stats), t) = time_once(|| explore(&module, true, true));
        assert_eq!(
            format!("{candidates:?}"),
            format!("{base_candidates:?}"),
            "caches must not change the candidate stream"
        );
        assert_eq!(
            stats.paths_explored, base_stats.paths_explored,
            "replay must account for every path the live run would take"
        );
        on_s = on_s.min(t);
        on_stats = stats;

        // Clone-based forking, caches off: the same exploration, the same
        // live steps, only the state representation differs — the timing
        // gap is pure fork cost.
        let ((candidates, stats), t) = time_once(|| explore(&module, false, false));
        assert_eq!(
            format!("{candidates:?}"),
            format!("{base_candidates:?}"),
            "clone-based forking must not change the candidate stream"
        );
        assert_eq!(
            stats.live_steps(),
            base_stats.live_steps(),
            "fork representation must not change the step count"
        );
        clone_s = clone_s.min(t);
    }

    // Bit-identical bug reports: caches on vs off, copy-on-write vs
    // clone-based forking at threads 1, 2 and 4.
    let report_off = full_report(&module, false, 1, true);
    let report_on = full_report(&module, true, 1, true);
    assert_eq!(
        report_on, report_off,
        "caches must produce a bit-identical report document"
    );
    for threads in [1, 2, 4] {
        for cow in [true, false] {
            let report = full_report(&module, true, threads, cow);
            assert_eq!(
                report, report_off,
                "report must be byte-identical (threads {threads}, cow_state {cow})"
            );
        }
    }

    let live_off = base_stats.live_steps();
    let live_on = on_stats.live_steps();
    let step_cut = 100.0 * (1.0 - live_on as f64 / live_off.max(1) as f64);
    let wall_cut = 100.0 * (1.0 - on_s / off_s);
    // Same live steps in both fork modes, so the throughput ratio is the
    // inverse time ratio.
    let cow_speedup = clone_s / off_s.max(1e-9);
    let steps_per_sec = live_off as f64 / off_s.max(1e-9);
    let (forks, fork_bytes_copied, peak_live_bytes) = fork_telemetry(&module);

    println!();
    println!(
        "{:<28} {:>10} {:>14} {:>12} {:>10}",
        "configuration", "seconds", "live steps", "replayed", "hits"
    );
    println!("{}", "-".repeat(80));
    println!(
        "{:<28} {:>10.4} {:>14} {:>12} {:>10}",
        "caches off (cow)", off_s, live_off, 0, 0
    );
    println!(
        "{:<28} {:>10.4} {:>14} {:>12} {:>10}",
        "caches off (clone forks)", clone_s, live_off, 0, 0
    );
    println!(
        "{:<28} {:>10.4} {:>14} {:>12} {:>10}",
        "caches on (default)",
        on_s,
        live_on,
        on_stats.insts_replayed,
        on_stats.exploration_cache_hits + on_stats.callee_memo_hits
    );
    println!();
    println!(
        "subsumption hits: {}  callee memo hits: {}",
        on_stats.exploration_cache_hits, on_stats.callee_memo_hits
    );
    println!(
        "forks: {forks}  bytes copied at forks: {fork_bytes_copied}  \
         peak live state: {peak_live_bytes} bytes"
    );
    println!("reports: bit-identical across caches on/off and cow on/off at threads 1/2/4");
    println!("live DFS step cut: {step_cut:.1}%  wall-clock cut: {wall_cut:+.1}%");
    println!(
        "cow live-step throughput: {:.2e} steps/s, {cow_speedup:.1}x clone-based forking",
        steps_per_sec
    );

    let section = results::object(&[
        ("scale", format!("{scale}")),
        ("steps_per_sec", format!("{steps_per_sec:.1}")),
        ("live_steps", format!("{live_off}")),
        ("forks", format!("{forks}")),
        ("fork_bytes_copied", format!("{fork_bytes_copied}")),
        ("peak_live_bytes", format!("{peak_live_bytes}")),
        ("cow_seconds", format!("{off_s:.6}")),
        ("clone_seconds", format!("{clone_s:.6}")),
        ("cow_speedup", format!("{cow_speedup:.3}")),
        ("step_cut_pct", format!("{step_cut:.1}")),
    ]);
    results::write_section("exploration", &section).expect("write results/BENCH_stage1.json");
    println!(
        "results: exploration section written to {}",
        results::bench_stage1_path().display()
    );

    println!();
    let mut failed = false;
    if step_cut >= 30.0 {
        println!("PASS: exploration reuse cuts live DFS steps by {step_cut:.1}% (target ≥30%)");
    } else {
        println!("FAIL: exploration reuse cuts live DFS steps by {step_cut:.1}% (target ≥30%)");
        failed = true;
    }
    if cow_speedup >= 2.0 {
        println!(
            "PASS: copy-on-write forking delivers {cow_speedup:.1}x the live-step throughput \
             of clone-based forking (target ≥2x)"
        );
    } else {
        println!(
            "FAIL: copy-on-write forking delivers {cow_speedup:.1}x the live-step throughput \
             of clone-based forking (target ≥2x)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
