//! Stage-1 exploration benchmark: the plain DFS on the linux corpus
//! profile, under both path-state representations.
//!
//! The comparison isolates the copy-on-write path-state
//! representation: branch forking through the undo journal (`cow_state`,
//! the default) must deliver at least 2x the live-step throughput of
//! literal clone-based forking (`--no-cow-state`). Both must explore the
//! same paths and produce bit-identical report documents at thread counts
//! 1, 2 and 4.
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

fn config(threads: usize, cow: bool) -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(threads)
        .cow_state(cow)
        .build()
        .expect("valid bench config")
}

/// Stage-1 only (the timed region): path exploration without validation.
fn explore(module: &pata_ir::Module, cow: bool) -> (Vec<PossibleBug>, AnalysisStats) {
    let pata = AnalysisSession::new(config(1, cow));
    let (_, candidates, stats) = pata.collect_candidates(module.clone());
    (candidates, stats)
}

/// Full pipeline: the versioned report document, for bit-identity checks.
fn full_report(module: &pata_ir::Module, threads: usize, cow: bool) -> String {
    let outcome = AnalysisSession::new(config(threads, cow)).analyze_module(module.clone());
    Report::new(outcome.reports)
        .with_budget_notes(outcome.budget_notes)
        .to_json()
}

/// One copy-on-write stage-1 run with telemetry on, for the fork counters.
fn fork_telemetry(module: &pata_ir::Module) -> (u64, u64, i64) {
    let session = AnalysisSession::new(
        AnalysisConfig::builder()
            .threads(1)
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

    // Timed: best of `rounds` for each fork representation.
    let mut cow_s = f64::INFINITY;
    let mut clone_s = f64::INFINITY;
    let (base_candidates, base_stats) = explore(&module, true);
    for _ in 0..rounds {
        let ((candidates, _), t) = time_once(|| explore(&module, true));
        assert_eq!(
            format!("{candidates:?}"),
            format!("{base_candidates:?}"),
            "copy-on-write runs must be deterministic"
        );
        cow_s = cow_s.min(t);

        // Clone-based forking: the same exploration, the same steps, only
        // the state representation differs — the timing gap is pure fork
        // cost.
        let ((candidates, stats), t) = time_once(|| explore(&module, false));
        assert_eq!(
            format!("{candidates:?}"),
            format!("{base_candidates:?}"),
            "clone-based forking must not change the candidate stream"
        );
        assert_eq!(
            stats.insts_processed, base_stats.insts_processed,
            "fork representation must not change the step count"
        );
        clone_s = clone_s.min(t);
    }

    // Bit-identical bug reports: copy-on-write vs clone-based forking at
    // threads 1, 2 and 4.
    let reference = full_report(&module, 1, true);
    for threads in [1, 2, 4] {
        for cow in [true, false] {
            let report = full_report(&module, threads, cow);
            assert_eq!(
                report, reference,
                "report must be byte-identical (threads {threads}, cow_state {cow})"
            );
        }
    }

    let steps = base_stats.insts_processed;
    // Same steps in both fork modes, so the throughput ratio is the
    // inverse time ratio.
    let cow_speedup = clone_s / cow_s.max(1e-9);
    let steps_per_sec = steps as f64 / cow_s.max(1e-9);
    let (forks, fork_bytes_copied, peak_live_bytes) = fork_telemetry(&module);

    println!();
    println!("{:<28} {:>10} {:>14}", "configuration", "seconds", "steps");
    println!("{}", "-".repeat(54));
    println!(
        "{:<28} {:>10.4} {:>14}",
        "copy-on-write (default)", cow_s, steps
    );
    println!("{:<28} {:>10.4} {:>14}", "clone forks", clone_s, steps);
    println!();
    println!(
        "forks: {forks}  bytes copied at forks: {fork_bytes_copied}  \
         peak live state: {peak_live_bytes} bytes"
    );
    println!("reports: bit-identical across cow on/off at threads 1/2/4");
    println!(
        "cow live-step throughput: {:.2e} steps/s, {cow_speedup:.1}x clone-based forking",
        steps_per_sec
    );

    let section = results::object(&[
        ("scale", format!("{scale}")),
        ("steps_per_sec", format!("{steps_per_sec:.1}")),
        ("live_steps", format!("{steps}")),
        ("forks", format!("{forks}")),
        ("fork_bytes_copied", format!("{fork_bytes_copied}")),
        ("peak_live_bytes", format!("{peak_live_bytes}")),
        ("cow_seconds", format!("{cow_s:.6}")),
        ("clone_seconds", format!("{clone_s:.6}")),
        ("cow_speedup", format!("{cow_speedup:.3}")),
    ]);
    results::write_section("exploration", &section).expect("write results/BENCH_stage1.json");
    println!(
        "results: exploration section written to {}",
        results::bench_stage1_path().display()
    );

    println!();
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
        std::process::exit(1);
    }
}
