//! Telemetry overhead benchmark: the cost of the metrics subsystem must be
//! a branch on an `AtomicBool` when disabled.
//!
//! Three measurements on the linux corpus profile:
//!
//! 1. **Micro** — nanoseconds per disabled recording site
//!    (`Telemetry::is_enabled` + dead `Span`), demonstrating the
//!    branch-only claim directly.
//! 2. **Pipeline, telemetry off** — full analysis wall-clock with
//!    `config.telemetry = false` (the default; what every non-profiling
//!    run pays).
//! 3. **Pipeline, telemetry on** — the same analysis with recording
//!    enabled, to show what `--profile` / `--stats-json` cost.
//!
//! The verdict stream must be byte-identical across both pipeline modes —
//! observability must never change analysis results.
//!
//! `--smoke` runs a reduced single-round configuration for CI; `--scale F`
//! sizes the corpus (default 1.0).

use pata_bench::harness::{bench, hold, time_once};
use pata_core::telemetry::{Span, Telemetry};
use pata_core::{AnalysisConfig, AnalysisSession};
use pata_corpus::{Corpus, OsProfile};

fn run_pipeline(module: &pata_ir::Module, telemetry: bool) -> (Vec<String>, u64) {
    let config = AnalysisConfig::builder()
        .threads(1)
        .telemetry(telemetry)
        .build()
        .expect("valid bench config");
    let outcome = AnalysisSession::new(config).analyze_module(module.clone());
    let verdicts = outcome.reports.iter().map(ToString::to_string).collect();
    (verdicts, outcome.stats.paths_explored)
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
        "Telemetry overhead benchmark (linux profile, scale {scale}{})",
        if smoke { ", smoke mode" } else { "" }
    );

    // 1. The disabled recording site: one relaxed atomic load + branch.
    let tel = Telemetry::new(false);
    bench("telemetry/disabled_is_enabled_check", || {
        hold(tel.is_enabled())
    });
    bench("telemetry/disabled_span_lifecycle", || {
        let span = Span::start(tel.is_enabled(), "bench.site");
        hold(span.is_live())
    });

    // 2 + 3. Full pipeline with telemetry off vs on.
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(scale));
    let module = corpus.compile().expect("corpus compiles");

    let mut off_s = f64::INFINITY;
    let mut on_s = f64::INFINITY;
    let baseline = run_pipeline(&module, false);
    for _ in 0..rounds {
        let (r, t) = time_once(|| run_pipeline(&module, false));
        assert_eq!(r, baseline, "telemetry-off runs must be deterministic");
        off_s = off_s.min(t);

        let (r, t) = time_once(|| run_pipeline(&module, true));
        assert_eq!(
            r, baseline,
            "enabling telemetry must not change verdicts or path counts"
        );
        on_s = on_s.min(t);
    }

    let overhead_on = 100.0 * (on_s / off_s - 1.0);
    println!();
    println!("{:<28} {:>10}", "configuration", "seconds");
    println!("{}", "-".repeat(40));
    println!("{:<28} {:>10.4}", "telemetry off (default)", off_s);
    println!("{:<28} {:>10.4}", "telemetry on", on_s);
    println!();
    println!(
        "verdict streams: identical across modes ({} reports)",
        baseline.0.len()
    );
    println!("telemetry-on overhead vs off: {overhead_on:+.1}%");

    if smoke {
        println!();
        println!("PASS: smoke mode — verdict identity and recording sites exercised");
        return;
    }
    // Enabled mode is a profiling mode: the per-root span and the
    // slowest-roots table behind `--profile` dominate its cost (a clock
    // read and a 10-entry scan per root). Gate loosely — the point is
    // catching accidental per-instruction recording (which shows up as
    // 2-10x, not percents), while the disabled path stays the product
    // guarantee enforced above.
    if overhead_on < 25.0 {
        println!();
        println!("PASS: telemetry-on overhead {overhead_on:+.1}% (target <25%)");
    } else {
        println!();
        println!("FAIL: telemetry-on overhead {overhead_on:+.1}% (target <25%)");
        std::process::exit(1);
    }
}
