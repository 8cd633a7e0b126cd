//! Stage-2 validation benchmark: measures the wall-clock effect of the
//! canonicalized validation cache on the linux corpus profile.
//!
//! Four configurations validate the *same* candidate stream (phases P1+P2
//! run once, outside the timed region):
//!
//! 1. `fresh` — `validate_constraints` per conjunction;
//! 2. `validator` — a [`PathValidator`] without a cache (untimed: it must
//!    only agree with `fresh`);
//! 3. `cold cache` — a validator over a cold canonical-key cache;
//! 4. `warm cache` — a second pass over the warm cache (the cross-run
//!    case: re-analysis after small edits, bench iterations).
//!
//! All four must produce identical verdict streams — checked here, not just
//! timed. The target: `cold cache` at least 30% faster than `fresh`.

use pata_bench::harness::time_once;
use pata_core::validate::{validate_constraints, Feasibility, PathValidator, ValidationCache};
use pata_core::{AnalysisConfig, AnalysisSession, PossibleBug};
use pata_corpus::{Corpus, OsProfile};

const ROUNDS: usize = 10;

fn verdicts_fresh(candidates: &[PossibleBug]) -> Vec<Feasibility> {
    candidates
        .iter()
        .map(|b| validate_constraints(&b.constraints, &b.extra).0)
        .collect()
}

fn verdicts_validator(
    candidates: &[PossibleBug],
    cache: Option<&ValidationCache>,
) -> (Vec<Feasibility>, pata_core::validate::ValidationStats) {
    let mut v = PathValidator::new(cache);
    let out = candidates.iter().map(|b| v.validate(b)).collect();
    (out, v.stats())
}

fn main() {
    // Default to the full-size linux profile: the candidate stream at small
    // scales is too short for stable wall-clock percentages.
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let profile = OsProfile::linux().with_scale(scale);
    println!("Stage-2 validation benchmark (linux profile, scale {scale})");

    let corpus = Corpus::generate(&profile);
    let module = corpus.compile().expect("corpus compiles");
    let pata = AnalysisSession::new(AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    });
    let (_, mut candidates, _) = pata.collect_candidates(module);
    // Validate in the filter's order: stage 3 walks dedup groups, so path
    // snapshots of the same bug are adjacent. A stable sort keeps
    // within-group path order.
    candidates.sort_by_key(|b| b.dedup_key());
    let conjunctions: usize = candidates.len();
    println!("candidates to validate: {conjunctions}");

    // Timed: best of ROUNDS for each configuration (cold cache rebuilt per
    // round; the warm pass reuses the final round's cache).
    let mut fresh_s = f64::INFINITY;
    let mut cached_s = f64::INFINITY;
    let mut warm_s = f64::INFINITY;
    let baseline = verdicts_fresh(&candidates);
    let mut last_stats = None;
    let mut warm_hits = 0u64;
    for _ in 0..ROUNDS {
        let (r, t) = time_once(|| verdicts_fresh(&candidates));
        assert_eq!(r, baseline);
        fresh_s = fresh_s.min(t);

        let (r, _) = verdicts_validator(&candidates, None);
        assert_eq!(r, baseline, "validator must match fresh verdicts");

        let cache = ValidationCache::new();
        let ((r, stats), t) = time_once(|| verdicts_validator(&candidates, Some(&cache)));
        assert_eq!(r, baseline, "cached must match fresh verdicts");
        cached_s = cached_s.min(t);
        last_stats = Some(stats);

        let ((r, stats), t) = time_once(|| verdicts_validator(&candidates, Some(&cache)));
        assert_eq!(r, baseline, "warm-cache must match fresh verdicts");
        assert_eq!(stats.cache_misses, 0, "warm pass must be fully cached");
        warm_s = warm_s.min(t);
        warm_hits = stats.cache_hits;
    }
    let stats = last_stats.unwrap();

    let pct = |new: f64| 100.0 * (1.0 - new / fresh_s);
    println!();
    println!(
        "{:<28} {:>10} {:>10}",
        "configuration", "seconds", "vs fresh"
    );
    println!("{}", "-".repeat(52));
    println!(
        "{:<28} {:>10.4} {:>9.1}%",
        "fresh solver per candidate", fresh_s, 0.0
    );
    println!(
        "{:<28} {:>10.4} {:>9.1}%",
        "cache (cold)",
        cached_s,
        pct(cached_s)
    );
    println!(
        "{:<28} {:>10.4} {:>9.1}%",
        "cache (warm)",
        warm_s,
        pct(warm_s)
    );
    println!();
    println!(
        "cold cache: {} hits / {} misses ({:.1}% hit rate)",
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
    println!("warm cache: {warm_hits} hits / 0 misses");

    let speedup = pct(cached_s);
    println!();
    if speedup >= 30.0 {
        println!("PASS: the cache cuts stage-2 wall-clock by {speedup:.1}% (target ≥30%)");
    } else {
        println!("FAIL: the cache cuts stage-2 wall-clock by {speedup:.1}% (target ≥30%)");
        std::process::exit(1);
    }
}
