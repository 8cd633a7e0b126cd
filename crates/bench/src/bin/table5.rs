//! Regenerates **Table 5** — analysis results of the four OSes: analyzed
//! files/LOC, typestates (alias-aware vs unaware), SMT constraints
//! (alias-aware vs unaware), dropped repeated/false bugs, found/real bugs
//! per type (NPD/UVA/ML), and time.
//!
//! Shape targets from the paper (§5.1): alias awareness drops ~49.8% of
//! typestates and ~87.3% of SMT constraints; the overall false-positive
//! rate is ~28%; NPD dominates found bugs.

use pata_bench::{fmt_time, kind_cell, parse_scale, rule, run_profile};
use pata_core::AnalysisConfig;
use pata_corpus::OsProfile;

fn main() {
    let scale = parse_scale();
    println!("Table 5: Analysis results of the four OSes (scale {scale})");
    rule(126);
    println!(
        "{:<16} {:>6} {:>8} {:>21} {:>23} {:>8} {:>8} {:>18} {:>18} {:>8}",
        "OS",
        "Files",
        "LOC",
        "Typestates aw/unaw",
        "Constraints aw/unaw",
        "DropRep",
        "DropFls",
        "Found (N/U/M)",
        "Real (N/U/M)",
        "Time"
    );
    rule(126);

    let mut tot_ts = (0u64, 0u64);
    let mut tot_cs = (0u64, 0u64);
    let mut tot_found = 0usize;
    let mut tot_real = 0usize;
    let mut runs = Vec::new();
    for profile in OsProfile::all() {
        let p = profile.with_scale(scale);
        let run = run_profile(&p, AnalysisConfig::default());
        let s = &run.outcome.stats;
        tot_ts.0 += s.typestates_aware;
        tot_ts.1 += s.typestates_unaware;
        tot_cs.0 += s.constraints_aware;
        tot_cs.1 += s.constraints_unaware;
        tot_found += run.score.total_found();
        tot_real += run.score.total_real();
        println!(
            "{:<16} {:>6} {:>8} {:>10}/{:<10} {:>11}/{:<11} {:>8} {:>8} {:>18} {:>18} {:>8}",
            p.name,
            s.files_analyzed,
            s.loc_analyzed,
            s.typestates_aware,
            s.typestates_unaware,
            s.constraints_aware,
            s.constraints_unaware,
            s.repeated_bugs_dropped,
            s.false_bugs_dropped,
            kind_cell(&run.score, "found"),
            kind_cell(&run.score, "real"),
            fmt_time(run.seconds)
        );
        runs.push((p.name, run));
    }
    rule(126);

    // Stage-2 validation performance: the canonical-key verdict cache (see
    // DESIGN.md "Performance architecture").
    println!();
    println!("Stage-2 validation (verdict cache):");
    println!(
        "{:<16} {:>10} {:>10} {:>9}",
        "OS", "CacheHit", "CacheMiss", "HitRate"
    );
    rule(48);
    for (name, run) in &runs {
        let s = &run.outcome.stats;
        let lookups = (s.validation_cache_hits + s.validation_cache_misses).max(1);
        println!(
            "{:<16} {:>10} {:>10} {:>8.1}%",
            name,
            s.validation_cache_hits,
            s.validation_cache_misses,
            100.0 * s.validation_cache_hits as f64 / lookups as f64,
        );
    }
    rule(48);
    let ts_drop = 100.0 * (1.0 - tot_ts.0 as f64 / tot_ts.1.max(1) as f64);
    let cs_drop = 100.0 * (1.0 - tot_cs.0 as f64 / tot_cs.1.max(1) as f64);
    let fp_rate = 100.0 * (1.0 - tot_real as f64 / tot_found.max(1) as f64);
    println!("Alias-aware typestate reduction:  {ts_drop:.1}%   (paper: 49.8%)");
    println!("Alias-aware constraint reduction: {cs_drop:.1}%   (paper: 87.3%)");
    println!("Overall false-positive rate:      {fp_rate:.1}%   (paper: 28%)");
    println!();
    println!("Paper reference (full-size totals): found 797 (647/122/28), real 574 (463/90/21)");
}
