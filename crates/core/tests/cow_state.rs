//! Fork-cost tests for the copy-on-write path state (ISSUE 8): forking a
//! branch must cost O(changed), not O(live state).
//!
//! The corpus generator below builds roots whose live state at the single
//! branch point grows with `k` (k heap objects, k placed pointers), so a
//! representation that copies the live state pays more per fork as `k`
//! grows. The copy-on-write journal must instead pay a fixed-size mark:
//! `driver.explore.fork.bytes_copied / forks` stays exactly flat in `k`,
//! while the clone-based baseline (`cow_state(false)`) grows.
//!
//! Independently, both representations must be observationally equivalent:
//! byte-identical report documents and identical stats across cow on/off
//! and threads 1/2/4, in both alias modes and with every checker. The fork
//! telemetry of one fixed root is pinned, so a storage change cannot move
//! a `--max-live-bytes` trip point unnoticed.

use pata_core::{AliasMode, AnalysisConfig, AnalysisSession, BugKind, Report};

/// One interface root with `k` live heap allocations before a single
/// branch: the deeper the state, the more a clone-based fork must copy.
fn deep_src(k: usize) -> String {
    let mut s = String::from("int deep_probe(int *p, int n) {\n");
    for i in 0..k {
        s.push_str(&format!("    int *m{i} = malloc(8);\n"));
    }
    s.push_str("    int acc = 0;\n");
    s.push_str("    if (n > 0) { acc = 1; } else { acc = 2; }\n");
    for i in 0..k {
        s.push_str(&format!("    free(m{i});\n"));
    }
    s.push_str("    return acc;\n}\n");
    s
}

fn config(cow: bool, threads: usize, telemetry: bool) -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(threads)
        .telemetry(telemetry)
        .cow_state(cow)
        .build()
        .unwrap()
}

/// Runs stage 1+2 on `src` and returns the run's fork telemetry:
/// `(forks, bytes_copied)`.
fn fork_counters(src: &str, cow: bool) -> (u64, u64) {
    let module = pata_cc::compile_one("deep.c", src).unwrap();
    let session = AnalysisSession::new(config(cow, 1, true));
    let _ = session.analyze_module(module);
    let snap = session.telemetry().snapshot();
    (
        snap.counter("driver.explore.fork.forks"),
        snap.counter("driver.explore.fork.bytes_copied"),
    )
}

/// The acceptance criterion: `bytes_copied` per fork is flat as path depth
/// grows under copy-on-write, and grows under clone-based forking.
#[test]
fn fork_cost_is_flat_in_live_state_depth() {
    let mut cow_cost = Vec::new();
    let mut clone_cost = Vec::new();
    for k in [4usize, 16, 64] {
        let src = deep_src(k);
        let (forks, copied) = fork_counters(&src, true);
        assert!(forks > 0, "the branch must fork (k = {k})");
        cow_cost.push(copied / forks);

        let (clone_forks, clone_copied) = fork_counters(&src, false);
        assert_eq!(clone_forks, forks, "fork count is representation-free");
        clone_cost.push(clone_copied / clone_forks);
    }
    assert!(
        cow_cost.windows(2).all(|w| w[0] == w[1]),
        "cow fork cost must be O(changed) — flat across state depth, got {cow_cost:?}"
    );
    assert!(
        clone_cost.windows(2).all(|w| w[0] < w[1]),
        "clone fork cost must grow with live state, got {clone_cost:?}"
    );
    assert!(
        cow_cost[0] < clone_cost[0],
        "a cow fork ({} bytes) must be cheaper than the shallowest clone ({} bytes)",
        cow_cost[0],
        clone_cost[0]
    );
}

/// Byte-identical report documents and identical stats across the fork
/// representation and every tested thread count, on a corpus with enough
/// roots to schedule. The default mode keys path state by alias-graph
/// node and PATA-NA by variable; each runs with the default checkers and
/// with all seven, so every checker's state namespace and both halves of
/// the key space go through both fork modes.
#[test]
fn reports_identical_across_cow_and_threads() {
    let mut src = String::new();
    for r in 0..6 {
        let mut f = format!("int probe_{r}(int *p, int n) {{\n");
        f.push_str("    int *buf = malloc(16);\n");
        f.push_str(&format!(
            "    if (n > {r}) {{ if (p == NULL) {{ log_warn(\"probe\"); }} return *p; }}\n"
        ));
        f.push_str("    free(buf);\n    return 0;\n}\n");
        src.push_str(&f);
    }
    let module = pata_cc::compile_one("many.c", &src).unwrap();

    for mode in [AliasMode::PathBased, AliasMode::None] {
        for checkers in [AnalysisConfig::default().checkers, BugKind::ALL.to_vec()] {
            let run = |cow: bool, threads: usize| {
                let config = AnalysisConfig::builder()
                    .threads(threads)
                    .cow_state(cow)
                    .alias_mode(mode)
                    .checkers(checkers.clone())
                    .build()
                    .unwrap();
                let outcome = AnalysisSession::new(config).analyze_module(module.clone());
                let mut stats = outcome.stats;
                stats.time = std::time::Duration::ZERO;
                let report = Report::new(outcome.reports)
                    .with_budget_notes(outcome.budget_notes)
                    .to_json();
                (report, stats)
            };
            let (base, base_stats) = run(true, 1);
            let name = format!("{mode:?}, {} checkers", checkers.len());
            assert!(
                base.contains("null-pointer-dereference"),
                "{name}: a non-empty report document is expected: {base}"
            );
            for cow in [true, false] {
                for threads in [1usize, 2, 4] {
                    let (report, stats) = run(cow, threads);
                    assert_eq!(
                        report, base,
                        "{name}: cow {cow}, threads {threads} must match the sequential cow run"
                    );
                    assert_eq!(stats, base_stats, "{name}: cow {cow}, threads {threads}");
                }
            }
        }
    }
}

/// The fork telemetry of one fixed root is pinned in both fork modes, in
/// the default mode and in PATA-NA with every checker, so a change to how
/// path state is stored cannot move a `--max-live-bytes` trip point (or
/// any `driver.explore.fork.*` value) unnoticed. The pinned values are
/// `(forks, bytes_copied, bytes_shared, journal_depth.max,
/// live_bytes.max)`.
#[test]
fn fork_telemetry_of_a_fixed_root_is_pinned() {
    let module = pata_cc::compile_one("deep.c", &deep_src(16)).unwrap();
    let default = AnalysisConfig::builder();
    let na_all = AnalysisConfig::builder()
        .alias_mode(AliasMode::None)
        .checkers(BugKind::ALL.to_vec());
    let pinned = [
        (
            "default",
            default,
            [(2, 128, 13272, 104, 6636), (2, 13272, 0, 104, 6636)],
        ),
        (
            "na, all checkers",
            na_all,
            [(2, 128, 22688, 149, 11344), (2, 22688, 0, 149, 11344)],
        ),
    ];
    for (name, builder, want) in pinned {
        for (cow, want) in [true, false].into_iter().zip(want) {
            let config = builder
                .clone()
                .threads(1)
                .telemetry(true)
                .cow_state(cow)
                .build()
                .unwrap();
            let session = AnalysisSession::new(config);
            let _ = session.analyze_module(module.clone());
            let snap = session.telemetry().snapshot();
            let got = (
                snap.counter("driver.explore.fork.forks"),
                snap.counter("driver.explore.fork.bytes_copied"),
                snap.counter("driver.explore.fork.bytes_shared"),
                snap.gauge("driver.explore.fork.journal_depth.max").unwrap(),
                snap.gauge("driver.explore.fork.live_bytes.max").unwrap(),
            );
            assert_eq!(got, want, "{name}, cow {cow}");
        }
    }
}
