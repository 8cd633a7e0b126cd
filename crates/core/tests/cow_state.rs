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
//! byte-identical report documents across cow on/off and threads 1/2/4.

use pata_core::{AnalysisConfig, AnalysisSession, Report};

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

/// Byte-identical report documents across the fork representation and
/// every tested thread count, on a corpus with enough roots to schedule.
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

    let report = |cow: bool, threads: usize| {
        let outcome =
            AnalysisSession::new(config(cow, threads, false)).analyze_module(module.clone());
        Report::new(outcome.reports)
            .with_budget_notes(outcome.budget_notes)
            .to_json()
    };
    let base = report(true, 1);
    assert!(
        base.contains("null-pointer-dereference"),
        "a non-empty report document is expected: {base}"
    );
    for cow in [true, false] {
        for threads in [1usize, 2, 4] {
            assert_eq!(
                report(cow, threads),
                base,
                "cow {cow}, threads {threads} must match the sequential cow run"
            );
        }
    }
}
