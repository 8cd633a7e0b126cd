//! Integration tests for the stage-1 exploration-reuse layer: determinism
//! across cache configurations and thread counts, and the interaction
//! between the loop budget and the subsumption table.

use pata_core::{AnalysisConfig, AnalysisOutcome, AnalysisSession, BugKind, Report};

/// Driver-style code with reconvergent diamonds (subsumption fodder), a
/// helper called with identical arguments from identical states (callee-memo
/// fodder), and real bugs on some paths so verdict equality is meaningful.
const REUSE_SRC: &str = r#"
    struct dev { int flags; int mode; int irq; int *res; };

    static int clamp(int n) {
        if (n > 4) { n = 4; }
        if (n < 0) { n = 0; }
        return n;
    }

    static int tune(struct dev *d) {
        int rate = 0;
        int win = 0;
        int depth = 0;
        if (d->flags > 0) { rate = 100; } else { rate = 10; }
        if (d->mode > 1) { win = 8; } else { win = 1; }
        if (d->irq > 0) { depth = clamp(2); } else { depth = clamp(2); }
        if (d->flags > 2) { rate = rate + win; } else { rate = rate - win; }
        if (d->res == NULL) { log_warn("tune"); }
        return *d->res + rate + depth;
    }

    static int probe(struct dev *d) {
        int *buf = malloc(64);
        int a = 0;
        if (d->mode > 0) { a = clamp(3); } else { a = clamp(3); }
        if (a > 0) {
            return a;
        }
        free(buf);
        return 0;
    }

    static struct ops dev_ops = { .tune = tune, .probe = probe };
"#;

fn module() -> pata_ir::Module {
    pata_cc::compile_one("reuse.c", REUSE_SRC).unwrap()
}

/// The default checker set (NPD, UVA, ML). Checkers that track integer
/// value facts from branches (AIU, DBZ) make sibling diamond arms
/// *genuinely* divergent states — the fingerprint correctly refuses to
/// subsume them — so the hit-count assertions below use the defaults and
/// [`all_checkers_stay_equivalent`] covers the full set separately.
fn config(caches: bool, threads: usize) -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(threads)
        .telemetry(true)
        .exploration_cache(caches)
        .callee_memo(caches)
        .build()
        .unwrap()
}

fn run(caches: bool, threads: usize) -> AnalysisOutcome {
    AnalysisSession::new(config(caches, threads)).analyze_module(module())
}

fn report_json(o: &AnalysisOutcome) -> String {
    Report::new(o.reports.clone())
        .with_budget_notes(o.budget_notes.clone())
        .to_json()
}

/// The caches must be invisible in every observable output: the versioned
/// report document and the exploration volume (replay accounts for every
/// path and instruction the live run would have executed).
#[test]
fn caches_are_observationally_equivalent() {
    let off = run(false, 1);
    let on = run(true, 1);

    assert_eq!(report_json(&on), report_json(&off));
    assert_eq!(on.stats.paths_explored, off.stats.paths_explored);
    assert_eq!(on.stats.insts_processed, off.stats.insts_processed);

    // And they must actually do something on this module.
    assert_eq!(off.stats.insts_replayed, 0);
    assert!(
        on.stats.exploration_cache_hits > 0,
        "expected subsumption hits: {:?}",
        on.stats
    );
    assert!(
        on.stats.callee_memo_hits > 0,
        "expected callee-memo hits: {:?}",
        on.stats
    );
    assert!(on.stats.live_steps() < off.stats.live_steps());
}

/// One heavy root: two symmetric diamonds calling the same helper in both
/// arms (callee-memo fodder) followed by six constraint-distinct parameter
/// branches.
const HEAVY_ROOT_SRC: &str = r#"
    struct dev { int *res; int mode; int flags; };

    static int heavy_clamp(int v) {
        if (v > 8) { v = 8; }
        return v;
    }

    static int heavy_root(struct dev *d, int lim, int a0, int a1, int a2, int a3, int a4, int a5) {
        int acc = 0;
        int w = 0;
        int k = 0;
        if (d->mode > 0) { w = heavy_clamp(lim); } else { w = heavy_clamp(lim); }
        if (d->flags > 0) { k = heavy_clamp(4); } else { k = heavy_clamp(4); }
        if (a0 > 10) { acc = acc + 1; } else { acc = acc - 1; }
        if (a1 > 20) { acc = acc + 2; } else { acc = acc - 1; }
        if (a2 > 30) { acc = acc + 3; } else { acc = acc - 1; }
        if (a3 > 40) { acc = acc + 4; } else { acc = acc - 1; }
        if (a4 > 50) { acc = acc + 5; } else { acc = acc - 1; }
        if (a5 > 60) { acc = acc + 6; } else { acc = acc - 1; }
        if (d->res == NULL) { acc = 0; }
        return *d->res + acc + w + k;
    }

    static struct ops heavy_ops = { .run = heavy_root };
"#;

/// Every counter is exact at any thread count: a root is explored by one
/// worker alone, so the stats (minus wall time and the scheduler's steal
/// count), the report and the exploration-reuse telemetry of a single heavy
/// root cannot depend on how many workers the run has.
#[test]
fn heavy_root_counters_exact_across_threads() {
    let mk = |threads: usize| {
        let module = pata_cc::compile_one("heavy.c", HEAVY_ROOT_SRC).unwrap();
        AnalysisSession::new(config(true, threads)).analyze_module(module)
    };
    let exact = |o: &AnalysisOutcome| {
        let mut stats = o.stats.clone();
        stats.time = Default::default();
        stats.work_steals = 0;
        let reuse = ["sub_hits", "memo_hits", "insts_replayed"]
            .map(|c| o.telemetry.counter(&format!("driver.explore.{c}")));
        (stats, report_json(o), reuse)
    };
    let base = mk(1);
    assert_eq!(base.stats.roots, 1);
    assert!(base.stats.callee_memo_hits > 0, "{:?}", base.stats);
    for threads in [2, 4] {
        assert_eq!(exact(&mk(threads)), exact(&base), "threads {threads}");
    }
}

/// Telemetry counter equality across cache configurations: everything
/// except the `driver.*` family (scheduler metrics and the exploration
/// hit/replay counters themselves) is a pure function of the explored
/// program, so replay must reproduce it exactly.
#[test]
fn counters_exact_across_cache_configurations() {
    let counters = |o: &AnalysisOutcome| {
        let mut cs: Vec<(String, Option<String>, u64)> = o
            .telemetry
            .counters()
            .into_iter()
            .filter(|(name, _, _)| !name.starts_with("driver."))
            .map(|(n, l, v)| (n.to_owned(), l.map(str::to_owned), v))
            .collect();
        cs.sort();
        cs
    };
    let off = run(false, 1);
    let on = run(true, 1);
    assert!(
        counters(&off)
            .iter()
            .any(|(n, _, v)| n == "path.paths" && *v > 0),
        "expected real exploration work"
    );
    assert_eq!(counters(&on), counters(&off));

    // Multi-threaded runs keep the same counters too.
    assert_eq!(counters(&run(true, 4)), counters(&off));
}

/// With every built-in checker enabled the value-tracking ones (AIU, DBZ)
/// shrink the reuse opportunities, but whatever the caches still replay
/// must remain observationally invisible.
#[test]
fn all_checkers_stay_equivalent() {
    let mk = |caches: bool| {
        let config = AnalysisConfig::builder()
            .checkers(BugKind::ALL.to_vec())
            .threads(1)
            .exploration_cache(caches)
            .callee_memo(caches)
            .build()
            .unwrap();
        AnalysisSession::new(config).analyze_module(module())
    };
    let off = mk(false);
    let on = mk(true);
    assert_eq!(report_json(&on), report_json(&off));
    assert_eq!(on.stats.paths_explored, off.stats.paths_explored);
    assert_eq!(on.stats.insts_processed, off.stats.insts_processed);
}

/// The fork representation (copy-on-write undo journal vs literal clone,
/// the `cow_state` knob) must be invisible in every observable output,
/// whatever the cache configuration or thread count.
#[test]
fn cow_state_is_observationally_equivalent() {
    let mk = |cow: bool, caches: bool, threads: usize| {
        let config = AnalysisConfig::builder()
            .threads(threads)
            .cow_state(cow)
            .exploration_cache(caches)
            .callee_memo(caches)
            .build()
            .unwrap();
        AnalysisSession::new(config).analyze_module(module())
    };
    let base = mk(true, false, 1);
    for cow in [true, false] {
        for caches in [true, false] {
            for threads in [1usize, 2, 4] {
                let o = mk(cow, caches, threads);
                assert_eq!(
                    report_json(&o),
                    report_json(&base),
                    "cow {cow}, caches {caches}, threads {threads}"
                );
                assert_eq!(o.stats.paths_explored, base.stats.paths_explored);
                assert_eq!(o.stats.insts_processed, base.stats.insts_processed);
            }
        }
    }
}

/// A loop body re-enters its header block with a *different* fingerprint
/// each iteration (the visit count of a cyclic block is part of the key),
/// so subsumption never short-circuits the loop cut: with caches on, a
/// tight loop budget truncates paths at exactly the same place.
#[test]
fn loop_budget_interacts_soundly_with_subsumption() {
    const LOOP_SRC: &str = r#"
        struct dev { int n; int *res; };

        static int drain(struct dev *d) {
            int total = 0;
            int i;
            for (i = 0; i < d->n; i++) {
                if (d->res == NULL) { log_warn("drain"); }
                total += *d->res;
            }
            return total;
        }

        static struct ops drain_ops = { .drain = drain };
    "#;
    let module = pata_cc::compile_one("loop.c", LOOP_SRC).unwrap();
    for iterations in [1usize, 2, 3] {
        let mk = |caches: bool| {
            let config = AnalysisConfig::builder()
                .threads(1)
                .loop_iterations(iterations)
                .exploration_cache(caches)
                .callee_memo(caches)
                .build()
                .unwrap();
            AnalysisSession::new(config).analyze_module(module.clone())
        };
        let off = mk(false);
        let on = mk(true);
        assert_eq!(
            report_json(&on),
            report_json(&off),
            "iterations {iterations}"
        );
        assert_eq!(on.stats.paths_explored, off.stats.paths_explored);
        assert_eq!(on.stats.insts_processed, off.stats.insts_processed);
    }
}

/// A memo hit consumes exactly the budget of the live exploration it
/// replaces, and a recording that would cross a budget line triggers the
/// deterministic cache-free re-run — so even truncated verdicts match.
#[test]
fn budget_exhaustion_reruns_cache_free() {
    let mk = |caches: bool, max_insts: usize| {
        let config = AnalysisConfig::builder()
            .threads(1)
            .max_insts(max_insts)
            .exploration_cache(caches)
            .callee_memo(caches)
            .build()
            .unwrap();
        AnalysisSession::new(config).analyze_module(module())
    };
    // Budgets chosen to land mid-exploration: some roots exhaust, some
    // complete. Every configuration must still agree on the report.
    for max_insts in [50usize, 200, 1000] {
        let off = mk(false, max_insts);
        let on = mk(true, max_insts);
        assert_eq!(report_json(&on), report_json(&off), "max_insts {max_insts}");
        if !off.budget_notes.is_empty() {
            // The re-run path marks its notes as cache-free verdicts.
            assert!(
                on.budget_notes.iter().all(|n| n.caches_disabled),
                "exhausted roots must re-run cache-free: {:?}",
                on.budget_notes
            );
        }
    }
}
