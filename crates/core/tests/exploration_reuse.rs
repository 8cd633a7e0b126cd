//! Integration tests for stage-1 exploration, the paper's plain DFS over
//! copy-on-write path state: determinism across fork modes and thread
//! counts, the loop cut, and budget truncation.

use pata_core::{AnalysisConfig, AnalysisOutcome, AnalysisSession, BugKind, Report};

/// Driver-style code with reconvergent diamonds, a helper called with
/// identical arguments from identical states, heap traffic, and real bugs
/// on some paths so verdict equality is meaningful.
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

fn config(cow: bool, threads: usize) -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(threads)
        .telemetry(true)
        .cow_state(cow)
        .build()
        .unwrap()
}

fn run(cow: bool, threads: usize) -> AnalysisOutcome {
    AnalysisSession::new(config(cow, threads)).analyze_module(module())
}

fn report_json(o: &AnalysisOutcome) -> String {
    Report::new(o.reports.clone())
        .with_budget_notes(o.budget_notes.clone())
        .to_json()
}

/// One heavy root: two symmetric diamonds calling the same helper in both
/// arms, followed by six constraint-distinct parameter branches.
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
/// worker alone, so the stats (minus wall time), the report and the exploration telemetry of a single heavy root
/// cannot depend on how many workers the run has.
#[test]
fn heavy_root_counters_exact_across_threads() {
    let mk = |threads: usize| {
        let module = pata_cc::compile_one("heavy.c", HEAVY_ROOT_SRC).unwrap();
        AnalysisSession::new(config(true, threads)).analyze_module(module)
    };
    let exact = |o: &AnalysisOutcome| {
        let mut stats = o.stats.clone();
        stats.time = Default::default();
        let explore = ["path.paths", "path.insts"].map(|c| o.telemetry.counter(c));
        (stats, report_json(o), explore)
    };
    let base = mk(1);
    assert_eq!(base.stats.roots, 1);
    assert!(base.stats.paths_explored > 64, "{:?}", base.stats);
    for threads in [2, 4] {
        assert_eq!(exact(&mk(threads)), exact(&base), "threads {threads}");
    }
}

/// Telemetry counter equality across fork modes and thread counts:
/// everything except the `driver.*` family (scheduler metrics and fork
/// costs) is a pure function of the explored program.
#[test]
fn counters_exact_across_fork_modes_and_threads() {
    let counters = |o: &AnalysisOutcome| {
        let mut cs: Vec<(String, u64)> = o
            .telemetry
            .counters()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("driver."))
            .map(|(n, v)| (n.to_owned(), v))
            .collect();
        cs.sort();
        cs
    };
    let base = run(true, 1);
    assert!(
        counters(&base)
            .iter()
            .any(|(n, v)| n == "path.paths" && *v > 0),
        "expected real exploration work"
    );
    assert_eq!(counters(&run(false, 1)), counters(&base));
    assert_eq!(counters(&run(true, 4)), counters(&base));
}

/// With every built-in checker enabled, the value-tracking ones (AIU, DBZ)
/// carry extra path state; the fork representation must stay invisible.
#[test]
fn all_checkers_stay_equivalent_across_fork_modes() {
    let mk = |cow: bool| {
        let config = AnalysisConfig::builder()
            .checkers(BugKind::ALL.to_vec())
            .threads(1)
            .cow_state(cow)
            .build()
            .unwrap();
        AnalysisSession::new(config).analyze_module(module())
    };
    let cow = mk(true);
    let clone = mk(false);
    assert_eq!(report_json(&cow), report_json(&clone));
    assert_eq!(cow.stats, {
        let mut s = clone.stats.clone();
        s.time = cow.stats.time;
        s
    });
}

/// The fork representation (copy-on-write undo journal vs literal clone,
/// the `cow_state` knob) must be invisible in every observable output,
/// whatever the thread count.
#[test]
fn cow_state_is_observationally_equivalent() {
    let base = run(true, 1);
    for cow in [true, false] {
        for threads in [1usize, 2, 4] {
            let o = run(cow, threads);
            assert_eq!(
                report_json(&o),
                report_json(&base),
                "cow {cow}, threads {threads}"
            );
            assert_eq!(o.stats.paths_explored, base.stats.paths_explored);
            assert_eq!(o.stats.insts_processed, base.stats.insts_processed);
        }
    }
}

/// The loop cut (§3.1): each extra allowed iteration re-enters the loop
/// header once more, so paths and steps grow with the bound, and the
/// truncation lands at the same place in both fork modes.
#[test]
fn loop_budget_cuts_identically_across_fork_modes() {
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
    let mut last = (0, 0);
    for iterations in [1usize, 2, 3] {
        let mk = |cow: bool| {
            let config = AnalysisConfig::builder()
                .threads(1)
                .loop_iterations(iterations)
                .cow_state(cow)
                .build()
                .unwrap();
            AnalysisSession::new(config).analyze_module(module.clone())
        };
        let cow = mk(true);
        let clone = mk(false);
        assert_eq!(
            report_json(&cow),
            report_json(&clone),
            "iterations {iterations}"
        );
        assert_eq!(cow.stats.paths_explored, clone.stats.paths_explored);
        assert_eq!(cow.stats.insts_processed, clone.stats.insts_processed);
        let volume = (cow.stats.paths_explored, cow.stats.insts_processed);
        assert!(
            volume.0 > last.0 && volume.1 > last.1,
            "iterations {iterations}: {volume:?} must exceed {last:?}"
        );
        last = volume;
    }
}

/// Budget truncation is deterministic: at instruction budgets that land
/// mid-exploration, the truncated verdicts and budget notes are identical
/// across fork modes and thread counts.
#[test]
fn truncated_verdicts_identical_across_fork_modes_and_threads() {
    let mk = |cow: bool, threads: usize, max_insts: usize| {
        let config = AnalysisConfig::builder()
            .threads(threads)
            .max_insts(max_insts)
            .cow_state(cow)
            .build()
            .unwrap();
        AnalysisSession::new(config).analyze_module(module())
    };
    for max_insts in [50usize, 200, 1000] {
        let base = mk(true, 1, max_insts);
        if max_insts == 50 {
            assert!(!base.budget_notes.is_empty(), "50 steps must truncate");
        }
        for cow in [true, false] {
            for threads in [1usize, 2, 4] {
                let o = mk(cow, threads, max_insts);
                assert_eq!(
                    report_json(&o),
                    report_json(&base),
                    "max_insts {max_insts}, cow {cow}, threads {threads}"
                );
                assert_eq!(o.stats.paths_explored, base.stats.paths_explored);
                assert_eq!(o.stats.insts_processed, base.stats.insts_processed);
            }
        }
    }
}
