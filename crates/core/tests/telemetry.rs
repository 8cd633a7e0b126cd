//! Integration tests for the telemetry subsystem and the open API
//! (registry, builder, versioned report) across a full pipeline run.

use pata_core::{
    AnalysisConfig, AnalysisOutcome, AnalysisSession, BugKind, CheckerRegistry, RegistryError,
    Report, REPORT_SCHEMA_VERSION,
};

/// A module with several interface functions so the parallel scheduler has
/// real work to spread, and enough state machinery to exercise every
/// counter family (alias ops, typestates, constraints, validation).
const MULTI_ROOT_SRC: &str = r#"
    struct dev { int *res; int lock; int n; };

    static int probe_npd(struct dev *d) {
        if (d->res == NULL) { log_warn("x"); }
        return *d->res;
    }

    static int probe_leak(int n) {
        int *buf = malloc(32);
        if (n > 0) {
            return n;
        }
        free(buf);
        return 0;
    }

    static int probe_clean(struct dev *d) {
        if (d->res == NULL) {
            return -1;
        }
        return *d->res;
    }

    static int probe_infeasible(struct dev *d, int x) {
        if (x == 0) {
            if (d->res == NULL) { log_warn("y"); }
        }
        if (x != 0) {
            return *d->res;
        }
        return 0;
    }

    static struct drv drivers = {
        .p1 = probe_npd,
        .p2 = probe_leak,
        .p3 = probe_clean,
        .p4 = probe_infeasible,
    };
"#;

fn analyze_with_threads(threads: usize) -> AnalysisOutcome {
    let module = pata_cc::compile_one("multi.c", MULTI_ROOT_SRC).unwrap();
    let config = AnalysisConfig::builder()
        .checkers(BugKind::ALL.to_vec())
        .threads(threads)
        .telemetry(true)
        .build()
        .unwrap();
    AnalysisSession::new(config).analyze_module(module)
}

/// Merging per-worker shards must be lossless: every monotonic counter is
/// a commutative sum, so a 4-thread run reports exactly the same counter
/// values as a single-threaded one. (Durations and gauges legitimately
/// depend on the schedule and are not counters.)
#[test]
fn counters_exact_across_thread_counts() {
    let seq = analyze_with_threads(1);
    let par = analyze_with_threads(4);

    let counters = |outcome: &AnalysisOutcome| {
        let mut cs: Vec<(String, u64)> = outcome
            .telemetry
            .counters()
            .into_iter()
            .map(|(n, v)| (n.to_owned(), v))
            .collect();
        cs.sort();
        cs
    };
    let seq_counters = counters(&seq);
    assert!(
        seq_counters
            .iter()
            .any(|(n, v)| n == "path.paths" && *v > 0),
        "expected real exploration work: {seq_counters:?}"
    );
    assert_eq!(seq_counters, counters(&par));

    // The verdict stream is identical too.
    let render = |o: &AnalysisOutcome| {
        o.reports
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&seq), render(&par));
}

#[test]
fn parallel_run_records_thread_gauge() {
    let par = analyze_with_threads(4);
    // 4 requested threads capped by the number of roots (4).
    assert_eq!(par.telemetry.gauge("driver.threads"), Some(4));
    let seq = analyze_with_threads(1);
    assert_eq!(seq.telemetry.gauge("driver.threads"), Some(1));
}

#[test]
fn per_root_histogram_covers_every_root() {
    let out = analyze_with_threads(2);
    let hist = out
        .telemetry
        .histogram("explore.root")
        .expect("explore.root histogram");
    assert_eq!(hist.count, 4, "one sample per explored root");
    let mut listed: Vec<&str> = out
        .telemetry
        .slowest_roots
        .iter()
        .map(|r| r.root.as_str())
        .collect();
    listed.sort_unstable();
    assert_eq!(
        listed,
        ["probe_clean", "probe_infeasible", "probe_leak", "probe_npd"]
    );
}

/// The snapshot's size is set by the code, not by the input: a model four
/// times larger records the same metric names, the slowest-roots table
/// stays at its fixed length, and no entry carries a per-input label.
#[test]
fn snapshot_cardinality_does_not_grow_with_the_input() {
    let snapshot_at = |scale: f64| {
        let profile = pata_corpus::OsProfile::linux().with_scale(scale);
        let module = pata_corpus::Corpus::generate(&profile)
            .compile()
            .expect("corpus compiles");
        let config = AnalysisConfig::builder()
            .threads(1)
            .telemetry(true)
            .build()
            .unwrap();
        let outcome = AnalysisSession::new(config).analyze_module(module);
        assert!(outcome.stats.roots > 0);
        outcome.telemetry
    };
    let small = snapshot_at(0.05);
    let large = snapshot_at(0.2);
    let names = |snap: &pata_core::TelemetrySnapshot| -> Vec<&'static str> {
        snap.entries.iter().map(|e| e.name).collect()
    };
    assert_eq!(names(&small), names(&large));
    for snap in [&small, &large] {
        assert!(!snap.slowest_roots.is_empty());
        assert!(snap.slowest_roots.len() <= pata_core::telemetry::SLOWEST_ROOTS);
        let doc = pata_core::json::JsonValue::parse(&snap.to_json()).expect("valid JSON");
        let metrics = doc.get("metrics").and_then(|m| m.as_array()).unwrap();
        assert!(metrics.iter().all(|m| m.get("label").is_none()));
    }
}

#[test]
fn disabled_telemetry_yields_empty_snapshot() {
    let module = pata_cc::compile_one("multi.c", MULTI_ROOT_SRC).unwrap();
    let config = AnalysisConfig::builder().threads(1).build().unwrap();
    let outcome = AnalysisSession::new(config).analyze_module(module);
    assert!(outcome.telemetry.is_empty());
    assert!(outcome.stats.roots > 0, "analysis itself still ran");
}

/// End-to-end schema round-trip on real pipeline output, not hand-built
/// reports.
#[test]
fn pipeline_report_round_trips_through_json() {
    let outcome = analyze_with_threads(1);
    assert!(!outcome.reports.is_empty());
    let report = Report::new(outcome.reports.clone());
    let json = report.to_json();
    let back = Report::from_json(&json).unwrap();
    assert_eq!(back.schema_version, REPORT_SCHEMA_VERSION);
    assert_eq!(back, report);
}

#[test]
fn registry_rejects_duplicate_id_at_api_boundary() {
    let mut registry = CheckerRegistry::with_builtins();
    let err = registry
        .register(Box::new(pata_core::BuiltinChecker(
            BugKind::NullPointerDeref,
        )))
        .unwrap_err();
    assert_eq!(
        err,
        RegistryError::DuplicateId("null-pointer-dereference".to_owned())
    );
    // The failed registration must not have corrupted the registry.
    assert_eq!(registry.ids().len(), 7);
}
