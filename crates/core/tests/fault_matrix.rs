//! The fault-injection matrix (ISSUE 9 acceptance): every containment
//! path — checker panic, explore panic, validate panic, store IO error,
//! kill-mid-write, deadline hit, live-bytes ceiling — produces a
//! well-formed versioned report with a populated `degraded` section, the
//! session keeps answering, and degraded reports are byte-identical
//! across thread counts and cache configurations for a fixed fault plan.

use pata_core::{
    AnalysisConfig, AnalysisRequest, AnalysisSession, FaultPlan, Report, SessionError,
    SessionOutcome,
};
use std::path::PathBuf;
use std::sync::Arc;

const CORPUS: &[(&str, &str)] = &[
    (
        "drivers/net.c",
        r#"
        struct dev { int *res; int len; };
        int net_probe(struct dev *d) {
            if (d->res == NULL) { }
            return *d->res;
        }
        "#,
    ),
    (
        "drivers/block.c",
        r#"
        int blk_probe(int n) {
            int *m = malloc(n);
            if (m == NULL) { return -1; }
            if (n < 0) { return -2; }
            free(m);
            return 0;
        }
        "#,
    ),
    (
        "drivers/char.c",
        r#"
        int chr_helper(int *p) {
            if (p == NULL) { return 0; }
            return *p;
        }
        int chr_probe(int *p) {
            int x = chr_helper(p);
            return x + *p;
        }
        "#,
    ),
];

fn request() -> AnalysisRequest {
    let mut r = AnalysisRequest::new();
    for (name, text) in CORPUS {
        r = r.file(*name, *text);
    }
    r
}

fn plan(spec: &str) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::parse(spec).expect("valid plan"))
}

fn config(threads: usize, caches: bool, cow: bool, spec: Option<&str>) -> AnalysisConfig {
    let mut b = AnalysisConfig::builder()
        .threads(threads)
        .exploration_cache(caches)
        .callee_memo(caches)
        .cow_state(cow);
    if let Some(spec) = spec {
        b = b.fault_plan(plan(spec));
    }
    b.build().expect("valid config")
}

fn analyze(cfg: AnalysisConfig) -> SessionOutcome {
    AnalysisSession::new(cfg)
        .analyze(&request())
        .expect("analyze succeeds")
}

fn tempdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pata-faultmx-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The report must survive its own wire format: serialize, re-parse,
/// re-serialize, byte-for-byte.
fn assert_well_formed(report: &Report) {
    let json = report.to_json();
    let back = Report::from_json(&json).expect("round-trips");
    assert_eq!(back.to_json(), json);
    assert_eq!(back.degraded, report.degraded);
}

fn baseline() -> SessionOutcome {
    analyze(config(1, true, true, None))
}

#[test]
fn explore_panic_quarantines_one_root_and_keeps_the_rest() {
    let outcome = analyze(config(1, true, true, Some("explore:net_probe")));
    assert_well_formed(&outcome.report);
    assert_eq!(outcome.report.degraded.len(), 1);
    let d = &outcome.report.degraded[0];
    assert_eq!(d.root, "net_probe");
    assert_eq!(d.stage, "explore");
    assert_eq!(d.action, "quarantined");
    assert_eq!(d.reason, "fault injected: explore:net_probe");
    // The quarantined root contributes no reports; the others are intact.
    assert!(!outcome
        .report
        .reports
        .iter()
        .any(|r| r.function == "net_probe"));
    let base = baseline();
    assert!(base.report.degraded.is_empty());
    let kept: Vec<_> = base
        .report
        .reports
        .iter()
        .filter(|r| r.function != "net_probe")
        .collect();
    assert_eq!(outcome.report.reports.len(), kept.len());
    assert!(outcome.report.reports.len() < base.report.reports.len());
}

#[test]
fn checker_panic_is_contained_like_an_explore_panic() {
    let outcome = analyze(config(1, true, true, Some("checker:chr_probe@1")));
    assert_well_formed(&outcome.report);
    assert_eq!(outcome.report.degraded.len(), 1);
    let d = &outcome.report.degraded[0];
    assert_eq!(
        (d.root.as_str(), d.stage.as_str(), d.action.as_str()),
        ("chr_probe", "explore", "quarantined")
    );
    assert!(!outcome
        .report
        .reports
        .iter()
        .any(|r| r.function == "chr_probe"));
}

#[test]
fn validate_panic_drops_the_group_and_reports_it() {
    let outcome = analyze(config(1, true, true, Some("validate:net_probe")));
    assert_well_formed(&outcome.report);
    assert_eq!(outcome.report.degraded.len(), 1);
    let d = &outcome.report.degraded[0];
    assert_eq!(
        (d.root.as_str(), d.stage.as_str(), d.action.as_str()),
        ("net_probe", "validate", "quarantined")
    );
    assert!(!outcome
        .report
        .reports
        .iter()
        .any(|r| r.function == "net_probe"));
    // Other roots still validated and reported.
    let base = baseline();
    assert!(outcome.report.reports.len() < base.report.reports.len());
}

/// A one-shot `analyze_module` run filters through the same stage as
/// `session.analyze`, fault plan included, so a validate fault degrades
/// both alike.
#[test]
fn one_shot_run_degrades_like_a_session_run() {
    const SRC: &str = "int f(int *p) { if (p == NULL) { } return *p; }";
    let spec = Some("validate@1,seed=3");
    let one_shot = AnalysisSession::new(config(1, true, true, spec))
        .analyze_module(pata_cc::compile_one("f.c", SRC).unwrap());
    let session = AnalysisSession::new(config(1, true, true, spec))
        .analyze(&AnalysisRequest::new().file("f.c", SRC))
        .expect("analyze succeeds");
    assert_eq!(one_shot.degraded.len(), 1);
    assert_eq!(one_shot.degraded, session.report.degraded);
    assert_eq!(
        Report::new(one_shot.reports).to_json(),
        Report::new(session.report.reports).to_json()
    );
}

#[test]
fn deadline_hit_demotes_and_keeps_the_bounded_verdicts() {
    let outcome = analyze(config(1, true, true, Some("deadline:net_probe@1")));
    assert_well_formed(&outcome.report);
    assert_eq!(outcome.report.degraded.len(), 1);
    let d = &outcome.report.degraded[0];
    assert_eq!(
        (
            d.root.as_str(),
            d.stage.as_str(),
            d.action.as_str(),
            d.reason.as_str()
        ),
        ("net_probe", "explore", "demoted", "deadline")
    );
    // The bounded re-run still finds the root's bug (the corpus roots are
    // tiny, far under the demoted budgets).
    assert!(outcome
        .report
        .reports
        .iter()
        .any(|r| r.function == "net_probe"));
    assert_eq!(
        outcome.report.reports.len(),
        baseline().report.reports.len()
    );
}

#[test]
fn live_bytes_ceiling_demotes_too() {
    let outcome = analyze(config(1, true, true, Some("live_bytes:blk_probe@1")));
    assert_well_formed(&outcome.report);
    assert_eq!(outcome.report.degraded.len(), 1);
    let d = &outcome.report.degraded[0];
    assert_eq!(
        (d.root.as_str(), d.action.as_str(), d.reason.as_str()),
        ("blk_probe", "demoted", "live_bytes")
    );
}

#[test]
fn unconditional_resource_trip_escalates_to_quarantine() {
    // The rule fires again in the demoted re-run, so the ladder gives up.
    let outcome = analyze(config(1, true, true, Some("deadline:net_probe")));
    assert_well_formed(&outcome.report);
    assert_eq!(outcome.report.degraded.len(), 1);
    let d = &outcome.report.degraded[0];
    assert_eq!(
        (d.root.as_str(), d.action.as_str(), d.reason.as_str()),
        ("net_probe", "quarantined", "deadline")
    );
    assert!(!outcome
        .report
        .reports
        .iter()
        .any(|r| r.function == "net_probe"));
}

/// Degraded reports are byte-identical across thread counts and cache /
/// cow configurations for a fixed fault plan.
#[test]
fn degraded_reports_byte_identical_across_configs() {
    for spec in [
        "explore:net_probe",
        "checker:chr_probe@1",
        "validate:net_probe",
        "deadline:net_probe@1",
        "live_bytes:blk_probe@1",
        "deadline:net_probe,live_bytes:blk_probe@1,validate:chr_probe",
    ] {
        let reference = analyze(config(1, true, true, Some(spec))).report.to_json();
        for (threads, caches, cow) in [
            (2, true, true),
            (4, true, true),
            (1, false, true),
            (4, false, false),
            (2, true, false),
        ] {
            let got = analyze(config(threads, caches, cow, Some(spec)))
                .report
                .to_json();
            assert_eq!(
                got, reference,
                "spec `{spec}` threads={threads} caches={caches} cow={cow}"
            );
        }
    }
}

/// An empty fault plan is the null hypothesis: byte-identical to no plan.
#[test]
fn zero_fault_runs_match_no_plan_runs() {
    let with_empty = analyze(config(2, true, true, Some("")));
    let without = analyze(config(2, true, true, None));
    assert_eq!(with_empty.report.to_json(), without.report.to_json());
    assert!(with_empty.report.degraded.is_empty());
}

/// Recovery telemetry counters are exact across thread counts for a
/// fixed plan (timing histograms exempt, like every other span).
#[test]
fn recover_counters_exact_across_threads() {
    let run = |threads: usize| {
        let cfg = AnalysisConfig::builder()
            .threads(threads)
            .telemetry(true)
            .fault_plan(plan("explore:net_probe,deadline:blk_probe@1"))
            .build()
            .unwrap();
        let session = AnalysisSession::new(cfg);
        let mut session = session;
        let out = session.analyze(&request()).unwrap();
        out.telemetry
    };
    let t1 = run(1);
    let t4 = run(4);
    for name in [
        "driver.recover.quarantined",
        "driver.recover.demoted",
        "driver.recover.deadline_hits",
        "driver.recover.live_bytes_hits",
    ] {
        let sum = |snap: &pata_core::TelemetrySnapshot| -> u64 { snap.counter_sum(name) };
        assert_eq!(sum(&t1), sum(&t4), "{name}");
    }
}

#[test]
fn store_io_error_degrades_to_cold_start_not_failure() {
    let dir = tempdir("io-error");
    let store = dir.join("pata.store");
    let cfg = AnalysisConfig::builder()
        .threads(1)
        .fault_plan(plan("store.save@1"))
        .build()
        .unwrap();
    let mut session = AnalysisSession::open(cfg, &store);
    let first = session.analyze(&request()).expect("IO fault is not fatal");
    assert_well_formed(&first.report);
    assert!(first.report.degraded.is_empty());
    assert!(!store.exists(), "failed save leaves no store file");
    // The session's next analyze retries the save (hit 2: no fire).
    let second = session.analyze(&request()).unwrap();
    assert_eq!(second.report.to_json(), first.report.to_json());
    assert!(store.exists(), "retry lands");
    // A fresh session warm-starts from the recovered store. The plan spec
    // participates in the config fingerprint, so the warm session must
    // carry the same spec (fresh hit counters; a fully-clean request
    // never saves, so the spent `@1` rule stays dormant anyway).
    let cfg = AnalysisConfig::builder()
        .threads(1)
        .fault_plan(plan("store.save@1"))
        .build()
        .unwrap();
    let mut warm = AnalysisSession::open(cfg, &store);
    let replay = warm.analyze(&request()).unwrap();
    assert_eq!(replay.incremental.dirty_roots, 0);
    assert_eq!(replay.report.to_json(), first.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_write_is_contained_and_recovers_cold() {
    let dir = tempdir("kill-mid-write");
    let store = dir.join("pata.store");
    for site in [
        "store.save.before_tmp@1",
        "store.save.mid_tmp@1",
        "store.save.before_rename@1",
        "store.save.after_rename@1",
    ] {
        let cfg = AnalysisConfig::builder()
            .threads(1)
            .fault_plan(plan(site))
            .build()
            .unwrap();
        let mut session = AnalysisSession::open(cfg, &store);
        let err = session.analyze(&request()).expect_err("crash point fires");
        let SessionError::Internal(reason) = err else {
            panic!("expected Internal, got {err}");
        };
        assert!(reason.contains("fault injected"), "{reason}");
        // The same session answers the next request: the panic reset the
        // warm state, the interrupted save completes (hit 2: no fire).
        let retry = session.analyze(&request()).expect("session survives");
        assert_well_formed(&retry.report);
        assert!(store.exists(), "{site}: retry saved the store");
        // Cold start over whatever the "kill" left behind parses cleanly
        // and replays byte-identically.
        let cfg = AnalysisConfig::builder().threads(1).build().unwrap();
        let mut cold = AnalysisSession::open(cfg, &store);
        let replay = cold.analyze(&request()).unwrap();
        assert_eq!(replay.report.to_json(), retry.report.to_json());
        let _ = std::fs::remove_file(&store);
        let _ = std::fs::remove_file(store.with_extension("tmp"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A demoted root's degraded entry is persisted, so a warm replay
/// reproduces the report (degraded section included) byte-identically; a
/// quarantined root is *not* persisted and re-explores next request.
#[test]
fn warm_replay_reproduces_demotions_and_retries_quarantines() {
    let dir = tempdir("warm-replay");
    let store = dir.join("pata.store");
    let spec = "deadline:net_probe@1,explore:blk_probe@1";
    let cfg = AnalysisConfig::builder()
        .threads(1)
        .fault_plan(plan(spec))
        .build()
        .unwrap();
    let mut session = AnalysisSession::open(cfg, &store);
    let first = session.analyze(&request()).unwrap();
    assert_eq!(first.report.degraded.len(), 2);

    // Same session, same request: net_probe (demoted, persisted) replays
    // clean with its degraded entry; blk_probe (quarantined, dropped)
    // re-explores — the plan's @1 hits are spent, so it now succeeds.
    let second = session.analyze(&request()).unwrap();
    assert_eq!(
        second.incremental.dirty_roots, 1,
        "only the quarantined root"
    );
    let demoted: Vec<_> = second
        .report
        .degraded
        .iter()
        .map(|d| (d.root.as_str(), d.action.as_str()))
        .collect();
    assert_eq!(demoted, vec![("net_probe", "demoted")]);
    assert!(second
        .report
        .reports
        .iter()
        .any(|r| r.function == "blk_probe"));

    // A fresh session against the same store and plan spec behaves the
    // same way (fresh hit counters fire the faults again on the dirty
    // root only).
    let cfg = AnalysisConfig::builder()
        .threads(4)
        .fault_plan(plan(spec))
        .build()
        .unwrap();
    let mut warm = AnalysisSession::open(cfg, &store);
    let replay = warm.analyze(&request()).unwrap();
    assert_eq!(replay.report.to_json(), second.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}
