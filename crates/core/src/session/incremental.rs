//! A session's kept products are exact: over a seeded sequence of in-place
//! edits to the scale-0.2 linux model, the call graph, roots, per-root
//! records and candidates, P3 groups and report a session keeps or serves
//! after every request equal those of a fresh session on the same sources
//! (which keeps products from its second, identical request on), although
//! it derived them only for what the edit touched. Its statistics
//! equal those of a session that derives everything again on every request
//! (a fresh session's differ in the validation cache's hits and misses).

use super::exactness::{edit_function, request, Edit};
use super::*;
use pata_corpus::{Corpus, OsProfile, Prng};

/// A session's last outcome, comparable with another's: the statistics
/// without their wall time, and the report.
fn outcome_of(out: &SessionOutcome) -> (AnalysisStats, String) {
    let stats = AnalysisStats {
        time: std::time::Duration::ZERO,
        ..out.stats.clone()
    };
    (stats, out.report.to_json())
}

/// What a session keeps for its next request, in a comparable form: the
/// call graph, roots and interface flags; the per-root records and
/// candidates; the P3 groups.
fn kept(session: &AnalysisSession) -> (String, String, Vec<filter::GroupDump>) {
    let warm = session.warm.as_ref().expect("a warm state");
    let bound = warm.bound.as_ref().expect("products bound to the module");
    let module = session.front_end.lowered.as_ref().unwrap().module();
    let flags: Vec<bool> = module
        .functions()
        .iter()
        .map(|f| f.is_interface())
        .collect();
    let graph = format!(
        "{:?} {:?} {:?} {flags:?}",
        bound.graph, bound.roots, bound.record_of
    );
    let plans = format!("{:?} {:?}", warm.roots, bound.candidates);
    (graph, plans, bound.groups.dump())
}

#[test]
fn kept_products_equal_a_fresh_session_after_every_edit() {
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(0.2));
    let mut files: Vec<(String, String)> = corpus
        .files
        .iter()
        .map(|f| (f.path.clone(), f.text.clone()))
        .collect();
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let mut rng = Prng::seed_from_u64(0x005e_ed26);
    let mut session = AnalysisSession::new(config.clone());
    session.analyze(&request(&files)).expect("analyzes");
    // Without a kept module every request lowers in full and so derives
    // every product again, as each request did before products were kept.
    let mut rederiving = AnalysisSession::new(config.clone());
    rederiving.analyze(&request(&files)).expect("analyzes");

    let kinds = [Edit::Const, Edit::Stmt, Edit::Local];
    let (mut groups_seen, mut replayed) = (0, 0);
    for i in 0..30 {
        let edit = if i == 13 {
            Edit::CallRoot
        } else {
            kinds[i % kinds.len()]
        };
        let module = session.front_end.lowered.as_ref().unwrap().module();
        let roots: Vec<String> = module
            .functions()
            .iter()
            .filter(|f| f.is_interface())
            .map(|f| f.name().to_owned())
            .collect();
        while !edit_function(&mut files, edit, i, &mut rng, &roots) {}
        let out = session.analyze(&request(&files)).expect("analyzes");
        let total = module_len(&session);
        assert!(
            out.incremental.lowered_functions < total,
            "edit {i} ({edit:?}) was lowered in place"
        );
        rederiving.front_end = FrontEnd::default();
        let rederived = rederiving.analyze(&request(&files)).expect("analyzes");
        assert!(
            outcome_of(&out) == outcome_of(&rederived),
            "edit {i} ({edit:?}): the served statistics or report differ"
        );
        let mut fresh = AnalysisSession::new(config.clone());
        let cold = fresh.analyze(&request(&files)).expect("analyzes");
        assert!(
            out.report.to_json() == cold.report.to_json(),
            "edit {i} ({edit:?}): the served report differs from a cold one"
        );
        assert!(fresh.warm.as_ref().unwrap().bound.is_none());
        fresh.analyze(&request(&files)).expect("analyzes");
        let (graph, plans, groups) = kept(&session);
        let (cold_graph, cold_plans, cold_groups) = kept(&fresh);
        assert!(
            graph == cold_graph,
            "edit {i} ({edit:?}): call graph or roots"
        );
        assert!(plans == cold_plans, "edit {i} ({edit:?}): per-root plans");
        assert_eq!(groups, cold_groups, "edit {i} ({edit:?}): P3 groups");
        groups_seen += groups.len();
        replayed += session
            .warm
            .as_ref()
            .unwrap()
            .bound
            .as_ref()
            .unwrap()
            .groups
            .replayed;
    }
    // Nearly every group replays its kept verdicts from one request to
    // the next.
    assert!(
        replayed * 10 > groups_seen * 9,
        "{replayed} of {groups_seen} groups replayed"
    );
}

fn module_len(session: &AnalysisSession) -> u64 {
    let lowered = session.front_end.lowered.as_ref().expect("a kept module");
    lowered.module().functions().len() as u64
}

/// A group quarantined by a validation fault is not kept: the next
/// request validates it again, while every other group replays its kept
/// verdicts through the same fault site. The fault hits probe_a's second
/// validation, in the first request that keeps products.
#[test]
fn a_quarantined_group_is_validated_again() {
    let source = r#"
        struct dev { int *res; };
        int probe_a(struct dev *d) {
            if (d->res == NULL) { }
            return *d->res;
        }
        int probe_b(int *q, int n) {
            if (q == NULL) { }
            if (n > 0) { return *q; }
            return 0;
        }
    "#;
    let req = AnalysisRequest::new().file("t.c", source);
    let config = |plan: Option<&str>| AnalysisConfig {
        threads: 1,
        fault_plan: plan.map(|p| Arc::new(faultinject::FaultPlan::parse(p).unwrap())),
        ..AnalysisConfig::default()
    };
    let healthy = AnalysisSession::new(config(None)).analyze(&req).unwrap();
    assert_eq!(healthy.report.reports.len(), 2);

    let mut session = AnalysisSession::new(config(Some("validate:probe_a@2")));
    let cold = session.analyze(&req).unwrap();
    assert_eq!(cold.report.to_json(), healthy.report.to_json());
    assert!(session.warm.as_ref().unwrap().bound.is_none());
    let first = session.analyze(&req).unwrap();
    assert_eq!(
        first.report.reports.len(),
        1,
        "probe_a's group is quarantined"
    );
    assert_eq!(first.report.degraded.len(), 1);
    assert_eq!(first.report.degraded[0].root, "probe_a");
    let kept = session.warm.as_ref().unwrap().bound.as_ref().unwrap();
    assert_eq!(
        kept.groups.dump().len(),
        1,
        "the quarantined group is not kept"
    );

    let second = session.analyze(&req).unwrap();
    assert_eq!(second.incremental.dirty_roots, 0);
    assert_eq!(second.report.to_json(), healthy.report.to_json());
    let kept = session.warm.as_ref().unwrap().bound.as_ref().unwrap();
    assert_eq!(kept.groups.dump().len(), 2);
    assert_eq!(kept.groups.replayed, 1, "only probe_b's group replays");
}
