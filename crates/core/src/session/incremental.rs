//! A session's kept products are exact: over a seeded sequence of in-place
//! edits to the scale-0.2 linux model, the call graph, roots, per-root
//! records and candidates, P3 groups and report a session keeps or serves
//! after every request equal those of a fresh session on the same sources
//! (which keeps products from its second, identical request on), although
//! it derived them only for what the edit touched. Its statistics
//! equal those of a session that derives everything again on every request
//! (a fresh session's differ in the validation cache's hits and misses).

use super::exactness::{edit_function, header, recorded_roots, request, Edit};
use super::*;
use crate::json::quote;
use crate::serve::{handle_line, ServeTotals};
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
/// call graph, roots and interface flags; the function space's names and
/// the per-root records, candidate lines included, so that a clean
/// record's stale line shows; the P3 groups.
fn kept(session: &AnalysisSession) -> (String, String, Vec<filter::GroupDump>) {
    let warm = session.warm.as_ref().expect("a warm state");
    let bound = warm.bound.as_ref().expect("products bound to the module");
    let module = session.front_end.lowered.as_ref().unwrap().module();
    let flags: Vec<bool> = module
        .functions()
        .iter()
        .map(|f| f.is_interface())
        .collect();
    let graph = format!("{:?} {:?} {flags:?}", bound.graph, bound.roots);
    let plans = format!("{:?} {:?}", warm.names, warm.records);
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

/// Serves `files` on `session` and checks the outcome: its report against
/// a cold session's, its statistics against `rederiving`'s (which derives
/// every product again) and, after an in-place lowering, its kept products
/// against a fresh session's. After a full lowering, or a request served
/// from the store's records, nothing is bound. Returns whether the request
/// lowered in place.
fn serve_and_check(
    session: &mut AnalysisSession,
    rederiving: &mut AnalysisSession,
    files: &[(String, String)],
    what: &str,
) -> bool {
    let out = session.analyze(&request(files)).expect("analyzes");
    rederiving.front_end = FrontEnd::default();
    let rederived = rederiving.analyze(&request(files)).expect("analyzes");
    assert!(
        outcome_of(&out) == outcome_of(&rederived),
        "{what}: the served statistics or report differ"
    );
    let config = session.config().clone();
    let mut fresh = AnalysisSession::new(config);
    let cold = fresh.analyze(&request(files)).expect("analyzes");
    assert!(
        out.report.to_json() == cold.report.to_json(),
        "{what}: the served report differs from a cold one"
    );
    let compiled = session.front_end.lowered.is_some();
    let in_place = compiled && out.incremental.lowered_functions < module_len(session);
    let bound = session.warm.as_ref().unwrap().bound.is_some();
    assert_eq!(bound, in_place, "{what}: products kept after {in_place}");
    if in_place {
        fresh.analyze(&request(files)).expect("analyzes");
        let (graph, plans, groups) = kept(session);
        let (cold_graph, cold_plans, cold_groups) = kept(&fresh);
        assert!(graph == cold_graph, "{what}: call graph or roots");
        assert!(plans == cold_plans, "{what}: per-root plans");
        assert_eq!(groups, cold_groups, "{what}: P3 groups");
    }
    in_place
}

/// Applies an in-place `edit` to one function of `files`.
fn edit(
    files: &mut [(String, String)],
    session: &AnalysisSession,
    edit: Edit,
    i: usize,
    rng: &mut Prng,
) {
    while !edit_function(files, edit, i, rng, &recorded_roots(session)) {}
}

fn linux_files(scale: f64) -> Vec<(String, String)> {
    model_files(OsProfile::linux().with_scale(scale))
}

fn model_files(profile: OsProfile) -> Vec<(String, String)> {
    Corpus::generate(&profile)
        .files
        .iter()
        .map(|f| (f.path.clone(), f.text.clone()))
        .collect()
}

/// Every session finding renders from its record ([`WarmState::report`]):
/// the site function's name from the function space, its file through
/// the function's file index and the file table, that file's inferred
/// category and the record's lines. After a cold, store-less request over
/// each OS model, that report equals [`BugReport::from_possible`] over
/// the module for every candidate of every record, reported or not.
#[test]
fn every_candidate_renders_from_its_record_as_from_the_module() {
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    for profile in [
        OsProfile::linux(),
        OsProfile::zephyr(),
        OsProfile::riot(),
        OsProfile::tencent(),
    ] {
        let name = profile.name;
        let files = model_files(profile.with_scale(0.2));
        let mut session = AnalysisSession::new(config.clone());
        session.analyze(&request(&files)).expect("analyzes");
        let warm = session.warm.as_ref().expect("a warm state");
        let module = session.front_end.lowered.as_ref().unwrap().module();
        let mut candidates = 0;
        for (r, record) in warm.records.iter().enumerate() {
            for (i, bug) in record.candidates.iter().enumerate() {
                assert_eq!(
                    warm.report((r, i)),
                    BugReport::from_possible(bug, module),
                    "{name}: candidate {i} of root {}",
                    warm.names[record.root.index()]
                );
                candidates += 1;
            }
        }
        assert!(candidates > 0, "{name}: the model has candidates");
    }
}

/// A request that adds or reorders a file lowers every function and
/// keeps no products; the in-place edits after it keep them again, equal
/// to a fresh session's after every request.
#[test]
fn kept_products_survive_a_full_lowering_mid_sequence() {
    let mut files = linux_files(0.2);
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let mut rng = Prng::seed_from_u64(0x5_1c4e);
    let mut session = AnalysisSession::new(config.clone());
    let mut rederiving = AnalysisSession::new(config);
    session.analyze(&request(&files)).expect("analyzes");
    rederiving.analyze(&request(&files)).expect("analyzes");
    let steps = [
        Edit::Const,
        Edit::Stmt,
        Edit::AddFile,
        Edit::Local,
        Edit::Const,
        Edit::Reorder,
        Edit::Stmt,
        Edit::Local,
        Edit::Const,
    ];
    for (i, step) in steps.into_iter().enumerate() {
        match step {
            Edit::AddFile => files.push((
                "drivers/switch/added.c".to_owned(),
                "static int switch_added(int *p) { if (p == NULL) { } return *p; }\n".to_owned(),
            )),
            Edit::Reorder => files.swap(0, 1),
            _ => edit(&mut files, &session, step, i, &mut rng),
        }
        let what = format!("step {i} ({step:?})");
        let in_place = serve_and_check(&mut session, &mut rederiving, &files, &what);
        assert_eq!(in_place, step.in_place(), "{what}");
    }
}

/// A session reopened over its store loads no session products; its first
/// request, over the unchanged tree, is served from the store's records
/// without compiling, its first edit lowers in full, and its in-place
/// edits after that keep products equal to a fresh session's after every
/// edit, records and their statistics included. The re-deriving session
/// restarts from a copy of the same store: a clean root replays its
/// record's statistics.
#[test]
fn a_reopened_store_session_keeps_products_from_its_edits() {
    let mut files = linux_files(0.2);
    let dir = std::env::temp_dir().join(format!("pata-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (path, copy) = (dir.join("store.json"), dir.join("copy.json"));
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    AnalysisSession::open(config.clone(), &path)
        .analyze(&request(&files))
        .expect("analyzes");
    std::fs::copy(&path, &copy).unwrap();
    let mut session = AnalysisSession::open(config.clone(), &path);
    let mut rederiving = AnalysisSession::open(config, &copy);
    assert!(session.warm.as_ref().unwrap().bound.is_none());
    assert!(!serve_and_check(
        &mut session,
        &mut rederiving,
        &files,
        "restart"
    ));
    assert!(
        session.front_end.lowered.is_none() && session.front_end.files.is_empty(),
        "the restart compiled nothing"
    );
    let mut rng = Prng::seed_from_u64(0x0_5e0e);
    let kinds = [Edit::Const, Edit::Stmt, Edit::Local];
    for i in 0..6 {
        edit(&mut files, &session, kinds[i % 3], i, &mut rng);
        serve_and_check(&mut session, &mut rederiving, &files, &format!("edit {i}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Adds a line above the function of one of `report`'s findings, in the
/// same file: a statement or a local (`edit`) at the top of a root above
/// it, which the finding's root, unless it is that root, does not reach,
/// or, with no `edit`, a comment line. Either moves the finding's lines
/// while its root stays clean. Returns `false` when the chosen finding has
/// no place above it.
fn edit_above_a_finding(
    files: &mut [(String, String)],
    report: &Report,
    roots: &[String],
    edit: Option<Edit>,
    i: usize,
    rng: &mut Prng,
) -> bool {
    let finding = rng.choose(&report.reports);
    let Some(file) = files.iter().position(|(name, _)| *name == finding.file) else {
        return false;
    };
    let mut lines: Vec<String> = files[file].1.lines().map(str::to_owned).collect();
    let headers: Vec<(usize, &str)> = lines
        .iter()
        .enumerate()
        .filter_map(|(l, line)| Some((l, header(line)?.1)))
        .collect();
    let Some(below) = headers.iter().position(|&(_, f)| f == finding.function) else {
        return false;
    };
    let k = rng.gen_range(2, 90);
    let (at, line) = match edit {
        None => {
            let at = headers[rng.gen_range(0, below + 1)].0;
            (at, format!("// served edit {i}"))
        }
        Some(edit) => {
            let above: Vec<usize> = headers[..below]
                .iter()
                .filter(|(_, f)| roots.iter().any(|r| r == f))
                .map(|&(l, _)| l)
                .collect();
            if above.is_empty() {
                return false;
            }
            let body = match edit {
                Edit::Stmt => format!("    if ({k} > 1) {{ }}"),
                _ => format!("    int served_local{i} = {k};"),
            };
            (rng.choose(&above) + 1, body)
        }
    };
    lines.insert(at, line);
    files[file].1 = lines.join("\n") + "\n";
    true
}

/// An `analyze` frame of `files`, as a client writes it.
fn frame(id: usize, files: &[(String, String)]) -> String {
    let files: Vec<String> = files
        .iter()
        .map(|(name, text)| format!("{{\"name\": {}, \"text\": {}}}", quote(name), quote(text)))
        .collect();
    format!(
        "{{\"id\": {id}, \"op\": \"analyze\", \"files\": [{}]}}",
        files.join(", ")
    )
}

/// The report document of an `analyze` response.
fn served_report(response: &str) -> &str {
    let start = response.find("\"report\": ").expect("an analyze response") + 10;
    let end = response.rfind(", \"serve\": {").expect("a serve object");
    &response[start..end]
}

/// A store-backed session served through the frame loop's handler: after
/// each of 30 seeded in-place edits its response carries exactly the
/// report a cold analysis of the same sources gives, although it wrote
/// most findings from the fragments its kept groups held. Three edits in
/// four add a line above another finding's function in the same file (a
/// statement or a local in a root above it, or a comment line), which
/// moves that finding's lines while its root stays clean: a fragment kept
/// across such an edit would be stale. Four more edits are analyzed
/// through the public `analyze` between served ones. After every edit a
/// session opened over the store with the same files serves them from
/// the store's records (it parses and lowers nothing and leaves the store
/// as it is) and gives the cold report and the cold statistics.
#[test]
fn served_reports_equal_a_cold_analysis_after_every_edit() {
    let mut files = linux_files(0.2);
    let dir = std::env::temp_dir().join(format!("pata-served-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let store = dir.join("store.json");
    let mut session = AnalysisSession::open(config.clone(), &store);
    let mut totals = ServeTotals::default();
    let cold_outcome = |files: &[(String, String)]| {
        let mut fresh = AnalysisSession::new(config.clone());
        fresh.analyze(&request(files)).expect("analyzes")
    };
    let cold = |files: &[(String, String)]| cold_outcome(files).report;
    // The statistics a restart must share with a cold run: all but the
    // wall time and the validation cache's hits and misses (a restart
    // starts with the stored verdicts).
    let counters = |stats: &AnalysisStats| AnalysisStats {
        time: std::time::Duration::ZERO,
        validation_cache_hits: 0,
        validation_cache_misses: 0,
        ..stats.clone()
    };
    let restart = |files: &[(String, String)], what: &str| {
        use std::os::unix::fs::MetadataExt;
        let stamp = |meta: std::fs::Metadata| (meta.ino(), meta.modified().unwrap(), meta.len());
        let before = stamp(std::fs::metadata(&store).unwrap());
        let out = AnalysisSession::open(config.clone(), &store)
            .analyze(&request(files))
            .expect("analyzes");
        let cold = cold_outcome(files);
        let inc = out.incremental;
        assert!(
            inc.warm_start && inc.dirty_roots == 0,
            "{what}: a clean restart"
        );
        assert_eq!(
            (inc.parsed_files, inc.lowered_functions),
            (0, 0),
            "{what}: served from the records"
        );
        assert_eq!(
            stamp(std::fs::metadata(&store).unwrap()),
            before,
            "{what}: no save"
        );
        assert!(out.report == cold.report, "{what}: the cold report");
        assert_eq!(
            counters(&out.stats),
            counters(&cold.stats),
            "{what}: the cold statistics"
        );
    };
    let (response, _) = handle_line(&mut session, &frame(0, &files), &mut totals);
    let mut report = cold(&files);
    assert_eq!(served_report(&response), report.to_json());

    let mut rng = Prng::seed_from_u64(0x5e_4fed);
    let (mut moved, mut findings, mut rendered) = (0, 0, 0);
    for i in 0..34 {
        let edit = [Some(Edit::Const), Some(Edit::Stmt), Some(Edit::Local), None][i % 4];
        let roots = recorded_roots(&session);
        if edit == Some(Edit::Const) {
            while !edit_function(&mut files, Edit::Const, i, &mut rng, &roots) {}
        } else {
            while !edit_above_a_finding(&mut files, &report, &roots, edit, i, &mut rng) {}
            moved += 1;
        }
        report = cold(&files);
        // Every eighth request goes through the public `analyze`, which
        // builds its findings anew and must not leave a moved one's
        // fragment for the next served request.
        if i % 8 == 6 {
            let out = session.analyze(&request(&files)).expect("analyzes");
            assert!(out.report == report, "edit {i} ({edit:?}): public report");
            restart(&files, &format!("restart after edit {i}"));
            continue;
        }
        let (response, _) = handle_line(&mut session, &frame(i + 1, &files), &mut totals);
        assert!(
            response.contains("\"parsed_files\": 1}"),
            "edit {i} ({edit:?})"
        );
        assert!(
            served_report(&response) == report.to_json(),
            "edit {i} ({edit:?}): the served report differs from a cold one"
        );
        let groups = &session
            .warm
            .as_ref()
            .unwrap()
            .bound
            .as_ref()
            .expect("kept groups")
            .groups;
        findings += report.reports.len();
        rendered += groups.rendered;
        restart(&files, &format!("restart after edit {i}"));
    }
    assert_eq!(totals.errors, 0);
    assert_eq!(moved, 25);
    // The first in-place edit renders every finding; after it, most are
    // written from their fragments.
    assert!(
        rendered * 4 < findings,
        "{rendered} of {findings} findings rendered"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
