//! The store log is exact: over a seeded sequence of in-place edits to the
//! scale-0.2 linux model, each save appends one delta line, and loading
//! the file gives exactly what a full save of the session's warm state
//! would write. A session reopened over the log replays every root.

use super::exactness::{edit_function, recorded_roots, request, Edit};
use super::*;
use pata_corpus::{Corpus, OsProfile, Prng};
use std::os::unix::fs::MetadataExt;

/// What a full save of `session`'s warm state writes, read back.
fn full_save(session: &AnalysisSession) -> Store {
    let warm = session.warm.as_ref().expect("warm state");
    let doc = StoreDoc {
        config_fp: session.config_fp,
        root_count: warm.root_count,
        files: &warm.files,
        functions: warm.table(),
        roots: &warm.records,
        validation: &session.cache.export(),
    };
    Store::parse(&doc.to_json(), session.config_fp).expect("a full save parses")
}

#[test]
fn appended_store_loads_as_a_full_save_after_every_edit() {
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(0.2));
    let mut files: Vec<(String, String)> = corpus
        .files
        .iter()
        .map(|f| (f.path.clone(), f.text.clone()))
        .collect();
    let dir = std::env::temp_dir().join(format!("pata-store-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let mut session = AnalysisSession::open(config.clone(), &path);
    session.analyze(&request(&files)).expect("analyzes");
    let base = std::fs::metadata(&path).unwrap();
    let first_verdicts = session.cache.len();

    let mut rng = Prng::seed_from_u64(0x5703e);
    let kinds = [Edit::Const, Edit::Stmt, Edit::Local];
    for i in 0..24 {
        let roots = recorded_roots(&session);
        while !edit_function(&mut files, kinds[i % 3], i, &mut rng, &roots) {}
        let before = std::fs::metadata(&path).unwrap();
        let out = session.analyze(&request(&files)).expect("analyzes");
        assert_eq!(out.incremental.parsed_files, 1, "edit {i}: in place");
        let after = std::fs::metadata(&path).unwrap();
        assert_eq!(
            after.ino(),
            base.ino(),
            "edit {i}: appended, not renamed over"
        );
        assert!(after.len() > before.len(), "edit {i}: the store grew");

        let (loaded, file) = Store::load(&path, session.config_fp).expect("loads");
        assert_eq!(file.len, after.len());
        assert_eq!(file.base, base.len());
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines, i + 2, "edit {i}: one delta line per save");
        let full = full_save(&session);
        assert_eq!(loaded.files, full.files, "edit {i}");
        assert_eq!(loaded.names, full.names, "edit {i}");
        assert_eq!(loaded.fps, full.fps, "edit {i}");
        assert_eq!(loaded.func_files, full.func_files, "edit {i}");
        assert_eq!(loaded.roots, full.roots, "edit {i}");
        assert_eq!(loaded.validation, full.validation, "edit {i}");
        assert!(
            loaded.to_json() == full.to_json(),
            "edit {i}: the same bytes"
        );

        if i % 6 == 5 {
            let mut reopened = AnalysisSession::open(config.clone(), &path);
            let replay = reopened.analyze(&request(&files)).expect("analyzes");
            assert!(replay.incremental.warm_start, "edit {i}");
            assert_eq!(replay.incremental.dirty_roots, 0, "edit {i}");
            assert_eq!(replay.report.to_json(), out.report.to_json(), "edit {i}");
            let reread = std::fs::metadata(&path).unwrap();
            assert_eq!(
                (reread.len(), reread.ino()),
                (after.len(), after.ino()),
                "edit {i}: a load never writes"
            );
        }
    }
    assert!(
        session.cache.len() > first_verdicts,
        "some deltas carry verdicts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
