//! End-to-end tests for the on-disk analysis store: warm restarts replay
//! cached roots byte-identically, and every corruption or version skew
//! falls back to a clean cold start — never an error, never a wrong
//! report.

use pata_core::{
    AnalysisConfig, AnalysisRequest, AnalysisSession, SessionOutcome, STORE_SCHEMA_VERSION,
};
use std::path::PathBuf;

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

fn tempdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pata-persist-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(files: &[(&str, &str)]) -> AnalysisRequest {
    let mut r = AnalysisRequest::new();
    for (name, text) in files {
        r = r.file(*name, *text);
    }
    r
}

fn config(threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        threads,
        ..AnalysisConfig::default()
    }
}

fn run(store: &std::path::Path, threads: usize, files: &[(&str, &str)]) -> SessionOutcome {
    AnalysisSession::open(config(threads), store)
        .analyze(&request(files))
        .unwrap()
}

#[test]
fn warm_restart_replays_byte_identical_report() {
    let dir = tempdir("roundtrip");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    assert!(!cold.incremental.warm_start);
    assert_eq!(cold.incremental.clean_roots, 0);
    assert!(store.exists(), "store written after analyze");

    // A brand-new process (session) loads the store and replays everything.
    let warm = run(&store, 1, CORPUS);
    assert!(warm.incremental.warm_start);
    assert_eq!(warm.incremental.dirty_roots, 0);
    assert_eq!(warm.incremental.clean_roots, warm.incremental.roots);
    assert_eq!(warm.report.to_json(), cold.report.to_json());
    // Replayed roots do no exploration work.
    assert_eq!(warm.stats.paths_explored, cold.stats.paths_explored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_is_byte_stable_across_identical_runs() {
    let dir = tempdir("stable");
    let store = dir.join("store.json");
    run(&store, 1, CORPUS);
    let first = std::fs::read_to_string(&store).unwrap();
    run(&store, 1, CORPUS);
    let second = std::fs::read_to_string(&store).unwrap();
    assert_eq!(first, second, "idempotent runs rewrite identical bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_function_dirties_only_its_root() {
    let dir = tempdir("incremental");
    let store = dir.join("store.json");
    run(&store, 1, CORPUS);

    // Append a new file with one new root; existing files untouched, so
    // their functions keep their fingerprints.
    let mut grown: Vec<(&str, &str)> = CORPUS.to_vec();
    grown.push((
        "drivers/tty.c",
        "int tty_probe(int *q) { if (q == NULL) { } return *q; }",
    ));
    let out = run(&store, 1, &grown);
    assert!(out.incremental.warm_start);
    assert_eq!(out.incremental.roots, 4);
    assert_eq!(out.incremental.dirty_roots, 1);
    assert_eq!(out.incremental.clean_roots, 3);
    assert_eq!(out.incremental.changed_functions, 1);

    // The incremental report equals a from-scratch analysis of the same
    // sources.
    let scratch_dir = tempdir("incremental-scratch");
    let scratch = run(&scratch_dir.join("store.json"), 1, &grown);
    assert_eq!(out.report.to_json(), scratch.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch_dir);
}

#[test]
fn corrupted_store_is_a_clean_cold_start() {
    let dir = tempdir("corrupt");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);

    let nested = "[".repeat(100_000);
    for garbage in [
        "not json at all",
        "{\"schema_version\": 1", // truncated document
        "{}",                     // missing fields
        "{\"schema_version\": 1, \"roots\": \"what\"}",
        &nested, // deeper than the JSON reader's nesting limit
    ] {
        std::fs::write(&store, garbage).unwrap();
        let out = run(&store, 1, CORPUS);
        assert!(!out.incremental.warm_start, "garbage store must be ignored");
        assert_eq!(out.report.to_json(), cold.report.to_json());
        // The bad store was replaced by a fresh valid one.
        let rewritten = std::fs::read_to_string(&store).unwrap();
        assert!(rewritten.contains("\"schema_version\""));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_store_is_a_clean_cold_start() {
    let dir = tempdir("truncate");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    let full = std::fs::read_to_string(&store).unwrap();
    // Cut the document at several points, including mid-escape territory.
    for frac in [1, 3, 7] {
        let cut = full.len() * frac / 8;
        std::fs::write(&store, &full[..cut]).unwrap();
        let out = run(&store, 1, CORPUS);
        assert!(!out.incremental.warm_start, "truncated at {cut} bytes");
        assert_eq!(out.report.to_json(), cold.report.to_json());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_version_mismatch_invalidates_cleanly() {
    let dir = tempdir("schema");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    let text = std::fs::read_to_string(&store).unwrap();
    let old = format!("\"schema_version\": {STORE_SCHEMA_VERSION}");
    assert!(text.contains(&old), "store carries its schema version");
    std::fs::write(
        &store,
        text.replace(
            &old,
            &format!("\"schema_version\": {}", STORE_SCHEMA_VERSION + 1),
        ),
    )
    .unwrap();
    let out = run(&store, 1, CORPUS);
    assert!(!out.incremental.warm_start, "future schema must not load");
    assert_eq!(out.report.to_json(), cold.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_change_invalidates_the_store() {
    let dir = tempdir("config");
    let store = dir.join("store.json");
    run(&store, 1, CORPUS);
    // A verdict-neutral change (thread count) replays the store fine.
    let out = run(&store, 4, CORPUS);
    assert!(out.incremental.warm_start);
    // A verdict-relevant config change (different checker set) must not
    // replay it.
    let changed = AnalysisConfig {
        threads: 1,
        checkers: vec![pata_core::BugKind::MemoryLeak],
        ..AnalysisConfig::default()
    };
    let out = AnalysisSession::open(changed, &store)
        .analyze(&request(CORPUS))
        .unwrap();
    assert!(!out.incremental.warm_start);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reports_identical_across_thread_counts_cold_warm_and_served() {
    let base_dir = tempdir("threads-base");
    let baseline = run(&base_dir.join("store.json"), 1, CORPUS);
    let expected = baseline.report.to_json();

    for threads in [1, 2, 4] {
        let dir = tempdir(&format!("threads-{threads}"));
        let store = dir.join("store.json");
        let cold = run(&store, threads, CORPUS);
        assert_eq!(cold.report.to_json(), expected, "cold, {threads} threads");
        let warm = run(&store, threads, CORPUS);
        assert_eq!(warm.report.to_json(), expected, "warm, {threads} threads");
        assert_eq!(warm.incremental.dirty_roots, 0);

        // Served through the NDJSON loop (what the daemon runs), same
        // store, the embedded report must be the same document.
        let mut session = AnalysisSession::open(config(threads), &store);
        let files = CORPUS
            .iter()
            .map(|(name, text)| {
                format!(
                    "{{\"name\": {}, \"text\": {}}}",
                    pata_core::json::quote(name),
                    pata_core::json::quote(text)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let input = format!("{{\"id\": 1, \"op\": \"analyze\", \"files\": [{files}]}}\n");
        let mut out = Vec::new();
        pata_core::serve_loop(&mut session, input.as_bytes(), &mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        let doc = pata_core::json::JsonValue::parse(line.trim()).unwrap();
        // The daemon embeds the canonical report document verbatim, so the
        // exact bytes of the cold report must appear in the response.
        let report_start = line.find("\"report\": ").unwrap() + "\"report\": ".len();
        assert!(
            line[report_start..].starts_with(&expected),
            "served, {threads} threads"
        );
        assert_eq!(
            doc.get("serve")
                .and_then(|s| s.get("dirty_roots"))
                .and_then(|v| v.as_u64()),
            Some(0),
            "served warm, {threads} threads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn validation_verdicts_survive_restart() {
    let dir = tempdir("verdicts");
    let store = dir.join("store.json");
    run(&store, 1, CORPUS);
    let text = std::fs::read_to_string(&store).unwrap();
    assert!(
        text.contains("\"validation\""),
        "store persists the validation cache"
    );
    // A warm session that re-validates (dirty root sharing constraints)
    // starts with the imported verdicts.
    let session = AnalysisSession::open(config(1), &store);
    assert!(
        !session.validation_cache().export().is_empty(),
        "verdicts imported on open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The outcome's statistics minus what legitimately differs between a
/// warm and a cold run: wall-clock time, and the stage-2 cache counters
/// (a warm session starts with the store's verdicts).
fn counters(out: &SessionOutcome) -> pata_core::AnalysisStats {
    pata_core::AnalysisStats {
        time: std::time::Duration::ZERO,
        validation_cache_hits: 0,
        validation_cache_misses: 0,
        validation_scope_reuse: 0,
        ..out.stats.clone()
    }
}

#[test]
fn struct_only_edit_matches_a_cold_run() {
    // Regression: a struct layout reaches the alias-unaware constraint
    // counts of every function holding a pointer to it, so growing the
    // struct on its existing line must dirty those roots.
    const BEFORE: &str = "struct dev { int *res; int len; };\n\
        int net_probe(struct dev *d) {\n\
            struct dev *e = d;\n\
            if (e->res == NULL) { }\n\
            return *d->res;\n\
        }\n";
    let after = BEFORE.replace("int len; };", "int len; int irq; int dma; };");
    let dir = tempdir("struct-only");
    let store = dir.join("store.json");
    let first = run(&store, 1, &[("drivers/net.c", BEFORE)]);
    let warm = run(&store, 1, &[("drivers/net.c", &after)]);
    let cold = AnalysisSession::new(config(1))
        .analyze(&request(&[("drivers/net.c", &after)]))
        .unwrap();
    assert!(warm.incremental.warm_start);
    assert_eq!(
        warm.incremental.dirty_roots, 1,
        "struct edit dirties the root"
    );
    assert_ne!(
        counters(&first).constraints_unaware,
        counters(&cold).constraints_unaware,
        "the edit must matter to the counters for this test to bite"
    );
    assert_eq!(counters(&warm), counters(&cold));
    assert_eq!(warm.report.to_json(), cold.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn earlier_edit_leaves_later_report_strings_alone() {
    // `fold` reports an alias path through an index variable. An added
    // local in an earlier file renumbers all of fold's variables; its
    // report must still read the same, warm or cold.
    const FOLD: &str = "struct dev { int count; };\n\
        int fold(struct dev *d, int i) {\n\
            int *buf = kmalloc(32);\n\
            if (buf == NULL) {\n\
                return -1;\n\
            }\n\
            buf[i + 1] = d->count;\n\
            int j = i + 1;\n\
            int v = buf[j];\n\
            kfree(buf);\n\
            return v;\n\
        }\n";
    const EARLY: &str = "int early(int x) {\n    return x;\n}\n";
    let early_edited = EARLY.replace("return x;", "int y = 1; return x + y;");
    let dir = tempdir("index-names");
    let store = dir.join("store.json");
    let before = run(&store, 1, &[("a.c", EARLY), ("b.c", FOLD)]);
    let warm = run(&store, 1, &[("a.c", &early_edited), ("b.c", FOLD)]);
    let cold = AnalysisSession::new(config(1))
        .analyze(&request(&[("a.c", &early_edited), ("b.c", FOLD)]))
        .unwrap();
    assert_eq!(warm.incremental.changed_functions, 1);
    assert_eq!(warm.incremental.dirty_roots, 1, "only `early` re-explores");
    let fold_strings = |out: &SessionOutcome| -> Vec<String> {
        out.report
            .reports
            .iter()
            .filter(|r| r.function == "fold")
            .map(|r| format!("{:?} {}", r.alias_paths, r.message))
            .collect()
    };
    let strings = fold_strings(&before);
    assert!(
        strings.iter().any(|s| s.contains("[fold:j]")),
        "index variable rendered by name: {strings:?}"
    );
    assert_eq!(fold_strings(&warm), strings);
    assert_eq!(fold_strings(&cold), strings);
    assert_eq!(warm.report.to_json(), cold.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}
