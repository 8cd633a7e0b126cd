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

/// A root record carrying fields the reader does not know, such as the
/// retired stage-1 cache counters (`exploration_cache_hits`,
/// `callee_memo_hits`, `insts_replayed`), stays warm: the reader looks up
/// only the fields it knows, so every root is clean and the report is
/// unchanged.
#[test]
fn parent_store_with_cache_counters_stays_warm() {
    let dir = tempdir("parent-counters");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    let text = std::fs::read_to_string(&store).unwrap();
    let key = "\"stats\": [";
    let mut parts = text.split(key);
    let mut old = parts.next().unwrap().to_owned();
    for part in parts {
        let end = part.find(']').expect("stats array closes") + 1;
        old.push_str(key);
        old.push_str(&part[..end]);
        old.push_str(", \"exploration_cache_hits\": 3, \"callee_memo_hits\": 1");
        old.push_str(", \"insts_replayed\": 40");
        old.push_str(&part[end..]);
    }
    assert!(old.contains("\"insts_replayed\": 40"), "counters injected");
    std::fs::write(&store, old).unwrap();

    let warm = run(&store, 1, CORPUS);
    assert!(warm.incremental.warm_start);
    assert_eq!(warm.incremental.clean_roots, warm.incremental.roots);
    assert_eq!(warm.report.to_json(), cold.report.to_json());
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

/// `CORPUS` with `blk_probe`'s second return value set to `-k`: an
/// in-place edit of one root.
fn edited(k: u32) -> Vec<(&'static str, String)> {
    CORPUS
        .iter()
        .map(|&(name, text)| (name, text.replace("return -2;", &format!("return -{k};"))))
        .collect()
}

fn owned_request(files: &[(&'static str, String)]) -> AnalysisRequest {
    files
        .iter()
        .fold(AnalysisRequest::new(), |r, (name, text)| {
            r.file(*name, text)
        })
}

/// The store file's inode, its line count, and the bytes of its base line
/// and of the log after it.
fn store_shape(store: &std::path::Path) -> (u64, usize, usize, usize) {
    use std::os::unix::fs::MetadataExt;
    let text = std::fs::read_to_string(store).unwrap();
    let base = text.find('\n').expect("a base line") + 1;
    let ino = std::fs::metadata(store).unwrap().ino();
    (ino, text.lines().count(), base, text.len() - base)
}

#[test]
fn edits_append_until_the_log_outgrows_the_base() {
    let dir = tempdir("compaction");
    let store = dir.join("store.json");
    let mut session = AnalysisSession::open(config(1), &store);
    session.analyze(&request(CORPUS)).unwrap();
    let (mut ino, mut lines, _, _) = store_shape(&store);
    assert_eq!(lines, 1, "the first save writes the base alone");
    let (mut appends, mut compactions) = (0, 0);
    for k in 3..15 {
        let files = edited(k);
        let out = session.analyze(&owned_request(&files)).unwrap();
        assert_eq!(out.incremental.dirty_roots, 1);
        let (now_ino, now_lines, base, log) = store_shape(&store);
        if now_ino == ino {
            assert_eq!(now_lines, lines + 1, "k={k}: one delta line appended");
            appends += 1;
        } else {
            assert_eq!(now_lines, 1, "k={k}: a rewrite compacts the log");
            assert!(appends > 0, "k={k}: compaction follows appends");
            compactions += 1;
        }
        assert!(log <= base, "k={k}: the log never outgrows the base");
        (ino, lines) = (now_ino, now_lines);

        // A restart replays every root from the log.
        let replay = AnalysisSession::open(config(1), &store)
            .analyze(&owned_request(&files))
            .unwrap();
        assert!(replay.incremental.warm_start, "k={k}");
        assert_eq!(replay.incremental.dirty_roots, 0, "k={k}");
        assert_eq!(replay.report.to_json(), out.report.to_json(), "k={k}");
    }
    assert!(
        appends >= 4 && compactions >= 2,
        "{appends} appends, {compactions} compactions"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_or_bad_log_line_is_a_clean_cold_start() {
    let dir = tempdir("torn");
    let store = dir.join("store.json");
    run(&store, 1, CORPUS);
    let files = edited(7);
    let served = AnalysisSession::open(config(1), &store)
        .analyze(&owned_request(&files))
        .unwrap();
    let text = std::fs::read_to_string(&store).unwrap();
    assert_eq!(text.lines().count(), 2, "the edit appended a delta line");
    let base = &text[..text.find('\n').unwrap() + 1];
    let no_op = "{\"files\": [], \"functions\": [], \"roots\": [], \"validation\": []}\n";
    let unknown = "{\"files\": [], \"functions\": [[999, \"1\", 0]], \"roots\": [], \
                   \"validation\": []}\n";
    for (case, damaged, warm) in [
        ("no final newline", text[..text.len() - 1].to_owned(), false),
        ("torn delta", text[..base.len() + 20].to_owned(), false),
        ("bad line", format!("{text}{{}}\n"), false),
        ("unknown function", format!("{text}{unknown}"), false),
        ("blank line", format!("{base}\n"), false),
        (
            "a delta that changes nothing",
            format!("{text}{no_op}"),
            true,
        ),
    ] {
        std::fs::write(&store, &damaged).unwrap();
        let out = AnalysisSession::open(config(1), &store)
            .analyze(&owned_request(&files))
            .unwrap();
        assert_eq!(out.incremental.warm_start, warm, "{case}");
        assert_eq!(out.report.to_json(), served.report.to_json(), "{case}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The index of the function `name` in a store's function table.
fn function_index(base: &str, name: &str) -> usize {
    let doc = pata_core::json::JsonValue::parse(base).expect("a base line");
    let table = doc.get("functions").and_then(|t| t.as_array()).unwrap();
    table
        .iter()
        .position(|entry| entry.as_array().unwrap()[0].as_str() == Some(name))
        .expect("the function has an entry")
}

/// The record of the root with function index `root` in a store's base
/// line: from its `{"root"` to the brace that closes it, before the next
/// record or the verdicts.
fn record_span(base: &str, root: usize) -> std::ops::Range<usize> {
    let start = base
        .find(&format!("{{\"root\": {root}, "))
        .expect("the root has a record");
    let end = [
        base[start..].find("}, {\"root\": "),
        base[start..].find("}], \"validation\""),
    ]
    .into_iter()
    .flatten()
    .min()
    .expect("the record closes");
    start..start + end + 1
}

/// `text` with the text word of `file` in its file table zeroed: the
/// tree no longer matches the store, so a restart compiles it.
fn with_stale_word(text: &str, file: &str) -> String {
    let entry = text
        .find(&format!("[\"{file}\", "))
        .expect("the file has an entry");
    let word = entry + text[entry..].find(']').unwrap() - 17;
    format!("{}{}{}", &text[..word], "0".repeat(16), &text[word + 16..])
}

/// A clean root whose record no longer resolves against the module — a
/// candidate's block is past its function's last, or its function is gone
/// — is re-explored alone: the other roots replay their records, the
/// report is the cold one, and the fresh record is written back, so the
/// next restart serves every root from its record. A file's stale text
/// word keeps each damaged store from serving the tree without compiling
/// it. With a block out of range the save appends the fresh record; with
/// a function the module lacks the function table changed, so the save
/// rewrites the cold run's store.
#[test]
fn a_record_that_does_not_resolve_dirties_only_its_root() {
    let dir = tempdir("unresolved");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    let text = std::fs::read_to_string(&store).unwrap();
    let net_probe = function_index(&text, "net_probe");
    let record = record_span(&text, net_probe);
    let original = &text[record.clone()];
    assert!(
        original.contains("\"candidates\": [{"),
        "net_probe has a candidate"
    );
    let block = original
        .find("\"block\": ")
        .expect("a candidate instruction")
        + 9;
    let digits = original[block..].find(',').unwrap();
    let at = |pattern: &str, by: &str| {
        let i = original
            .find(pattern)
            .expect("the record holds the pattern");
        let mut rewritten = original.to_owned();
        rewritten.replace_range(i..i + pattern.len(), by);
        rewritten
    };
    // The function table is in the module's order: `chr_probe` is last.
    let functions = function_index(&text, "chr_probe") + 1;
    for (case, rewritten, appends) in [
        (
            "block out of range",
            at(&original[block - 9..block + digits], "\"block\": 999"),
            true,
        ),
        (
            "function the module lacks",
            at(
                &format!("\"func\": {net_probe}, "),
                &format!("\"func\": {functions}, "),
            ),
            false,
        ),
    ] {
        assert_ne!(rewritten, original, "{case}: the record changed");
        let mut damaged = with_stale_word(&text, "drivers/block.c");
        damaged.replace_range(record.clone(), &rewritten);
        if !appends {
            damaged = damaged.replacen(
                "]], \"roots\": [",
                "], [\"no_such_function\", \"0000000000000001\", 0]], \"roots\": [",
                1,
            );
        }
        std::fs::write(&store, &damaged).unwrap();
        let out = run(&store, 1, CORPUS);
        assert!(out.incremental.warm_start, "{case}");
        assert_eq!(out.incremental.dirty_roots, 1, "{case}");
        assert_eq!(out.incremental.clean_roots, 2, "{case}");
        assert_eq!(out.report.to_json(), cold.report.to_json(), "{case}");
        let written = std::fs::read_to_string(&store).unwrap();
        if appends {
            // The save appends the re-explored root's fresh record and the
            // file's true entry.
            let delta = written.strip_prefix(&damaged).expect("the save appended");
            assert!(delta.contains(original), "{case}: the fresh record");
        } else {
            assert_eq!(written, text, "{case}: the cold run's store");
        }
        let again = run(&store, 1, CORPUS);
        assert_eq!(again.incremental.dirty_roots, 0, "{case}");
        assert_eq!(again.incremental.parsed_files, 0, "{case}");
        assert_eq!(again.report.to_json(), cold.report.to_json(), "{case}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store the previous schema wrote (version 3, whose header carries a
/// corpus fingerprint) is a clean cold start, and is replaced.
#[test]
fn schema_three_store_is_a_clean_cold_start() {
    let dir = tempdir("schema-three");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    let text = std::fs::read_to_string(&store).unwrap();
    let parent = text.replace(
        &format!("\"schema_version\": {STORE_SCHEMA_VERSION}"),
        "\"schema_version\": 3",
    );
    let parent = parent.replace(
        ", \"functions\": ",
        ", \"corpus_fingerprint\": \"5fb1ca4392dda36b\", \"functions\": ",
    );
    assert!(parent.contains("\"corpus_fingerprint\""));
    std::fs::write(&store, &parent).unwrap();
    let out = run(&store, 1, CORPUS);
    assert!(!out.incremental.warm_start);
    assert_eq!(out.report.to_json(), cold.report.to_json());
    assert_eq!(std::fs::read_to_string(&store).unwrap(), text, "rewritten");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store schema 4 wrote (each candidate with an `origin_loc` and a
/// `site_loc` object) is a clean cold start, and is replaced: the reader
/// would skip the two keys, so only the version refuses it.
#[test]
fn schema_four_store_is_a_clean_cold_start() {
    let dir = tempdir("schema-four");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    let text = std::fs::read_to_string(&store).unwrap();
    let loc = "{\"file\": \"drivers/net.c\", \"line\": 4}";
    let parent = text
        .replace(
            &format!("\"schema_version\": {STORE_SCHEMA_VERSION}"),
            "\"schema_version\": 4",
        )
        .replace(
            ", \"site\": ",
            &format!(", \"origin_loc\": {loc}, \"site\": "),
        )
        .replace(
            ", \"constraints\": ",
            &format!(", \"site_loc\": {loc}, \"constraints\": "),
        );
    assert!(parent.contains("\"origin_loc\"") && parent.contains("\"site_loc\""));
    std::fs::write(&store, &parent).unwrap();
    let out = run(&store, 1, CORPUS);
    assert!(!out.incremental.warm_start);
    assert_eq!(out.report.to_json(), cold.report.to_json());
    assert_eq!(std::fs::read_to_string(&store).unwrap(), text, "rewritten");

    // The same records under the current version load warm.
    let current = parent.replace(
        "\"schema_version\": 4",
        &format!("\"schema_version\": {STORE_SCHEMA_VERSION}"),
    );
    std::fs::write(&store, &current).unwrap();
    let out = run(&store, 1, CORPUS);
    assert!(out.incremental.warm_start);
    assert_eq!(out.incremental.dirty_roots, 0);
    assert_eq!(out.report.to_json(), cold.report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A root with one `NULL` check and six branches before the dereference:
/// 128 paths reach the dereference, the explorer keeps four candidates of
/// the bug and drops the other 60 as repeated.
const SIX_BRANCHES: &str = "struct dev { int *res; };\n\
    int six_probe(struct dev *d, int a0, int a1, int a2, int a3, int a4, int a5) {\n\
        int acc = 0;\n\
        if (d->res == NULL) { acc = 1; }\n\
        if (a0 > 10) { acc = acc + 1; }\n\
        if (a1 > 20) { acc = acc + 2; }\n\
        if (a2 > 30) { acc = acc + 3; }\n\
        if (a3 > 40) { acc = acc + 4; }\n\
        if (a4 > 50) { acc = acc + 5; }\n\
        if (a5 > 60) { acc = acc + 6; }\n\
        return *d->res + acc;\n\
    }\n";

/// A session reopened over a store gives the statistics of the cold run
/// that wrote it, every counter included: a root record keeps the
/// explorer's repeated-bug drops, and its candidate count follows from its
/// candidates.
#[test]
fn a_restart_reports_the_statistics_of_the_run_that_wrote_the_store() {
    let linux: Vec<(String, String)> =
        pata_corpus::Corpus::generate(&pata_corpus::OsProfile::linux().with_scale(0.2))
            .files
            .into_iter()
            .map(|f| (f.path, f.text))
            .collect();
    let inputs = [
        ("six branches", request(&[("six.c", SIX_BRANCHES)])),
        (
            "linux 0.2",
            linux
                .iter()
                .fold(AnalysisRequest::new(), |r, (name, text)| r.file(name, text)),
        ),
    ];
    for (what, request) in inputs {
        let dir = tempdir("restart-stats");
        let store = dir.join("store.json");
        let cold = AnalysisSession::open(config(1), &store)
            .analyze(&request)
            .unwrap();
        let warm = AnalysisSession::open(config(1), &store)
            .analyze(&request)
            .unwrap();
        assert!(!cold.incremental.warm_start, "{what}");
        assert_eq!(warm.incremental.dirty_roots, 0, "{what}");
        assert!(
            cold.stats.repeated_bugs_dropped > 0,
            "{what}: drops to keep"
        );
        assert_eq!(counters(&warm), counters(&cold), "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `config(1)` with the fault plan `plan`.
fn config_with_plan(plan: &str) -> AnalysisConfig {
    let plan = pata_core::FaultPlan::parse(plan).expect("a valid plan");
    AnalysisConfig::builder()
        .threads(1)
        .fault_plan(std::sync::Arc::new(plan))
        .build()
        .expect("a valid config")
}

/// A restart whose files are not, name for name and text for text, the
/// tree the store was saved from compiles them, and gives the report of a
/// cold run of the same files. So does a restart over a store that lacks
/// a root's record because a fault quarantined it.
#[test]
fn a_restart_over_another_tree_compiles_it() {
    // Two files of one name and one length, which differ in one byte.
    let twin = |c: char| format!("int twin_{c}(int *p) {{ if (p == NULL) {{ }} return *p; }}\n");
    let (twin_f, twin_g) = (twin('f'), twin('g'));
    let twins: Vec<(&str, &str)> = vec![("drivers/twin.c", &twin_f), ("drivers/twin.c", &twin_g)];
    let same_length = CORPUS[1].1.replace("return -2;", "return -3;");
    assert_eq!(same_length.len(), CORPUS[1].1.len());
    let mut byte = CORPUS.to_vec();
    byte[1].1 = &same_length;
    let mut swapped = CORPUS.to_vec();
    swapped.swap(0, 1);
    let mut added = CORPUS.to_vec();
    added.push((
        "drivers/tty.c",
        "int tty_probe(int *q) { if (q == NULL) { } return *q; }",
    ));
    let dropped = CORPUS[..2].to_vec();
    let twins_swapped: Vec<(&str, &str)> = twins.iter().rev().copied().collect();
    let healthy = config(1);
    let quarantine = config_with_plan("explore:net_probe@1");
    for (case, saved, restarted, config) in [
        (
            "one byte changed at the same length",
            CORPUS,
            &byte[..],
            &healthy,
        ),
        ("two files swapped", CORPUS, &swapped, &healthy),
        (
            "two files with the same name",
            &twins,
            &twins_swapped,
            &healthy,
        ),
        ("a file added", CORPUS, &added, &healthy),
        ("a file dropped", CORPUS, &dropped, &healthy),
        ("a quarantined root", CORPUS, CORPUS, &quarantine),
    ] {
        let dir = tempdir("another-tree");
        let store = dir.join("store.json");
        AnalysisSession::open(config.clone(), &store)
            .analyze(&request(saved))
            .unwrap();
        let out = AnalysisSession::open(config.clone(), &store)
            .analyze(&request(restarted))
            .unwrap();
        let cold = AnalysisSession::new(config.clone())
            .analyze(&request(restarted))
            .unwrap();
        assert!(out.incremental.warm_start, "{case}");
        assert!(out.incremental.parsed_files > 0, "{case}: parsed");
        assert!(out.incremental.lowered_functions > 0, "{case}: lowered");
        assert_eq!(out.report.to_json(), cold.report.to_json(), "{case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A demoted root's record replays its demotion on a restart served from
/// the store's records: the report's `degraded` entry is the cold run's.
#[test]
fn a_restart_served_from_records_replays_a_demotion() {
    let dir = tempdir("demoted");
    let store = dir.join("store.json");
    let config = config_with_plan("deadline:net_probe@1");
    let cold = AnalysisSession::open(config.clone(), &store)
        .analyze(&request(CORPUS))
        .unwrap();
    assert_eq!(cold.report.degraded.len(), 1, "net_probe is demoted");
    assert_eq!(cold.report.degraded[0].action, "demoted");
    let out = AnalysisSession::open(config, &store)
        .analyze(&request(CORPUS))
        .unwrap();
    assert_eq!(
        (
            out.incremental.parsed_files,
            out.incremental.lowered_functions
        ),
        (0, 0),
        "served from the records"
    );
    assert_eq!(out.report.degraded, cold.report.degraded);
    assert_eq!(out.report.to_json(), cold.report.to_json());
    assert_eq!(counters(&out), counters(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store an older schema wrote is a clean cold start, and is replaced
/// by the current store: schema 5's (no root count or file table, the
/// function database as one `{name: "fp hex"}` object) and schema 6's
/// (file entries as objects with four keys).
#[test]
fn schema_five_store_is_a_clean_cold_start() {
    let dir = tempdir("schema-five");
    let store = dir.join("store.json");
    let cold = run(&store, 1, CORPUS);
    let text = std::fs::read_to_string(&store).unwrap();
    let doc = pata_core::json::JsonValue::parse(text.trim_end()).unwrap();
    let table = |key: &str| doc.get(key).and_then(|t| t.as_array()).unwrap();
    let version = format!("\"schema_version\": {STORE_SCHEMA_VERSION}");
    let entries: Vec<String> = table("functions")
        .iter()
        .map(|entry| {
            let entry = entry.as_array().unwrap();
            let (name, fp) = (entry[0].as_str().unwrap(), entry[1].as_str().unwrap());
            format!("\"{name}\": \"{fp}\"")
        })
        .collect();
    let header_end = text.find(", \"root_count\": ").unwrap();
    let roots = text.find(", \"roots\": ").unwrap();
    let five = format!(
        "{}, \"functions\": {{{}}}{}",
        &text[..header_end],
        entries.join(", "),
        &text[roots..]
    )
    .replace(&version, "\"schema_version\": 5");
    assert!(!five.contains("\"files\"") && five.contains("\"functions\": {\""));
    let files: Vec<String> = table("files")
        .iter()
        .map(|entry| match entry.as_array().unwrap() {
            [name, bytes, lines, word] => format!(
                "{{\"name\": \"{}\", \"bytes\": {}, \"lines\": {}, \"word\": \"{}\"}}",
                name.as_str().unwrap(),
                bytes.as_u64().unwrap(),
                lines.as_u64().unwrap(),
                word.as_str().unwrap()
            ),
            other => panic!("a file entry of {} items", other.len()),
        })
        .collect();
    let files_at = text.find("\"files\": [").unwrap();
    let functions = text.find(", \"functions\": ").unwrap();
    let six = format!(
        "{}\"files\": [{}]{}",
        &text[..files_at],
        files.join(", "),
        &text[functions..]
    )
    .replace(&version, "\"schema_version\": 6");
    for older in [five, six] {
        std::fs::write(&store, &older).unwrap();
        let out = run(&store, 1, CORPUS);
        assert!(!out.incremental.warm_start);
        assert_eq!(out.report.to_json(), cold.report.to_json());
        assert_eq!(std::fs::read_to_string(&store).unwrap(), text, "rewritten");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
