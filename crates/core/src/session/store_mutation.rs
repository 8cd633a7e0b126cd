//! The one-pass store reader accepts exactly what the tree-based reader it
//! replaced accepted. A seeded splitmix64 run mutates a real store file
//! (a base line and delta lines) and checks three things: no
//! mutation panics or overflows the stack; both readers give an equal
//! [`Store`], or both give `None`; and a session opened over a mutated
//! file that keeps the store's meaning warm-starts, serves the unchanged
//! tree from its records and renders the cold run's report. Targeted
//! cases then break the file table, the function table and the candidate
//! lines of the base and of a delta.

use super::exactness::{edit_function, recorded_roots, request, Edit};
use super::*;
use crate::json::{quote, JsonValue};
use crate::persist::tree_reader;
use pata_corpus::{Corpus, OsProfile, Prng};

/// How a line is rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Every object's keys in a seeded order.
    Reorder,
    /// Unknown keys with well-formed values, some nested 100 deep.
    Unknown,
    /// A second copy of a key, with another value, after the first.
    DuplicateAfter,
    /// A second copy of a key, with another value, before the first.
    DuplicateBefore,
    /// Strings, keys included, with characters written as escapes.
    Escape,
    /// Integers out of their range, negative, or written as floats.
    Numbers,
    /// Arrays with an item more or one fewer.
    Items,
    /// Terms with the keys of another kind of term added, or wrapped in a
    /// negation whose `b` is junk.
    Terms,
}

impl Mutation {
    const ALL: [Mutation; 8] = [
        Mutation::Reorder,
        Mutation::Unknown,
        Mutation::DuplicateAfter,
        Mutation::DuplicateBefore,
        Mutation::Escape,
        Mutation::Numbers,
        Mutation::Items,
        Mutation::Terms,
    ];

    /// Whether the rewritten file means what the original meant.
    fn keeps_meaning(self) -> bool {
        matches!(
            self,
            Mutation::Reorder | Mutation::Unknown | Mutation::DuplicateAfter | Mutation::Escape
        )
    }
}

/// Well-formed values for unknown and duplicate keys.
const JUNK: [&str; 7] = [
    "null",
    "true",
    "-12.5e3",
    "\"junk\\n\"",
    "[1, {\"c\": \"x\"}, []]",
    "{\"root\": 3, \"stats\": {}}",
    "{}",
];

/// Integer spellings that are no `u64` counter, index or line.
const BAD_NUMBERS: [&str; 8] = [
    "9223372036854775808",
    "18446744073709551616",
    "4294967296",
    "-1",
    "1.0",
    "1e3",
    "-0",
    "007",
];

/// How a line is rewritten: the mutation, and one in how many of the
/// places it may touch it does.
#[derive(Debug, Clone, Copy)]
struct Rewrite {
    m: Mutation,
    one_in: usize,
}

impl Rewrite {
    fn fires(self, rng: &mut Prng) -> bool {
        rng.gen_range(0, self.one_in) == 0
    }
}

/// Writes `v` as JSON, rewritten by `w`. The function database is a map,
/// not a record: a key added to it is a function, and the last of two
/// equal names wins, so it gains no unknown or duplicate keys.
fn render(v: &JsonValue, w: Rewrite, rng: &mut Prng, out: &mut String) {
    render_in(v, w, false, rng, out);
}

fn render_in(v: &JsonValue, w: Rewrite, map: bool, rng: &mut Prng, out: &mut String) {
    let m = w.m;
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(_) if m == Mutation::Numbers && w.fires(rng) => {
            out.push_str(*rng.choose(&BAD_NUMBERS));
        }
        JsonValue::Int(i) => out.push_str(&i.to_string()),
        JsonValue::Float(f) => out.push_str(&f.to_string()),
        JsonValue::Str(s) => render_str(s, m, rng, out),
        JsonValue::Arr(items) => {
            let mut written: Vec<String> = items
                .iter()
                .map(|item| {
                    let mut value = String::new();
                    render_in(item, w, false, rng, &mut value);
                    value
                })
                .collect();
            if m == Mutation::Items && w.fires(rng) {
                if written.is_empty() || rng.gen_range(0, 4) != 0 {
                    let copy = match written.first() {
                        Some(first) => first.clone(),
                        None => (*rng.choose(&JUNK)).to_owned(),
                    };
                    written.push(copy);
                } else {
                    written.pop();
                }
            }
            out.push('[');
            out.push_str(&written.join(", "));
            out.push(']');
        }
        JsonValue::Obj(fields)
            if m == Mutation::Terms
                && fields
                    .iter()
                    .any(|(k, _)| matches!(k.as_str(), "c" | "s" | "o"))
                && w.fires(rng) =>
        {
            // The term itself, its subterms included, as it was.
            let mut term = String::new();
            let unchanged = Rewrite {
                one_in: usize::MAX,
                ..w
            };
            render_in(v, unchanged, map, rng, &mut term);
            let term = term.trim_start_matches('{').trim_end_matches('}');
            const KEYS: [&str; 6] = [
                "\"b\": {\"c\": 1}",
                "\"s\": 2",
                "\"c\": 3",
                "\"o\": \"neg\"",
                "\"a\": {\"s\": 4}",
                "\"b\": [null]",
            ];
            if rng.gen_range(0, 3) == 0 {
                let junk = rng.choose(&JUNK);
                out.push_str(&format!(
                    "{{\"o\": \"neg\", \"a\": {{{term}}}, \"b\": {junk}}}"
                ));
            } else if rng.gen_range(0, 2) == 0 {
                out.push_str(&format!("{{{}, {term}}}", rng.choose(&KEYS)));
            } else {
                out.push_str(&format!("{{{term}, {}}}", rng.choose(&KEYS)));
            }
        }
        JsonValue::Obj(fields) => {
            // Each field as (key, rendered value).
            let mut written: Vec<(String, String)> = fields
                .iter()
                .map(|(k, v)| {
                    let mut value = String::new();
                    render_in(v, w, k == "functions", rng, &mut value);
                    (k.clone(), value)
                })
                .collect();
            match m {
                Mutation::Reorder => rng.shuffle(&mut written),
                Mutation::Unknown if !map && w.fires(rng) => {
                    let value = if rng.gen_range(0, 8) == 0 {
                        format!("{}1{}", "[".repeat(100), "]".repeat(100))
                    } else {
                        (*rng.choose(&JUNK)).to_owned()
                    };
                    let at = rng.gen_range(0, written.len() + 1);
                    written.insert(at, (format!("zz_{at}"), value));
                }
                Mutation::DuplicateAfter | Mutation::DuplicateBefore
                    if !map && !written.is_empty() && w.fires(rng) =>
                {
                    let at = rng.gen_range(0, written.len());
                    let copy = (written[at].0.clone(), (*rng.choose(&JUNK)).to_owned());
                    let before = m == Mutation::DuplicateBefore;
                    written.insert(if before { at } else { at + 1 }, copy);
                }
                _ => {}
            }
            out.push('{');
            for (i, (key, value)) in written.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_str(key, m, rng, out);
                out.push_str(": ");
                out.push_str(value);
            }
            out.push('}');
        }
    }
}

fn render_str(s: &str, m: Mutation, rng: &mut Prng, out: &mut String) {
    if m != Mutation::Escape {
        out.push_str(&quote(s));
        return;
    }
    out.push('"');
    for c in s.chars() {
        match c {
            '/' if rng.gen_range(0, 2) == 0 => out.push_str("\\/"),
            c if (c as u32) < 0x10000 && rng.gen_range(0, 3) == 0 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => {
                let quoted = quote(&c.to_string());
                out.push_str(&quoted[1..quoted.len() - 1]);
            }
        }
    }
    out.push('"');
}

/// Every line of `text` rewritten by `w`.
fn mutate_lines(text: &str, w: Rewrite, rng: &mut Prng) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let tree = JsonValue::parse(line).expect("a store line is JSON");
        render(&tree, w, rng, &mut out);
        out.push('\n');
    }
    out
}

/// Both readers over `text`; they must agree.
fn read_both(text: &str, fp: u64, what: &str) -> Option<Store> {
    let new = Store::parse_file(text, fp);
    let old = tree_reader::parse_file(text, fp);
    assert_eq!(new, old, "{what}: the readers disagree");
    let base = text.split('\n').next().unwrap_or_default();
    assert_eq!(
        Store::parse(base, fp),
        tree_reader::parse(base, fp),
        "{what}: the readers disagree on the base line"
    );
    new.map(|(store, _)| store)
}

#[test]
fn one_pass_reader_matches_the_tree_reader_under_mutation() {
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(0.2));
    let mut files: Vec<(String, String)> = corpus
        .files
        .iter()
        .map(|f| (f.path.clone(), f.text.clone()))
        .collect();
    let dir = std::env::temp_dir().join(format!("pata-store-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };

    // A real store: a cold run, then three in-place edits, each appending
    // one delta line.
    let mut session = AnalysisSession::open(config.clone(), &path);
    session.analyze(&request(&files)).expect("analyzes");
    let mut rng = Prng::seed_from_u64(0x5707e);
    for (i, kind) in [Edit::Const, Edit::Stmt, Edit::Local]
        .into_iter()
        .enumerate()
    {
        let roots = recorded_roots(&session);
        while !edit_function(&mut files, kind, i, &mut rng, &roots) {}
        session.analyze(&request(&files)).expect("analyzes");
    }
    let fp = session.config_fp;
    drop(session);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 4, "a base line and three deltas");
    assert!(text.contains("{\"o\": "), "the store holds compound terms");
    let original = read_both(&text, fp, "the store as written").expect("loads");

    let cold = AnalysisSession::new(config.clone())
        .analyze(&request(&files))
        .expect("analyzes")
        .report
        .to_json();
    let mutated = dir.join("mutated.json");
    // A store of the final tree is served from its records; an earlier
    // one compiles the tree.
    let warm_report = |text: &str, what: &str| {
        std::fs::write(&mutated, text).unwrap();
        let mut session = AnalysisSession::open(config.clone(), &mutated);
        let out = session.analyze(&request(&files)).expect("analyzes");
        assert!(out.incremental.warm_start, "{what}: warm start");
        let served = out.incremental.parsed_files == 0;
        let final_tree = tree_reader::parse_file(text, fp).is_some_and(|(s, _)| s == original);
        assert_eq!(served, final_tree, "{what}: served from the records");
        assert_eq!(out.report.to_json(), cold, "{what}: the cold run's report");
    };
    warm_report(&text, "the store as written");

    // Cuts at every 1/64 of the file; a cut just after a line is the store
    // as an earlier save left it.
    for i in 1..64 {
        let mut cut = text.len() * i / 64;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        read_both(&text[..cut], fp, &format!("cut at {cut}"));
    }
    let mut line_end = 0;
    for line in text.lines() {
        line_end += line.len() + 1;
        let earlier = &text[..line_end];
        let what = format!("cut after byte {line_end}");
        assert!(read_both(earlier, fp, &what).is_some(), "{what}");
        warm_report(earlier, &what);
    }

    // Byte flips to JSON punctuation, digits and letters.
    const FLIPS: &[u8] = b"{}[]\":, -+.0123456789abcdefnrtuxz\\\n";
    let ascii: Vec<usize> = (0..text.len())
        .filter(|&i| text.as_bytes()[i].is_ascii())
        .collect();
    for flip in 0..400 {
        let at = *rng.choose(&ascii);
        let mut bytes = text.clone().into_bytes();
        bytes[at] = *rng.choose(FLIPS);
        let flipped = String::from_utf8(bytes).expect("an ASCII flip keeps UTF-8");
        let what = format!("flip {flip} at {at}");
        if read_both(&flipped, fp, &what).as_ref() == Some(&original) {
            // A flip in whitespace, say: the store still means the same.
            if flip % 20 == 0 {
                warm_report(&flipped, &what);
            }
        }
    }

    // Rewrites of every line.
    for m in Mutation::ALL {
        for round in 0..18 {
            let one_in = [2, 20, 200, 2_000, 20_000, 200_000][round % 6];
            let rewritten = mutate_lines(&text, Rewrite { m, one_in }, &mut rng);
            let what = format!("{m:?} round {round}");
            let store = read_both(&rewritten, fp, &what);
            if m.keeps_meaning() {
                assert_eq!(store.as_ref(), Some(&original), "{what}");
                if round == 0 {
                    warm_report(&rewritten, &what);
                }
            }
        }
    }

    // Nesting 100,000 deep, in an unknown key and in a term: refused, on
    // the test thread's own stack.
    let deep = 100_000;
    let in_key = text.replacen(
        "{",
        &format!("{{\"zz\": {}1{}, ", "[".repeat(deep), "]".repeat(deep)),
        1,
    );
    assert!(read_both(&in_key, fp, "deep unknown key").is_none());
    let at = text.find("{\"c\": ").expect("the store holds a constant");
    let end = at + text[at..].find('}').expect("the constant closes") + 1;
    let in_term = format!(
        "{}{}{}{}{}",
        &text[..at],
        "{\"o\": \"neg\", \"a\": ".repeat(deep),
        &text[at..end],
        "}".repeat(deep),
        &text[end..]
    );
    assert!(read_both(&in_term, fp, "deep term").is_none());

    // A record with a counter more or one fewer.
    let stats = text.find("\"stats\": [").expect("a record") + "\"stats\": [".len();
    for (what, file) in [
        (
            "eight counters",
            format!("{}0, {}", &text[..stats], &text[stats..]),
        ),
        ("six counters", text.replacen(", 0]", "]", 1)),
    ] {
        assert_ne!(file, text, "{what}: the record changed");
        assert!(read_both(&file, fp, what).is_none(), "{what}");
    }

    // Deltas that name a file position, a function or a root the store
    // lacks.
    let lines: Vec<&str> = text.lines().collect();
    let delta = lines[1];
    let insert_after = |key: &str, item: &str| {
        let at = delta.find(key).expect("the delta has the key") + key.len();
        format!("{}{item}, {}", &delta[..at], &delta[at..]).replace(", ]", "]")
    };
    let root_at = delta
        .find("{\"root\": ")
        .expect("the delta replaces a root")
        + 9;
    let digits = delta[root_at..].find(',').expect("the root index ends");
    let unknown_root = format!("{}999999{}", &delta[..root_at], &delta[root_at + digits..]);
    for (what, line) in [
        (
            "file position past the table",
            insert_after("\"files\": [", "[999999, \"x.c\", 1, 1, \"01\"]"),
        ),
        (
            "file entry without a position",
            insert_after("\"files\": [", "[\"x.c\", 1, 1, \"01\"]"),
        ),
        (
            "unknown function",
            insert_after("\"functions\": [", "[999999, \"0000000000000001\", 0]"),
        ),
        (
            "function in a file past the table",
            insert_after("\"functions\": [", "[0, \"0000000000000001\", 999999]"),
        ),
        ("unknown root", unknown_root),
    ] {
        let mut edited = lines.clone();
        edited[1] = &line;
        let file = edited.join("\n") + "\n";
        assert_ne!(file, text, "{what}: the delta changed");
        assert!(read_both(&file, fp, what).is_none(), "{what}");
    }

    // A base whose file table, function table or candidate lines break
    // their shape.
    let base = lines[0];
    let functions = base.find("\"functions\": [[").expect("a function table") + 15;
    let first = functions + base[functions..].find(']').expect("the entry closes");
    let file_index = base[..first].rfind(", ").expect("a file index") + 2;
    let candidate_line = base.find(", \"line\": ").expect("a candidate line") + 10;
    let line_digits = base[candidate_line..].find('}').expect("the line ends");
    let root = base.find("{\"root\": ").expect("a record") + 9;
    let root_digits = base[root..].find(',').expect("the root index ends");
    let splice =
        |at: usize, cut: usize, by: &str| format!("{}{by}{}", &base[..at], &base[at + cut..]);
    let file_table = base.find("\"files\": [[").expect("a file table") + 10;
    let file_end = file_table + base[file_table..].find(']').expect("the entry closes");
    let word = base[..file_end].rfind(", ").expect("a word");
    for (what, rewritten) in [
        (
            "a function entry with a fourth item",
            splice(first, 0, ", 0"),
        ),
        (
            "a function in a file past the table",
            splice(file_index, first - file_index, "999999"),
        ),
        (
            "a line past a u32",
            splice(candidate_line, line_digits, "4294967296"),
        ),
        (
            "a root past the function table",
            splice(root, root_digits, "999999"),
        ),
        (
            "a file entry without a word",
            splice(word, file_end - word, ""),
        ),
        (
            "a file entry with a position",
            splice(file_table + 1, 0, "0, "),
        ),
        (
            "a file entry that is an object",
            splice(file_table, 0, "{\"name\": \"x.c\"}, "),
        ),
    ] {
        assert_ne!(rewritten, base, "{what}: the base changed");
        let file = format!("{rewritten}\n");
        assert!(read_both(&file, fp, what).is_none(), "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
