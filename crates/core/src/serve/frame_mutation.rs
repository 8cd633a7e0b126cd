//! The one-pass frame reader agrees with the tree-based one it replaced
//! ([`super::tree_request`]) on every frame: the same request (the echoed
//! `id`, the `op` and every file's name and text) or the same error at
//! the same byte. The frames are seeded mutations of a real `analyze`
//! frame over a small linux model: reordered, duplicate and unknown keys
//! (some nested deeply), non-string or missing names and texts, texts
//! before names, every escape kind, surrogate pairs and lone surrogates,
//! cuts at every 1/64 of the frame and byte flips. Each is read with and
//! without kept files, so both the escaped-form comparison and plain
//! decoding are checked.

use super::tree_request::{oracle, resolve, Resolved};
use super::*;
use crate::json::{JsonError, JsonValue};
use crate::session::{AnalysisRequest, SourceFile};
use pata_corpus::{Corpus, OsProfile, Prng};

/// One field of a frame under construction: its key and raw JSON value.
type Field = (String, Value);

#[derive(Clone)]
enum Value {
    Raw(String),
    /// The `files` array: each item a list of raw fields, or a raw
    /// non-object value.
    Files(Vec<Item>),
}

#[derive(Clone)]
enum Item {
    Object(Vec<(String, String)>),
    Raw(String),
}

/// Separators between tokens: what a writer usually emits, or any JSON
/// whitespace.
fn gap(rng: &mut Prng, loose: bool) -> &'static str {
    const GAPS: [&str; 5] = ["", " ", "\n", "\t ", "\r\n  "];
    if loose {
        GAPS[rng.gen_range(0, GAPS.len())]
    } else {
        " "
    }
}

fn render(fields: &[Field], rng: &mut Prng, loose: bool) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
            out.push_str(gap(rng, loose));
        }
        out.push_str(key);
        out.push(':');
        out.push_str(gap(rng, loose));
        match value {
            Value::Raw(raw) => out.push_str(raw),
            Value::Files(items) => {
                out.push('[');
                for (j, item) in items.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                        out.push_str(gap(rng, loose));
                    }
                    match item {
                        Item::Raw(raw) => out.push_str(raw),
                        Item::Object(fields) => {
                            out.push('{');
                            for (k, (key, raw)) in fields.iter().enumerate() {
                                if k > 0 {
                                    out.push_str(", ");
                                }
                                out.push_str(key);
                                out.push_str(": ");
                                out.push_str(raw);
                            }
                            out.push('}');
                        }
                    }
                }
                out.push(']');
            }
        }
    }
    out.push('}');
    out
}

/// `s` as a JSON string literal that escapes some of its chars another
/// way: as `\uXXXX` (either case), `\u+XXX` where that fits, `/` as `\/`,
/// and a char outside the Basic Multilingual Plane as a surrogate pair.
fn escape_differently(s: &str, rng: &mut Prng) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let code = c as u32;
        let escaped = rng.gen_range(0, 6) == 0;
        if code > 0xffff {
            if escaped || rng.gen_range(0, 2) == 0 {
                let v = code - 0x10000;
                let (hi, lo) = (0xd800 + (v >> 10), 0xdc00 + (v & 0x3ff));
                out.push_str(&format!("\\u{hi:04X}\\u{lo:04x}"));
            } else {
                out.push(c);
            }
            continue;
        }
        if escaped {
            match rng.gen_range(0, 4) {
                0 if code < 0x1000 => out.push_str(&format!("\\u+{code:03x}")),
                1 => out.push_str(&format!("\\u{code:04X}")),
                2 if c == '/' => out.push_str("\\/"),
                _ => out.push_str(&format!("\\u{code:04x}")),
            }
            continue;
        }
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            // Raw control characters stand for themselves.
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Reads `frame` through the one-pass reader with `kept` as the kept files
/// and through the oracle, and checks that they agree. Returns the request
/// and how many texts were left undecoded.
fn check(frame: &str, kept: &[(String, String)]) -> (Result<Resolved, JsonError>, usize) {
    let kept_file = |i: usize| kept.get(i).map(|(n, t)| (n.as_str(), t.as_str()));
    let want = oracle(frame);
    let read = read_request(frame, kept_file);
    let undecoded = read
        .as_ref()
        .map_or(0, |r| r.files.iter().filter(|f| f.text.is_none()).count());
    let got = read.map(|r| resolve(r, kept_file));
    if got != want {
        let at = match &want {
            Err(e) => e.pos,
            Ok(_) => 0,
        };
        let from = frame.floor_char_boundary(at.saturating_sub(60));
        let to = frame.floor_char_boundary((at + 60).min(frame.len()));
        panic!(
            "the readers disagree near byte {at}: {:?}\n one-pass: {:?}\n oracle: {:?}",
            &frame[from..to],
            got.as_ref().map(|r| (&r.0, &r.1, r.2.files.len())),
            want.as_ref().map(|r| (&r.0, &r.1, r.2.files.len())),
        );
    }
    (got, undecoded)
}

/// A small linux model with non-ASCII text (a character outside the
/// Basic Multilingual Plane among them) in a comment and in a file name,
/// and the comment holding a character of every one-letter escape.
fn model() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> =
        Corpus::generate(&OsProfile::linux().with_scale(0.05).with_seed(11))
            .files
            .iter()
            .map(|f| (f.path.clone(), f.text.clone()))
            .collect();
    files[0]
        .1
        .insert_str(0, "// é 中 🦀 \u{1}\u{8}\u{c}\t\r\u{7f} \"/\\\n");
    files[1].0.push_str("-é🦀");
    files
}

fn base_fields(files: &[(String, String)]) -> Vec<Field> {
    let items = files
        .iter()
        .map(|(name, text)| {
            Item::Object(vec![
                ("\"name\"".to_owned(), quote(name)),
                ("\"text\"".to_owned(), quote(text)),
            ])
        })
        .collect();
    vec![
        ("\"id\"".to_owned(), Value::Raw("1".to_owned())),
        ("\"op\"".to_owned(), Value::Raw("\"analyze\"".to_owned())),
        ("\"files\"".to_owned(), Value::Files(items)),
    ]
}

/// Nested arrays and objects `depth` deep around a scalar.
fn nested(depth: usize, rng: &mut Prng) -> String {
    let mut open = String::new();
    let mut close = String::new();
    for _ in 0..depth {
        if rng.gen_range(0, 2) == 0 {
            open.push('[');
            close.insert(0, ']');
        } else {
            open.push_str("{\"k\": ");
            close.insert(0, '}');
        }
    }
    format!("{open}\"x\\u0041\"{close}")
}

const IDS: [&str; 14] = [
    "7",
    "-0",
    "007",
    "\"s\\u0074r\"",
    "\"q\\\"\"",
    "1.5",
    "99999999999999999999",
    "true",
    "false",
    "null",
    "[1, 2]",
    "{\"a\": 1}",
    "-12",
    "\"🦀\\uD83E\\uDD80\"",
];

const NON_STRINGS: [&str; 7] = [
    "7",
    "null",
    "true",
    "[\"a\"]",
    "{\"t\": \"x\"}",
    "-1.5e3",
    "\"\"",
];

/// Applies one seeded rewrite to `fields`. Returns whether it keeps the
/// frame's meaning: the same request as before.
fn rewrite(fields: &mut Vec<Field>, rng: &mut Prng) -> bool {
    fn items(fields: &mut [Field]) -> &mut Vec<Item> {
        let files = fields.iter_mut().find_map(|(_, v)| match v {
            Value::Files(items) => Some(items),
            Value::Raw(_) => None,
        });
        files.expect("a files field")
    }
    let kind = rng.gen_range(0, 13);
    let n = items(fields).len();
    let file = rng.gen_range(0, n);
    match kind {
        0 => {
            // Reorder the top-level keys.
            let (a, b) = (
                rng.gen_range(0, fields.len()),
                rng.gen_range(0, fields.len()),
            );
            fields.swap(a, b);
            true
        }
        1 => {
            // Put a file's text before its name.
            if let Item::Object(f) = &mut items(fields)[file] {
                f.reverse();
            }
            true
        }
        2 => {
            // A duplicate key: after the first it is skipped, before it it
            // wins.
            let key = ["\"id\"", "\"op\"", "\"files\""][rng.gen_range(0, 3)];
            let value = match key {
                "\"id\"" => IDS[rng.gen_range(0, IDS.len())].to_owned(),
                "\"op\"" => "\"ping\"".to_owned(),
                _ => "[{\"name\": \"dup.c\", \"text\": \"int x;\"}]".to_owned(),
            };
            let first = fields.iter().position(|(k, _)| k == key).unwrap_or(0);
            let before = rng.gen_range(0, 2) == 0;
            let at = if before { first } else { fields.len() };
            fields.insert(at, (key.to_owned(), Value::Raw(value)));
            !before
        }
        3 => {
            // An unknown key, at the top or in a file, nested up to 100 deep.
            let value = nested(rng.gen_range(0, 101), rng);
            if rng.gen_range(0, 2) == 0 {
                let at = rng.gen_range(0, fields.len() + 1);
                fields.insert(at, ("\"pad\"".to_owned(), Value::Raw(value)));
            } else if let Item::Object(f) = &mut items(fields)[file] {
                let at = rng.gen_range(0, f.len() + 1);
                f.insert(at, ("\"extra\"".to_owned(), value));
            }
            true
        }
        4 => {
            // A name or text that is not a string, or is missing.
            if let Item::Object(f) = &mut items(fields)[file] {
                let k = rng.gen_range(0, f.len());
                if rng.gen_range(0, 3) == 0 {
                    f.remove(k);
                } else {
                    f[k].1 = NON_STRINGS[rng.gen_range(0, NON_STRINGS.len())].to_owned();
                }
            }
            false
        }
        5 => {
            // The same text, escaped another way.
            if let Item::Object(f) = &mut items(fields)[file] {
                for (key, raw) in f.iter_mut() {
                    if key == "\"text\"" || key == "\"name\"" {
                        if let Ok(JsonValue::Str(s)) = JsonValue::parse(raw) {
                            *raw = escape_differently(&s, rng);
                        }
                    }
                }
            }
            true
        }
        6 => {
            let id = fields.iter_mut().find(|(k, _)| k == "\"id\"");
            if let Some((_, value)) = id {
                *value = Value::Raw(IDS[rng.gen_range(0, IDS.len())].to_owned());
            }
            false
        }
        7 => {
            // A file that is not an object.
            items(fields)[file] =
                Item::Raw(NON_STRINGS[rng.gen_range(0, NON_STRINGS.len())].to_owned());
            false
        }
        8 => {
            // A surrogate pair, or a lone or reversed surrogate, in a text.
            if let Item::Object(f) = &mut items(fields)[file] {
                if let Some((_, raw)) = f.iter_mut().find(|(k, _)| k == "\"text\"") {
                    const SURROGATES: [&str; 6] = [
                        "\\uD83E\\uDD80",
                        "\\ud800\\udc00",
                        "\\uDBFF\\uDFFF",
                        "\\uD83E",
                        "\\uDD80\\uD83E",
                        "\\uD83E\\u0041",
                    ];
                    let at = raw.len() - 1;
                    raw.insert_str(at, SURROGATES[rng.gen_range(0, SURROGATES.len())]);
                }
            }
            false
        }
        9 => {
            // Keys spelled with escapes.
            for (key, _) in fields.iter_mut() {
                *key = key.replacen('o', "\\u006f", 1).replacen('i', "\\u0069", 1);
            }
            true
        }
        10 => {
            // A file's name that moves it away from the kept one at its
            // position: the text is decoded, not compared.
            if let Item::Object(f) = &mut items(fields)[file] {
                if let Some((_, raw)) = f.iter_mut().find(|(k, _)| k == "\"name\"") {
                    raw.insert(1, '_');
                }
            }
            false
        }
        11 => {
            // Drop or add a file.
            if rng.gen_range(0, 2) == 0 && n > 1 {
                items(fields).remove(file);
            } else {
                items(fields).insert(
                    file,
                    Item::Object(vec![
                        ("\"name\"".to_owned(), "\"new.c\"".to_owned()),
                        ("\"text\"".to_owned(), "\"int y;\\n\"".to_owned()),
                    ]),
                );
            }
            false
        }
        _ => {
            // Another op.
            let op = fields.iter_mut().find(|(k, _)| k == "\"op\"");
            if let Some((_, value)) = op {
                let ops = [
                    "\"ping\"",
                    "\"stats\"",
                    "\"an\\u0061lyze\"",
                    "5",
                    "\"nope\"",
                ];
                *value = Value::Raw(ops[rng.gen_range(0, ops.len())].to_owned());
            }
            false
        }
    }
}

/// Cuts `frame` at every 1/64 of its length and flips `flips` seeded
/// bytes to JSON punctuation, checking every result.
fn cut_and_flip(frame: &str, kept: &[(String, String)], flips: usize, rng: &mut Prng) -> usize {
    let mut refused = 0;
    for k in 0..64 {
        let at = frame.floor_char_boundary(frame.len() * k / 64);
        refused += usize::from(check(&frame[..at], kept).0.is_err());
    }
    const BYTES: &[u8] = b"\"\\{}[],: u0n+-.eE\t\x01";
    let mut bytes = frame.as_bytes().to_vec();
    for _ in 0..flips {
        let at = rng.gen_range(0, bytes.len());
        if !bytes[at].is_ascii() {
            continue;
        }
        let old = bytes[at];
        bytes[at] = BYTES[rng.gen_range(0, BYTES.len())];
        let text = std::str::from_utf8(&bytes).expect("ASCII for ASCII keeps UTF-8");
        refused += usize::from(check(text, kept).0.is_err());
        bytes[at] = old;
    }
    refused
}

#[test]
fn one_pass_reader_matches_the_tree_reader_under_mutation() {
    let files = model();
    let mut rng = Prng::seed_from_u64(0x0f_4a3e);
    let base = render(&base_fields(&files), &mut rng, false);
    let request = |files: &[(String, String)]| {
        let files = files
            .iter()
            .map(|(name, text)| SourceFile {
                name: name.clone(),
                text: text.clone(),
            })
            .collect();
        (
            "1".to_owned(),
            "analyze".to_owned(),
            AnalysisRequest { files },
        )
    };
    let original = request(&files);

    // The frame as a client writes it: with kept files every text is
    // compared in escaped form and left undecoded; without, decoded.
    assert_eq!(check(&base, &files), (Ok(original.clone()), files.len()));
    assert_eq!(check(&base, &[]), (Ok(original.clone()), 0));
    // Every kept text differs from the frame's: each is decoded.
    let edited: Vec<(String, String)> = files
        .iter()
        .map(|(n, t)| (n.clone(), format!("{t} ")))
        .collect();
    assert_eq!(check(&base, &edited), (Ok(original.clone()), 0));

    let refused = cut_and_flip(&base, &files, 400, &mut rng);
    assert!(refused > 60, "{refused} cut or flipped frames refused");

    let (mut preserved, mut undecoded, mut refused) = (0, 0, 0);
    for round in 0..600 {
        let mut fields = base_fields(&files);
        let mut same = true;
        for _ in 0..rng.gen_range(1, 5) {
            same &= rewrite(&mut fields, &mut rng);
        }
        let loose = round % 3 == 0;
        let frame = render(&fields, &mut rng, loose);
        for kept in [&files[..], &[], &edited] {
            let (got, left) = check(&frame, kept);
            undecoded += left;
            refused += usize::from(got.is_err());
            if same {
                assert_eq!(got.as_ref(), Ok(&original), "round {round}: {frame:.200}");
                preserved += 1;
            }
        }
        if round % 50 == 0 {
            refused += cut_and_flip(&frame, &files, 40, &mut rng);
        }
    }
    assert!(preserved > 150, "{preserved} meaning-preserving rewrites");
    assert!(
        undecoded > 600 * files.len() / 4,
        "{undecoded} texts left undecoded"
    );
    assert!(refused > 100, "{refused} frames refused");

    // Nesting past the bound in an unknown key is refused at the same
    // byte by both readers.
    let deep = base.replacen("{", &format!("{{\"pad\": {}, ", "[".repeat(100_000)), 1);
    let (got, _) = check(&deep, &files);
    assert_eq!(got.unwrap_err().message, "nesting too deep");
}
