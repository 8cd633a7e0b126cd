//! Machine-readable benchmark results.
//!
//! The smoke benches (exploration, persistence) append their headline
//! numbers to `results/BENCH_stage1.json` so CI can print a stage-timing
//! one-liner and later runs can diff against a recorded baseline. The file
//! is a single JSON object with one *section per bench, each on its own
//! line* — the line discipline is what lets this zero-dependency writer
//! read-modify-write the document without a JSON parser:
//!
//! ```json
//! {
//!   "exploration": {"steps_per_sec": 2971532.0, "forks": 20118, ...},
//!   "persistence": {"cold_s": 0.91, "warm_s": 0.04, ...}
//! }
//! ```
//!
//! Sections are rewritten in place (matched by name) and kept sorted, so
//! re-running one bench never clobbers another's numbers.

use std::path::PathBuf;

/// Repo-relative path of the stage-1 results document, anchored at this
/// crate's manifest, not the invocation cwd. The manifest directory is
/// the one cargo names in `CARGO_MANIFEST_DIR` when it runs the bench, so
/// a bench run from another checkout writes that checkout's results even
/// when its binary was built elsewhere; without the variable (a binary
/// run directly) it is the directory the crate was compiled in.
pub fn bench_stage1_path() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("../../results/BENCH_stage1.json")
}

/// Builds a one-line JSON object from pre-encoded values (numbers or
/// already-quoted strings).
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", pata_core::json::quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Inserts or replaces `section` (a one-line `{...}` object) in
/// `results/BENCH_stage1.json`, creating the file on first use.
pub fn write_section(name: &str, section: &str) -> std::io::Result<()> {
    assert!(
        !section.contains('\n'),
        "a results section must be a single line"
    );
    let path = bench_stage1_path();
    let mut sections = read_sections(&std::fs::read_to_string(&path).unwrap_or_default());
    match sections.iter_mut().find(|(n, _)| n == name) {
        Some((_, body)) => *body = section.to_owned(),
        None => sections.push((name.to_owned(), section.to_owned())),
    }
    sections.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::from("{\n");
    for (i, (n, body)) in sections.iter().enumerate() {
        out.push_str(&format!(
            "  {}: {body}{}\n",
            pata_core::json::quote(n),
            if i + 1 < sections.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, out)
}

/// Extracts `(name, object-line)` pairs from a document produced by
/// [`write_section`]. Unrecognized lines are dropped (the writer always
/// regenerates the full document).
fn read_sections(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, body)) = rest.split_once("\": ") else {
            continue;
        };
        let body = body.trim_end_matches(',');
        if body.starts_with('{') && body.ends_with('}') {
            out.push((name.to_owned(), body.to_owned()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_roundtrip_and_replace() {
        let doc = "{\n  \"b\": {\"x\": 1},\n  \"a\": {\"y\": 2}\n}\n";
        let mut sections = read_sections(doc);
        assert_eq!(
            sections,
            vec![
                ("b".to_owned(), "{\"x\": 1}".to_owned()),
                ("a".to_owned(), "{\"y\": 2}".to_owned()),
            ]
        );
        sections[0].1 = "{\"x\": 9}".to_owned();
        assert_eq!(sections[0].1, "{\"x\": 9}");
    }

    #[test]
    fn object_builds_one_line() {
        let o = object(&[("a", "1".to_owned()), ("b", "2.5".to_owned())]);
        assert_eq!(o, "{\"a\": 1, \"b\": 2.5}");
        assert!(!o.contains('\n'));
    }
}
