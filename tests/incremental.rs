//! Differential test of incremental re-analysis over an edit sequence on a
//! generated corpus. After every edit a warm session must answer exactly
//! like a cold one — same report bytes, same exploration counters — while
//! re-exploring only the roots whose call-graph closure holds a changed
//! function.

use pata::core::collector::{self, CallGraph};
use pata::core::{AnalysisConfig, AnalysisRequest, AnalysisSession, AnalysisStats, SessionOutcome};
use pata::corpus::{Corpus, OsProfile};
use pata::ir::{FuncId, Module, VarId};
use std::collections::BTreeSet;

fn config() -> AnalysisConfig {
    AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    }
}

fn compile(files: &[(String, String)]) -> Module {
    let mut cc = pata::cc::Compiler::new();
    for (name, text) in files {
        cc.add_source(name, text);
    }
    cc.compile().expect("corpus compiles")
}

fn request(files: &[(String, String)]) -> AnalysisRequest {
    files
        .iter()
        .fold(AnalysisRequest::new(), |r, (name, text)| r.file(name, text))
}

/// Counters that must match between warm and cold runs: everything but
/// wall-clock time and the stage-2 cache counters (a warm session keeps
/// earlier verdicts, so it solves less).
fn counters(out: &SessionOutcome) -> AnalysisStats {
    AnalysisStats {
        time: std::time::Duration::ZERO,
        validation_cache_hits: 0,
        validation_cache_misses: 0,
        ..out.stats.clone()
    }
}

/// Number of roots whose direct-call closure contains one of `changed`.
fn affected_roots(module: &mut Module, changed: &BTreeSet<String>) -> u64 {
    let (roots, graph): (Vec<FuncId>, CallGraph) = collector::mark_interfaces_with_graph(module);
    let mut affected = 0;
    for root in roots {
        let mut seen = vec![false; module.functions().len()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        let mut hit = false;
        while let Some(f) = stack.pop() {
            hit |= changed.contains(module.function(f).name());
            for &callee in &graph.callees[f.index()] {
                if !seen[callee.index()] {
                    seen[callee.index()] = true;
                    stack.push(callee);
                }
            }
        }
        affected += u64::from(hit);
    }
    affected
}

/// The functions holding a variable typed (through at most one pointer)
/// as one of `structs`.
fn users_of_structs(module: &Module, structs: &[String]) -> BTreeSet<String> {
    (0..module.var_count())
        .map(|i| module.var(VarId::from_index(i)))
        .filter(|info| {
            info.ty
                .struct_id()
                .is_some_and(|sid| structs.contains(&module.struct_def(sid).name))
        })
        .filter_map(|info| info.func.map(|f| module.function(f).name().to_owned()))
        .collect()
}

/// The name of the first `static` function defined at or after `line`.
fn function_at(text: &str, line: usize) -> (usize, String) {
    text.lines()
        .enumerate()
        .skip(line)
        .find_map(|(i, l)| {
            let head = l.strip_prefix("static ")?;
            if !l.trim_end().ends_with('{') || l.contains('=') {
                return None;
            }
            let name = head[..head.find('(')?].rsplit([' ', '*']).next()?;
            Some((i, name.to_owned()))
        })
        .expect("a function definition")
}

/// The byte range of the first integer literal on `line`, if any.
fn int_literal(line: &str) -> Option<std::ops::Range<usize>> {
    let bytes = line.as_bytes();
    let start = (0..bytes.len()).find(|&i| {
        bytes[i].is_ascii_digit()
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
    })?;
    let len = bytes[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    Some(start..start + len)
}

fn edit_line(text: &str, line: usize, f: impl FnOnce(&str) -> String) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    lines[line] = f(&lines[line]);
    lines.join("\n") + "\n"
}

#[test]
fn warm_edits_match_cold_runs() {
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(0.1));
    let mut files: Vec<(String, String)> = corpus
        .files
        .iter()
        .map(|f| (f.path.clone(), f.text.clone()))
        .collect();
    assert!(files.len() >= 8, "corpus large enough to spread the edits");
    let mid = files.len() / 2;
    let late = files.len() - 2;

    let mut warm = AnalysisSession::new(config());
    let first = warm.analyze(&request(&files)).unwrap();
    assert!(!first.incremental.warm_start);

    // (name, file, edit): each edit rewrites one line of one file, so no
    // other line moves. An edit returns the new text, the functions it
    // changes, and the structs whose layout it changes.
    type Edit = fn(&str) -> (String, BTreeSet<String>, Vec<String>);
    let edits: [(&str, usize, Edit); 5] = [
        ("constant", mid, |text| {
            let (at, name) = function_at(text, 0);
            let (line, range) = text
                .lines()
                .enumerate()
                .skip(at + 1)
                .find_map(|(i, l)| Some((i, int_literal(l)?)))
                .unwrap();
            let edited = edit_line(text, line, |l| {
                let mut l = l.to_owned();
                l.replace_range(range, "4242");
                l
            });
            (edited, [name].into(), vec![])
        }),
        ("added if", late, |text| {
            let (at, name) = function_at(text, 0);
            let edited = edit_line(text, at, |l| format!("{l} if (3 > 1) {{ }}"));
            (edited, [name].into(), vec![])
        }),
        ("added local", mid, |text| {
            let (at, _) = function_at(text, 0);
            let (at, name) = function_at(text, at + 1);
            let edited = edit_line(text, at, |l| format!("{l} int diff_local = 5;"));
            (edited, [name].into(), vec![])
        }),
        ("struct only", late, |text| {
            let (line, decl) = text
                .lines()
                .enumerate()
                .find(|(_, l)| l.starts_with("struct cfg_"))
                .unwrap();
            let cfg = decl["struct ".len()..decl.find(" {").unwrap()].to_owned();
            let dev = cfg.replacen("cfg_", "dev_", 1);
            let edited = edit_line(text, line, |l| {
                l.replace(" };", " int diff_a; int diff_b; };")
            });
            (edited, BTreeSet::new(), vec![cfg, dev])
        }),
        ("renumber only", 0, |text| {
            let (at, name) = function_at(text, 0);
            let edited = edit_line(text, at, |l| format!("{l} int diff_renumber = 1;"));
            (edited, [name].into(), vec![])
        }),
    ];

    for (what, file, edit) in edits {
        let (text, mut changed, structs) = edit(&files[file].1);
        assert_ne!(text, files[file].1, "{what}: the edit applies");
        files[file].1 = text;
        let mut module = compile(&files);
        changed.extend(users_of_structs(&module, &structs));
        assert!(!changed.is_empty(), "{what}: some function changes");
        let affected = affected_roots(&mut module, &changed);
        assert!(affected > 0, "{what}: some root reaches the change");

        let served = warm.analyze(&request(&files)).unwrap();
        let cold = AnalysisSession::new(config())
            .analyze(&request(&files))
            .unwrap();
        assert_eq!(
            served.report.to_json(),
            cold.report.to_json(),
            "{what}: warm report equals cold"
        );
        assert_eq!(counters(&served), counters(&cold), "{what}: warm stats");
        assert!(
            served.incremental.dirty_roots >= affected,
            "{what}: {} dirty roots, {affected} hold a changed function",
            served.incremental.dirty_roots
        );
        if structs.is_empty() {
            // A one-function edit changes one fingerprint and dirties
            // exactly the roots that reach it, wherever it sits.
            assert_eq!(served.incremental.changed_functions, 1, "{what}");
            assert_eq!(served.incremental.dirty_roots, affected, "{what}");
        }
    }
}
