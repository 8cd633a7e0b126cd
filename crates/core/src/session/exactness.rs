//! The session's in-place lowering is exact: over a seeded sequence of
//! edits to the scale-0.2 linux model, the module a session keeps after
//! every request it compiles equals a cold [`pata_cc::lower_units`] of the
//! same sources, down to every id, and its report equals a cold session's.
//! A request that restores the tree of the last one that compiled, after
//! one that did not, is served from the records and keeps no module.

use super::*;
use crate::collector;
use pata_corpus::{Corpus, OsProfile, Prng};
use pata_ir::{print_module, VarId};
use std::fmt::Write as _;

/// Everything lowering produces, in id order: the struct table and every
/// function (as printed, interface flags included), the files, the full
/// variable table, the globals, the interner and the function names.
fn dump(m: &Module) -> String {
    let mut out = print_module(m);
    for f in m.files() {
        let _ = writeln!(out, "file {} lines={} {}", f.name, f.lines, f.category);
    }
    for i in 0..m.var_count() {
        let v = m.var(VarId::from_index(i));
        let _ = writeln!(
            out,
            "var %{i} {} {} {:?} {:?}",
            v.name, v.ty, v.kind, v.func
        );
    }
    let _ = writeln!(out, "globals {:?}", m.globals());
    for (i, s) in m.interner.strings().enumerate() {
        let _ = writeln!(out, "sym#{i} {s}");
    }
    for f in m.functions() {
        let _ = writeln!(out, "{} -> {:?}", f.name(), m.function_by_name(f.name()));
    }
    out
}

/// One request's edit. The first three are the kinds an editor makes all
/// day and are lowered in place; every other kind must fall back to a
/// full lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Edit {
    /// Change an integer constant in a function body.
    Const,
    /// Add `if (k > 1) { }` at the top of a body.
    Stmt,
    /// Add an initialized local at the top of a body.
    Local,
    /// Call a root of another file, so that the root, which is not
    /// lowered again, stops being one.
    CallRoot,
    /// Call an external function no file has named yet.
    NewExtern,
    /// Assign a field no struct declares, reached through a cast.
    NewField,
    /// Cast to a struct no file declares.
    UndeclaredStruct,
    /// Make a function return a pointer.
    ReturnType,
    /// Append a file.
    AddFile,
    /// Drop the file `AddFile` appended.
    RemoveFile,
    /// Swap two files.
    Reorder,
    /// Add a `break` outside any loop; the next request removes it.
    SemaError,
}

impl Edit {
    pub(super) fn in_place(self) -> bool {
        matches!(
            self,
            Edit::Const | Edit::Stmt | Edit::Local | Edit::CallRoot
        )
    }
}

const ROUND: [Edit; 18] = [
    Edit::Const,
    Edit::Stmt,
    Edit::Local,
    Edit::CallRoot,
    Edit::NewExtern,
    Edit::Const,
    Edit::NewField,
    Edit::Stmt,
    Edit::UndeclaredStruct,
    Edit::Local,
    Edit::ReturnType,
    Edit::AddFile,
    Edit::Const,
    Edit::RemoveFile,
    Edit::Stmt,
    Edit::Reorder,
    Edit::Local,
    Edit::SemaError,
];

/// The name of the function a generated `static <type> name(...) {` line
/// opens, and the byte offset of that name.
pub(super) fn header(line: &str) -> Option<(usize, &str)> {
    if !line.starts_with("static ") || !line.trim_end().ends_with('{') || line.contains('=') {
        return None;
    }
    let open = line.find('(')?;
    let at = line[..open].rfind([' ', '*'])? + 1;
    Some((at, &line[at..open])).filter(|(_, name)| !name.is_empty())
}

/// The byte ranges of the integer literals on `line`.
fn int_literals(line: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let starts = b[i].is_ascii_digit()
            && (i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_'));
        if starts {
            let end = i + b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
            out.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// Applies `edit` to one function of one seeded file; returns `false` when
/// the chosen function has no place for it. `roots` names the current
/// analysis roots.
pub(super) fn edit_function(
    files: &mut [(String, String)],
    edit: Edit,
    i: usize,
    rng: &mut Prng,
    roots: &[String],
) -> bool {
    let file = rng.gen_range(0, files.len());
    let mut lines: Vec<String> = files[file].1.lines().map(str::to_owned).collect();
    let headers: Vec<usize> = (0..lines.len())
        .filter(|&l| header(&lines[l]).is_some())
        .collect();
    if headers.is_empty() {
        return false;
    }
    let at = *rng.choose(&headers);
    let Some(end) = lines[at..].iter().position(|l| l == "}").map(|n| at + n) else {
        return false;
    };
    let k = rng.gen_range(2, 90);
    let body = match edit {
        Edit::Stmt => format!("    if ({k} > 1) {{ }}"),
        Edit::Local => format!("    int exact_local{i} = {k};"),
        Edit::NewExtern => format!("    exact_extern{i}({k});"),
        Edit::CallRoot => {
            let root = rng.choose(roots);
            let Some(params) = files
                .iter()
                .enumerate()
                .filter(|&(f, _)| f != file)
                .flat_map(|(_, (_, text))| text.lines())
                .find_map(|l| {
                    let (name_at, name) = header(l).filter(|(_, name)| name == root)?;
                    Some(&l[name_at + name.len() + 1..l.find(')')?])
                })
            else {
                return false;
            };
            let arity = match params.trim() {
                "" | "void" => 0,
                p => p.matches(',').count() + 1,
            };
            format!("    {root}({});", vec!["0"; arity].join(", "))
        }
        Edit::NewField => {
            let Some(s) = files[file].1.lines().find_map(|l| {
                let rest = l.strip_prefix("struct ")?;
                Some(rest[..rest.find(' ')?].to_owned())
            }) else {
                return false;
            };
            format!("    ((struct {s} *)0)->exact_field{i} = {k};")
        }
        Edit::UndeclaredStruct => format!("    ((struct exact_undeclared{i} *)0)->frnd = {k};"),
        Edit::SemaError => "    break;".to_owned(),
        Edit::ReturnType => {
            let (name_at, _) = header(&lines[at]).expect("a header");
            lines[at].insert(name_at, '*');
            String::new()
        }
        Edit::Const => {
            let sites: Vec<(usize, (usize, usize))> = (at + 1..end)
                .flat_map(|l| int_literals(&lines[l]).into_iter().map(move |r| (l, r)))
                .collect();
            if sites.is_empty() {
                return false;
            }
            let (l, (a, b)) = sites[rng.gen_range(0, sites.len())];
            let new = if lines[l][a..b] == k.to_string() {
                k + 1
            } else {
                k
            };
            lines[l].replace_range(a..b, &new.to_string());
            String::new()
        }
        Edit::AddFile | Edit::RemoveFile | Edit::Reorder => unreachable!("file-list edits"),
    };
    if !body.is_empty() {
        lines.insert(at + 1, body);
    }
    files[file].1 = lines.join("\n") + "\n";
    true
}

/// The names of the roots `session` keeps records of, in root order.
pub(super) fn recorded_roots(session: &AnalysisSession) -> Vec<String> {
    let warm = session.warm.as_ref().expect("a warm state");
    let name = |r: &RootRecord| warm.names[r.root.index()].to_string();
    warm.records.iter().map(name).collect()
}

pub(super) fn request(files: &[(String, String)]) -> AnalysisRequest {
    files
        .iter()
        .fold(AnalysisRequest::new(), |r, (name, text)| r.file(name, text))
}

/// Checks the session's kept module and its last report against a cold
/// lowering and a cold session of `files`.
fn check_exact(session: &AnalysisSession, files: &[(String, String)], served: &SessionOutcome) {
    let units: Vec<Unit> = files
        .iter()
        .map(|(name, text)| Parser::parse_source(name, text).expect("parses"))
        .collect();
    let units: Vec<(&Unit, Option<Category>)> = units.iter().map(|u| (u, None)).collect();
    let mut cold = pata_cc::lower_units(&units).expect("lowers");
    collector::mark_interfaces(&mut cold);
    let kept = session.front_end.lowered.as_ref().expect("a kept module");
    assert!(
        dump(kept.module()) == dump(&cold),
        "the kept module differs from a cold lowering"
    );
    let config = session.config().clone();
    let cold_report = AnalysisSession::new(config)
        .analyze(&request(files))
        .expect("analyzes")
        .report;
    assert_eq!(served.report.to_json(), cold_report.to_json());
}

#[test]
fn kept_module_equals_a_cold_lowering_after_every_edit() {
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(0.2));
    let mut files: Vec<(String, String)> = corpus
        .files
        .iter()
        .map(|f| (f.path.clone(), f.text.clone()))
        .collect();
    let mut rng = Prng::seed_from_u64(0x1ed17);
    let mut session = AnalysisSession::new(AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    });
    let first = session.analyze(&request(&files)).expect("analyzes");
    check_exact(&session, &files, &first);

    let (mut in_place, mut full, mut refused, mut served) = (0, 0, 0, 0);
    // Whether the previous request was served from the records, which
    // keeps no module: the next one then lowers in full.
    let mut no_module = false;
    let edits = (0..4).flat_map(|_| ROUND);
    for (i, edit) in edits.enumerate() {
        let before = files.clone();
        match edit {
            Edit::AddFile => files.push((
                format!("drivers/exact/added{i}.c"),
                format!(
                    "static int exact_added{i}(int *p) {{ if (p == NULL) {{ }} return *p; }}\n"
                ),
            )),
            Edit::RemoveFile => {
                let added = files
                    .iter()
                    .rposition(|(name, _)| name.starts_with("drivers/exact/"));
                files.remove(added.expect("an added file"));
            }
            Edit::Reorder => {
                let a = rng.gen_range(0, files.len());
                let b = (a + 1 + rng.gen_range(0, files.len() - 1)) % files.len();
                files.swap(a, b);
            }
            _ => {
                let roots = recorded_roots(&session);
                while !edit_function(&mut files, edit, i, &mut rng, &roots) {}
            }
        }
        if edit == Edit::SemaError {
            let fixed: Vec<(String, String)> = files
                .iter()
                .map(|(n, t)| (n.clone(), t.replace("    break;\n", "")))
                .collect();
            let err = session.analyze(&request(&files)).unwrap_err();
            assert!(matches!(err, SessionError::Compile(_)), "edit {i}: {err}");
            let cold = AnalysisSession::new(session.config().clone())
                .analyze(&request(&files))
                .unwrap_err();
            assert_eq!(err, cold, "edit {i}: the cold diagnostics");
            assert!(session.front_end.lowered.is_none());
            refused += 1;
            files = fixed;
        }
        // A fix that restores the tree of the last request that compiled,
        // byte for byte, is served from that request's records.
        if edit == Edit::SemaError && files == before {
            let out = session.analyze(&request(&files)).expect("analyzes");
            let inc = out.incremental;
            assert_eq!(
                (inc.parsed_files, inc.lowered_functions, inc.dirty_roots),
                (0, 0, 0),
                "edit {i}: served from the records"
            );
            assert!(session.front_end.lowered.is_none(), "edit {i}");
            let cold = AnalysisSession::new(session.config().clone())
                .analyze(&request(&files))
                .expect("analyzes");
            assert_eq!(out.report.to_json(), cold.report.to_json(), "edit {i}");
            served += 1;
            no_module = true;
            continue;
        }
        let out = session.analyze(&request(&files)).expect("analyzes");
        let total = session
            .front_end
            .lowered
            .as_ref()
            .unwrap()
            .module()
            .functions()
            .len();
        let spliced = out.incremental.lowered_functions < total as u64;
        let expect = edit.in_place() && !std::mem::take(&mut no_module);
        assert_eq!(
            spliced, expect,
            "edit {i} ({edit:?}) lowered in place: {spliced}"
        );
        if spliced {
            assert_eq!(out.incremental.parsed_files, 1, "edit {i}");
            assert!(out.incremental.lowered_functions > 0, "edit {i}");
            in_place += 1;
        } else {
            full += 1;
        }
        check_exact(&session, &files, &out);
    }
    assert_eq!((in_place, full, refused, served), (39, 31, 4, 2));
}
