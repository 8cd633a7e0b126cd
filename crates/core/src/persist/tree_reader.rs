//! The store reader as it was before the one-pass reader: every line is
//! parsed into a [`JsonValue`] tree, which is then walked. It is the
//! oracle of the differential mutation test in `session::store_mutation`,
//! so its acceptance rules are the one-pass reader's specification.

use super::*;
use crate::json::JsonValue;

/// [`Store::parse`] through a tree.
pub(crate) fn parse(text: &str, expect_config_fp: u64) -> Option<Store> {
    let doc = JsonValue::parse(text).ok()?;
    if doc.get("schema_version")?.as_u64()? != STORE_SCHEMA_VERSION {
        return None;
    }
    if parse_hex64(doc.get("config_fingerprint")?.as_str()?)? != expect_config_fp {
        return None;
    }
    let files = doc
        .get("files")?
        .as_array()?
        .iter()
        .map(|v| parse_file_entry(v).map(|(_, entry)| entry))
        .collect::<Option<Vec<_>>>()?;
    let mut names: Vec<Arc<str>> = Vec::new();
    let (mut fps, mut func_files) = (Vec::new(), Vec::new());
    for item in doc.get("functions")?.as_array()? {
        let [name, fp, file] = item.as_array()? else {
            return None;
        };
        names.push(name.as_str()?.into());
        fps.push(parse_hex64(fp.as_str()?)?);
        func_files.push(u32::try_from(file.as_u64()?).ok()?);
    }
    if func_files.iter().any(|&f| f as usize >= files.len()) {
        return None;
    }
    let mut roots = Vec::new();
    for item in doc.get("roots")?.as_array()? {
        roots.push(parse_root(item, names.len())?);
    }
    let mut validation = Vec::new();
    for item in doc.get("validation")?.as_array()? {
        validation.push(parse_verdict(item)?);
    }
    Some(Store {
        files,
        names: names.into(),
        fps,
        func_files,
        root_count: doc.get("root_count")?.as_u64()?,
        roots,
        validation,
    })
}

/// [`Store::parse_file`] through a tree.
pub(crate) fn parse_file(text: &str, expect_config_fp: u64) -> Option<(Store, StoreFile)> {
    let mut lines = text.strip_suffix('\n')?.split('\n');
    let base = lines.next()?;
    let mut store = parse(base, expect_config_fp)?;
    let mut at: Option<Vec<Option<usize>>> = None;
    for line in lines {
        let at = at.get_or_insert_with(|| record_at(&store.roots, store.names.len(), Some));
        apply_delta(&mut store, line, at)?;
    }
    if at.is_some() {
        store.validation.sort_by(|(a, _), (b, _)| a.cmp(b));
        store.validation.dedup_by(|(a, _), (b, _)| a == b);
    }
    let file = StoreFile {
        base: base.len() as u64 + 1,
        len: text.len() as u64,
    };
    Some((store, file))
}

fn apply_delta(store: &mut Store, line: &str, at: &[Option<usize>]) -> Option<()> {
    let delta = JsonValue::parse(line).ok()?;
    for item in delta.get("files")?.as_array()? {
        let (at, entry) = parse_file_entry(item)?;
        *store.files.get_mut(usize::try_from(at?).ok()?)? = entry;
    }
    for item in delta.get("functions")?.as_array()? {
        let [id, fp, file] = item.as_array()? else {
            return None;
        };
        let id = usize::try_from(id.as_u64()?).ok()?;
        let fp = parse_hex64(fp.as_str()?)?;
        let file = u32::try_from(file.as_u64()?).ok()?;
        if id >= store.names.len() || file as usize >= store.files.len() {
            return None;
        }
        (store.fps[id], store.func_files[id]) = (fp, file);
    }
    for item in delta.get("roots")?.as_array()? {
        let record = parse_root(item, store.names.len())?;
        let i = (*at.get(record.root.index())?)?;
        store.roots[i] = record;
    }
    for item in delta.get("validation")?.as_array()? {
        store.validation.push(parse_verdict(item)?);
    }
    Some(())
}

/// A file entry and its `at`, if it has one.
fn parse_file_entry(v: &JsonValue) -> Option<(Option<u64>, FileEntry)> {
    let at = match v.get("at") {
        None => None,
        Some(at) => Some(at.as_u64()?),
    };
    let entry = FileEntry {
        name: v.get("name")?.as_str()?.to_owned(),
        bytes: v.get("bytes")?.as_u64()?,
        lines: u32::try_from(v.get("lines")?.as_u64()?).ok()?,
        word: parse_hex64(v.get("word")?.as_str()?)?,
    };
    Some((at, entry))
}

fn parse_verdict(v: &JsonValue) -> Option<(Vec<u8>, SatResult)> {
    let key = parse_hex_bytes(v.get("key")?.as_str()?)?;
    let verdict = match v.get("verdict")?.as_str()? {
        "sat" => SatResult::Sat,
        "unsat" => SatResult::Unsat,
        "unknown" => SatResult::Unknown,
        _ => return None,
    };
    Some((key, verdict))
}

/// A root record whose functions lie in a space of `functions`.
fn parse_root(v: &JsonValue, functions: usize) -> Option<RootRecord> {
    let root = func_id(v.get("root")?, functions)?;
    let mut candidates = Vec::new();
    let mut lines = Vec::new();
    for item in v.get("candidates")?.as_array()? {
        let (bug, line) = parse_bug(item, root, functions)?;
        candidates.push(bug);
        lines.push(line);
    }
    let items = v.get("stats")?.as_array()?;
    let mut counters = [0u64; 7];
    if items.len() != counters.len() {
        return None;
    }
    for (counter, item) in counters.iter_mut().zip(items) {
        *counter = item.as_u64()?;
    }
    let reason = |key: &str| match v.get(key) {
        None => Some(None),
        Some(reason) => Some(Some(reason.as_str()?.to_owned())),
    };
    let (note, demoted) = (reason("note")?, reason("demoted")?);
    Some(RootRecord {
        root,
        closure_fp: parse_hex64(v.get("closure_fp")?.as_str()?)?,
        stats: record_stats(counters, candidates.len(), note.is_some()),
        candidates,
        lines,
        note,
        demoted,
    })
}

/// The function index `v` holds, when it lies in a space of `functions`.
fn func_id(v: &JsonValue, functions: usize) -> Option<FuncId> {
    let i = usize::try_from(v.as_u64()?).ok()?;
    (i < functions).then(|| FuncId::from_index(i))
}

fn parse_bug(v: &JsonValue, root: FuncId, functions: usize) -> Option<(PossibleBug, [u32; 2])> {
    let inst = |v: &JsonValue| -> Option<(InstId, u32)> {
        let id = InstId {
            func: func_id(v.get("func")?, functions)?,
            block: BlockId::from_index(u32::try_from(v.get("block")?.as_u64()?).ok()? as usize),
            inst: usize::try_from(v.get("inst")?.as_u64()?).ok()?,
        };
        Some((id, u32::try_from(v.get("line")?.as_u64()?).ok()?))
    };
    let constraints = |name: &str| -> Option<Arc<[Constraint]>> {
        v.get(name)?
            .as_array()?
            .iter()
            .map(parse_constraint)
            .collect()
    };
    let alias_paths = v
        .get("alias_paths")?
        .as_array()?
        .iter()
        .map(|p| p.as_str().map(str::to_owned))
        .collect::<Option<Arc<[_]>>>()?;
    let ((origin_id, origin_line), (site_id, site_line)) =
        (inst(v.get("origin")?)?, inst(v.get("site")?)?);
    let bug = PossibleBug {
        kind: BugKind::parse(v.get("kind")?.as_str()?)?,
        origin_id,
        site_id,
        constraints: constraints("constraints")?,
        extra: constraints("extra")?,
        alias_paths,
        root,
    };
    Some((bug, [origin_line, site_line]))
}

fn parse_constraint(v: &JsonValue) -> Option<Constraint> {
    Some(Constraint::new(
        parse_spelled(&CMP_OPS, v.get("op")?.as_str()?)?,
        parse_term(v.get("l")?)?,
        parse_term(v.get("r")?)?,
    ))
}

fn parse_term(v: &JsonValue) -> Option<Term> {
    if let Some(c) = v.get("c") {
        return Some(Term::Const(c.as_i64()?));
    }
    if let Some(s) = v.get("s") {
        return Some(Term::Sym(pata_smt::SymId(u32::try_from(s.as_u64()?).ok()?)));
    }
    let op = v.get("o")?.as_str()?;
    let a = parse_term(v.get("a")?)?;
    if op == "neg" {
        return Some(Term::Neg(Box::new(a)));
    }
    let b = parse_term(v.get("b")?)?;
    Some(match op {
        "+" => Term::Add(Box::new(a), Box::new(b)),
        "-" => Term::Sub(Box::new(a), Box::new(b)),
        "*" => Term::Mul(Box::new(a), Box::new(b)),
        other => Term::Opaque(parse_spelled(&OPAQUE_OPS, other)?, Box::new(a), Box::new(b)),
    })
}
