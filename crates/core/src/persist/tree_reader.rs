//! The store reader as it was before the one-pass reader: every line is
//! parsed into a [`JsonValue`] tree, which is then walked. It is the
//! oracle of the differential mutation test in `session::store_mutation`,
//! so its acceptance rules are the one-pass reader's specification.

use super::*;
use crate::json::JsonValue;
use std::collections::BTreeMap;

/// A store while the oracle reads it: the function database as a map, and
/// the names its records use.
struct TreeStore {
    functions: BTreeMap<String, u64>,
    names: Names<'static>,
    roots: Vec<RootRecord>,
    validation: Vec<(Vec<u8>, SatResult)>,
}

impl TreeStore {
    fn into_store(mut self) -> Store {
        let entries = self.functions.into_iter();
        Store {
            functions: FunctionDb::from_entries(entries.map(|(n, fp)| (n.into(), fp)).collect()),
            names: self.names.finish(&mut self.roots),
            roots: self.roots,
            validation: self.validation,
        }
    }
}

/// [`Store::parse`] through a tree.
pub(crate) fn parse(text: &str, expect_config_fp: u64) -> Option<Store> {
    parse_base(text, expect_config_fp).map(TreeStore::into_store)
}

fn parse_base(text: &str, expect_config_fp: u64) -> Option<TreeStore> {
    let doc = JsonValue::parse(text).ok()?;
    if doc.get("schema_version")?.as_u64()? != STORE_SCHEMA_VERSION {
        return None;
    }
    if parse_hex64(doc.get("config_fingerprint")?.as_str()?)? != expect_config_fp {
        return None;
    }
    let functions = function_entries(doc.get("functions")?)?
        .map(|entry| entry.map(|(name, fp)| (name.to_owned(), fp)))
        .collect::<Option<_>>()?;
    let mut names = Names::default();
    let mut roots = Vec::new();
    for item in doc.get("roots")?.as_array()? {
        roots.push(parse_root(item, &mut names)?);
    }
    let mut validation = Vec::new();
    for item in doc.get("validation")?.as_array()? {
        validation.push(parse_verdict(item)?);
    }
    Some(TreeStore {
        functions,
        names,
        roots,
        validation,
    })
}

/// [`Store::parse_file`] through a tree.
pub(crate) fn parse_file(text: &str, expect_config_fp: u64) -> Option<(Store, StoreFile)> {
    let mut lines = text.strip_suffix('\n')?.split('\n');
    let base = lines.next()?;
    let mut store = parse_base(base, expect_config_fp)?;
    let mut at: Option<Vec<Option<usize>>> = None;
    for line in lines {
        let at = at.get_or_insert_with(|| record_at(&store.roots, store.names.names.len(), Some));
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
    Some((store.into_store(), file))
}

fn apply_delta(store: &mut TreeStore, line: &str, at: &[Option<usize>]) -> Option<()> {
    let delta = JsonValue::parse(line).ok()?;
    for entry in function_entries(delta.get("functions")?)? {
        let (name, fp) = entry?;
        *store.functions.get_mut(name)? = fp;
    }
    for item in delta.get("roots")?.as_array()? {
        let record = parse_root(item, &mut store.names)?;
        let i = (*at.get(record.root.index())?)?;
        store.roots[i] = record;
    }
    for item in delta.get("validation")?.as_array()? {
        store.validation.push(parse_verdict(item)?);
    }
    Some(())
}

/// The entries of a `{name: "fp hex"}` object, each `None` when its value
/// is not a fingerprint; `None` when `v` is not an object.
fn function_entries(v: &JsonValue) -> Option<impl Iterator<Item = Option<(&str, u64)>>> {
    let JsonValue::Obj(fields) = v else {
        return None;
    };
    Some(
        fields
            .iter()
            .map(|(name, fp)| Some((name.as_str(), parse_hex64(fp.as_str()?)?))),
    )
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

fn parse_root(v: &JsonValue, names: &mut Names<'static>) -> Option<RootRecord> {
    let root = intern(names, v.get("root")?)?;
    let mut candidates = Vec::new();
    for item in v.get("candidates")?.as_array()? {
        candidates.push(parse_bug(item, names)?);
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
        note,
        demoted,
    })
}

/// The id of the name `v` holds.
fn intern(names: &mut Names<'static>, v: &JsonValue) -> Option<FuncId> {
    Some(names.intern(Cow::Owned(v.as_str()?.to_owned())))
}

fn parse_bug(v: &JsonValue, names: &mut Names<'static>) -> Option<PossibleBug> {
    let mut inst = |v: &JsonValue| -> Option<InstId> {
        Some(InstId {
            func: intern(names, v.get("func")?)?,
            block: BlockId::from_index(u32::try_from(v.get("block")?.as_u64()?).ok()? as usize),
            inst: usize::try_from(v.get("inst")?.as_u64()?).ok()?,
        })
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
    Some(PossibleBug {
        kind: BugKind::parse(v.get("kind")?.as_str()?)?,
        origin_id: inst(v.get("origin")?)?,
        site_id: inst(v.get("site")?)?,
        constraints: constraints("constraints")?,
        extra: constraints("extra")?,
        alias_paths,
        root: FuncId::from_index(0),
    })
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
