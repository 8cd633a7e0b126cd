//! The on-disk analysis store behind [`crate::AnalysisSession`].
//!
//! A store file's first line is one versioned JSON document, the base
//! (written through the same in-crate [`crate::json`] machinery as the
//! report schema), holding only what a later process cannot derive and
//! needs to skip re-exploring unchanged roots:
//!
//! * a **header** — [`STORE_SCHEMA_VERSION`] and a fingerprint of the
//!   verdict-relevant configuration;
//! * the **function database** (paper §4 P1: "records function information
//!   in a database") — one object mapping each function name to its
//!   fingerprint, the input to change detection;
//! * **per-root results** — the stage-1 candidates, exploration counters
//!   and budget note of each analysis root, keyed by the root's *closure
//!   fingerprint* (a hash over every function transitively reachable from
//!   it). A root whose closure fingerprint is unchanged is *clean*: its
//!   exploration is deterministic, so the cached candidates are exactly
//!   what re-exploring would produce. A record stores seven counters in
//!   a fixed order (see `stored_counters`); the reader derives the other
//!   three from the record itself. A candidate is its kind, its origin and
//!   site instructions (function name, block, index), its constraints and
//!   its alias paths: the module the instructions resolve against gives
//!   their source lines;
//! * the **validation cache** — stage-2 conjunction verdicts under their
//!   canonical keys (α-equivalent constraint systems share one entry).
//!
//! Each later line is a delta ([`StoreDelta`]) one save appended: the
//! root records it replaced, the function fingerprints it changed and the
//! verdicts it added. Loading applies the lines in order. A save that
//! changed anything else, or whose log would outgrow the base, rewrites
//! the whole file as a new base.
//!
//! In memory a root's result is one `RootRecord` whose root and
//! instructions are ids of a *function space*, a table of one name per
//! id: the session's module after a request, or after a load the names
//! the records use, in the order they use them (`Names`). Only
//! `write_root`/`write_bug` and the readers turn ids into names and back;
//! a request maps the previous space onto its module once.
//!
//! Loading reads each line once, through the pull reader
//! [`crate::json::Reader`], straight into [`Store`]: no `JsonValue` tree
//! and no `String` per key or name. It accepts what a tree walk would:
//! keys in any order, the first of two equal keys winning, unknown keys
//! skipped (their values must still be well-formed). A delta record
//! replaces the record of its root's interned id.
//!
//! Loading is infallible by design: a missing file, malformed JSON, a
//! torn last line, a schema-version bump or a configuration change all
//! degrade to a cold start (`None`), never an error. A stored candidate
//! that no longer resolves against the new module only marks its root
//! dirty: that root re-explores, and every other clean root still
//! replays its record. A full save goes through a temp file + rename, so
//! a crashed writer leaves either the old store or the new one, not a
//! truncated hybrid; an append that dies halfway leaves a last line
//! without its newline, which loads as a cold start.
//!
//! Function fingerprints are *structural*: one walk over the function's
//! PIR feeds tagged `u64` words to a stable mixer (see `Fingerprinter`).
//! Everything the explorer reads of a function enters the hash — its
//! instructions, operands, callee names, source lines and file names, and
//! the layouts of the struct types its variables carry — but no
//! module-global id does: variables hash by their first-occurrence
//! ordinal within the function, functions, fields, externs, files and
//! structs by name. So an edit re-fingerprints exactly the functions it
//! touches, even though it renumbers every variable lowered after it. An
//! edit that moves source lines still changes the functions below it in
//! the same file, which over-invalidates but never under-invalidates.

use crate::checkers::BugKind;
use crate::collector::CallGraph;
use crate::config::{AliasMode, AnalysisConfig};
use crate::faultinject::{self, FaultPlan};
use crate::fingerprint::{fnv64, mix};
use crate::json::{quote_into, JsonError, Reader};
use crate::report::PossibleBug;
use crate::stats::AnalysisStats;
use pata_ir::{
    BinOp, BlockId, Callee, ConstVal, FileId, FuncId, Function, InstId, InstKind, Loc, Module,
    Operand, StructId, Terminator, Type, VarId, VarKind,
};
use pata_smt::{CmpOp, Constraint, OpaqueOp, SatResult, Term};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Arc;

/// Version of the on-disk store schema. Bump on any change to the layout
/// or meaning of the document; [`Store::load`] treats a mismatch as a
/// cold start, so old stores are silently discarded, never misread.
///
/// Version 5 holds only what a restart cannot derive: the header is the
/// version and the configuration fingerprint, the function database is
/// one `{name: "fp hex"}` object, and a root record keeps seven counters
/// in one array, its budget reason as `note` and its demotion reason as
/// `demoted`, each written only when present. A candidate names its
/// origin and site instructions and no source position: a reader takes
/// the lines from the module it resolves the instructions against.
pub const STORE_SCHEMA_VERSION: u64 = 5;

// --------------------------------------------------------------------
// Fingerprints
// --------------------------------------------------------------------

/// A streaming hash over explicit `u64` words, each folded in through the
/// splitmix64 finalizer ([`mix`]). Every input has a fixed width (no
/// `usize`, no `#[derive(Hash)]`), so the value is stable across processes
/// and platforms and may be persisted; changing the encoding below is a
/// store schema change.
#[derive(Clone, Copy)]
struct StableHash(u64);

impl StableHash {
    fn new() -> Self {
        StableHash(0x2545_f491_4f6c_dd1d)
    }

    fn word(&mut self, w: u64) {
        self.0 = mix(self.0 ^ w);
    }

    /// A length-prefixed string, eight bytes per word.
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(buf));
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn str_word(s: &str) -> u64 {
    let mut h = StableHash::new();
    h.str(s);
    h.finish()
}

// Structural-hash tags. Every encoded item starts with one, and its
// variable-length parts are length-prefixed, so the encoding is
// unambiguous. A tag fits in the low 8 bits; small payloads (an ordinal,
// a line, an operator code) ride in the bits above it.
const T_VOID: u64 = 1;
const T_INT: u64 = 2;
const T_BOOL: u64 = 3;
const T_PTR: u64 = 4;
const T_STRUCT: u64 = 5;
const T_ARRAY: u64 = 6;
const T_VAR_FIRST: u64 = 7;
const T_VAR_AGAIN: u64 = 8;
const T_CONST_INT: u64 = 9;
const T_CONST_NULL: u64 = 10;
const T_MOVE: u64 = 11;
const T_CONST: u64 = 12;
const T_LOAD: u64 = 13;
const T_STORE: u64 = 14;
const T_GEP: u64 = 15;
const T_FUNC_ADDR: u64 = 16;
const T_ADDR_OF: u64 = 17;
const T_INDEX: u64 = 18;
const T_BIN: u64 = 19;
const T_CMP: u64 = 20;
const T_CALL: u64 = 21;
const T_ALLOCA: u64 = 22;
const T_MALLOC: u64 = 23;
const T_FREE: u64 = 24;
const T_MEMSET: u64 = 25;
const T_LOCK: u64 = 26;
const T_UNLOCK: u64 = 27;
const T_DIRECT: u64 = 28;
const T_EXTERNAL: u64 = 29;
const T_INDIRECT: u64 = 30;
const T_NO_DST: u64 = 31;
const T_JUMP: u64 = 32;
const T_BRANCH: u64 = 33;
const T_RET: u64 = 34;
const T_RET_VOID: u64 = 35;
const T_UNREACHABLE: u64 = 36;
const T_BLOCK: u64 = 37;
const T_LINE: u64 = 38;
const T_LINE_IN: u64 = 39;

fn bin_code(op: BinOp) -> u64 {
    match op {
        BinOp::Add => 1,
        BinOp::Sub => 2,
        BinOp::Mul => 3,
        BinOp::Div => 4,
        BinOp::Rem => 5,
        BinOp::And => 6,
        BinOp::Or => 7,
        BinOp::Xor => 8,
        BinOp::Shl => 9,
        BinOp::Shr => 10,
    }
}

fn cmp_code(op: pata_ir::CmpOp) -> u64 {
    match op {
        pata_ir::CmpOp::Eq => 1,
        pata_ir::CmpOp::Ne => 2,
        pata_ir::CmpOp::Lt => 3,
        pata_ir::CmpOp::Le => 4,
        pata_ir::CmpOp::Gt => 5,
        pata_ir::CmpOp::Ge => 6,
    }
}

fn kind_word(kind: VarKind) -> u64 {
    match kind {
        VarKind::Param => 1,
        VarKind::Local => 2,
        VarKind::Temp => 3,
        VarKind::Global => 4,
    }
}

fn type_into(h: &mut StableHash, ty: &Type, struct_word: &impl Fn(StructId) -> u64) {
    match ty {
        Type::Void => h.word(T_VOID),
        Type::Int => h.word(T_INT),
        Type::Bool => h.word(T_BOOL),
        Type::Ptr(inner) => {
            h.word(T_PTR);
            type_into(h, inner, struct_word);
        }
        Type::Array(elem) => {
            h.word(T_ARRAY);
            type_into(h, elem, struct_word);
        }
        Type::Struct(id) => {
            h.word(T_STRUCT);
            h.word(struct_word(*id));
        }
    }
}

/// Computes structural function fingerprints over one module.
///
/// The walk covers parameters, return type, blocks, instructions,
/// terminators and source locations, and no module-global id enters it:
///
/// * function-local variables hash by first-occurrence ordinal within the
///   function, with their kind, name and type hashed at that first
///   occurrence (globals likewise, which pins them by name and type);
/// * direct callees and `func-addr` operands hash by function name;
/// * fields and externs hash by their interned string;
/// * files hash by name;
/// * struct types hash by name plus field names and types two levels
///   deep, the depth the alias-unaware constraint accounting reads.
///
/// So an edit in one function leaves every other function's fingerprint
/// alone, even though it renumbers the variables lowered after it.
struct Fingerprinter<'m> {
    module: &'m Module,
    t: FingerprintTables,
    /// Per `VarId`: `(stamp, ordinal)` — the variable's first-occurrence
    /// ordinal in the function whose walk set `stamp`.
    seen: Vec<(u32, u32)>,
    /// The current function's stamp (its index plus one) and file.
    stamp: u32,
    file: FileId,
    /// Variables seen so far in the current function.
    next_ordinal: u32,
    h: StableHash,
}

/// The module-wide words a fingerprint walk reads. A module relowered in
/// place keeps its file, function and struct names and its struct
/// layouts, so the words stay valid for it.
#[derive(Debug, Default)]
struct FingerprintTables {
    /// Per `FileId`: the file name's hash.
    files: Vec<u64>,
    /// Per `FuncId`: the function name's hash.
    names: Vec<u64>,
    /// Per `StructId`: name plus fields two levels deep.
    structs: Vec<u64>,
}

impl FingerprintTables {
    fn new(module: &Module) -> Self {
        let defs = module.structs();
        // Level 2: the name only. Level 1: name plus fields whose struct
        // types stop at level 2. Level 0 (what types use): the same over
        // level-1 words.
        let names_only: Vec<u64> = defs.iter().map(|d| str_word(&d.name)).collect();
        let with_fields = |inner: &[u64]| -> Vec<u64> {
            defs.iter()
                .map(|d| {
                    let mut h = StableHash::new();
                    h.str(&d.name);
                    h.word(d.fields.len() as u64);
                    for (field, ty) in &d.fields {
                        h.str(module.interner.resolve(*field));
                        type_into(&mut h, ty, &|id: StructId| inner[id.index()]);
                    }
                    h.finish()
                })
                .collect()
        };
        let level1 = with_fields(&names_only);
        FingerprintTables {
            files: module.files().iter().map(|f| str_word(&f.name)).collect(),
            names: module
                .functions()
                .iter()
                .map(|f| str_word(f.name()))
                .collect(),
            structs: with_fields(&level1),
        }
    }
}

impl<'m> Fingerprinter<'m> {
    fn new(module: &'m Module) -> Self {
        Self::with_tables(module, FingerprintTables::new(module))
    }

    /// A walker over `module` with tables built for it, or for the module
    /// it was relowered in place from.
    fn with_tables(module: &'m Module, t: FingerprintTables) -> Self {
        debug_assert_eq!(t.names.len(), module.functions().len());
        debug_assert_eq!(t.files.len(), module.files().len());
        debug_assert_eq!(t.structs.len(), module.structs().len());
        Fingerprinter {
            module,
            t,
            seen: vec![(0, 0); module.var_count()],
            stamp: 0,
            file: FileId::from_index(0),
            next_ordinal: 0,
            h: StableHash::new(),
        }
    }

    fn ty(&mut self, ty: &Type) {
        let structs = &self.t.structs;
        type_into(&mut self.h, ty, &|id: StructId| structs[id.index()]);
    }

    fn var(&mut self, v: VarId) {
        let seen = &mut self.seen[v.index()];
        if seen.0 == self.stamp {
            self.h.word(T_VAR_AGAIN | u64::from(seen.1) << 8);
            return;
        }
        *seen = (self.stamp, self.next_ordinal);
        self.next_ordinal += 1;
        let info = self.module.var(v);
        self.h.word(T_VAR_FIRST | kind_word(info.kind) << 8);
        self.h.str(&info.name);
        self.ty(&info.ty);
    }

    fn operand(&mut self, op: &Operand) {
        match op {
            Operand::Var(v) => self.var(*v),
            Operand::Const(ConstVal::Int(c)) => {
                self.h.word(T_CONST_INT);
                self.h.word(*c as u64);
            }
            Operand::Const(ConstVal::Null) => self.h.word(T_CONST_NULL),
        }
    }

    fn loc(&mut self, loc: Loc) {
        if loc.file == self.file {
            self.h.word(T_LINE | u64::from(loc.line) << 8);
        } else {
            self.h.word(T_LINE_IN | u64::from(loc.line) << 8);
            self.h.word(self.t.files[loc.file.index()]);
        }
    }

    fn inst(&mut self, kind: &InstKind) {
        match kind {
            InstKind::Move { dst, src } => {
                self.h.word(T_MOVE);
                self.var(*dst);
                self.var(*src);
            }
            InstKind::Const { dst, value } => {
                self.h.word(T_CONST);
                self.var(*dst);
                self.operand(&Operand::Const(*value));
            }
            InstKind::Load { dst, addr } => {
                self.h.word(T_LOAD);
                self.var(*dst);
                self.var(*addr);
            }
            InstKind::Store { addr, val } => {
                self.h.word(T_STORE);
                self.var(*addr);
                self.operand(val);
            }
            InstKind::Gep { dst, base, field } => {
                self.h.word(T_GEP);
                self.var(*dst);
                self.var(*base);
                self.h.str(self.module.interner.resolve(*field));
            }
            InstKind::FuncAddr { dst, func } => {
                self.h.word(T_FUNC_ADDR);
                self.var(*dst);
                self.h.word(self.t.names[func.index()]);
            }
            InstKind::AddrOf { dst, src } => {
                self.h.word(T_ADDR_OF);
                self.var(*dst);
                self.var(*src);
            }
            InstKind::Index { dst, base, index } => {
                self.h.word(T_INDEX);
                self.var(*dst);
                self.var(*base);
                self.operand(index);
            }
            InstKind::Bin { dst, op, lhs, rhs } => {
                self.h.word(T_BIN | bin_code(*op) << 8);
                self.var(*dst);
                self.operand(lhs);
                self.operand(rhs);
            }
            InstKind::Cmp { dst, op, lhs, rhs } => {
                self.h.word(T_CMP | cmp_code(*op) << 8);
                self.var(*dst);
                self.operand(lhs);
                self.operand(rhs);
            }
            InstKind::Call { dst, callee, args } => {
                self.h.word(T_CALL);
                match dst {
                    Some(d) => self.var(*d),
                    None => self.h.word(T_NO_DST),
                }
                match callee {
                    Callee::Direct(f) => {
                        self.h.word(T_DIRECT);
                        self.h.word(self.t.names[f.index()]);
                    }
                    Callee::External(s) => {
                        self.h.word(T_EXTERNAL);
                        self.h.str(self.module.interner.resolve(*s));
                    }
                    Callee::Indirect(v) => {
                        self.h.word(T_INDIRECT);
                        self.var(*v);
                    }
                }
                self.h.word(args.len() as u64);
                for a in args {
                    self.operand(a);
                }
            }
            InstKind::Alloca { dst, storage } => {
                self.h.word(T_ALLOCA);
                self.var(*dst);
                self.h.word(u64::from(*storage));
            }
            InstKind::Malloc { dst } => {
                self.h.word(T_MALLOC);
                self.var(*dst);
            }
            InstKind::Free { ptr } => {
                self.h.word(T_FREE);
                self.var(*ptr);
            }
            InstKind::Memset { ptr } => {
                self.h.word(T_MEMSET);
                self.var(*ptr);
            }
            InstKind::Lock { obj } => {
                self.h.word(T_LOCK);
                self.var(*obj);
            }
            InstKind::Unlock { obj } => {
                self.h.word(T_UNLOCK);
                self.var(*obj);
            }
        }
    }

    fn terminator(&mut self, term: &Terminator) {
        match term {
            Terminator::Jump(b) => {
                self.h.word(T_JUMP);
                self.h.word(b.index() as u64);
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                self.h.word(T_BRANCH);
                self.var(*cond);
                self.h.word(then_bb.index() as u64);
                self.h.word(else_bb.index() as u64);
            }
            Terminator::Ret(Some(v)) => {
                self.h.word(T_RET);
                self.operand(v);
            }
            Terminator::Ret(None) => self.h.word(T_RET_VOID),
            Terminator::Unreachable => self.h.word(T_UNREACHABLE),
        }
    }

    /// The fingerprint of one function.
    fn function(&mut self, f: &Function) -> u64 {
        self.stamp = u32::try_from(f.id().index() + 1).expect("too many functions");
        self.file = f.file();
        self.next_ordinal = 0;
        self.h = StableHash::new();
        self.h.word(self.t.files[f.file().index()]);
        self.h.word(f.params().len() as u64);
        for &p in f.params() {
            self.var(p);
        }
        self.ty(f.ret_ty());
        self.h.word(f.entry().index() as u64);
        self.h.word(f.blocks().len() as u64);
        for block in f.blocks() {
            self.h.word(T_BLOCK);
            self.h.word(block.insts.len() as u64);
            for inst in &block.insts {
                self.inst(&inst.kind);
                self.loc(inst.loc);
            }
            self.terminator(&block.term);
            self.loc(block.term_loc);
        }
        self.h.finish()
    }
}

/// One closure member: the hash of a function's `(name, fingerprint)`
/// pair.
fn member_word(name_word: u64, fp: u64) -> u64 {
    let mut h = StableHash::new();
    h.word(name_word);
    h.word(fp);
    h.finish()
}

/// The closure fingerprint of a set of members: their wrapping sum (a
/// multiset hash, so no name sort is needed) bound to the set's size.
fn closure_word(sum: u64, count: u64) -> u64 {
    let mut h = StableHash::new();
    h.word(count);
    h.word(sum);
    h.finish()
}

/// Fingerprint of the verdict-relevant configuration. Two configurations
/// with equal fingerprints produce byte-identical reports on the same
/// input, so cached results can be shared between them. Deliberately
/// excluded: `threads`, `telemetry`, and the verdict-neutral switches
/// (`validation_cache`, `cow_state`) — the load-bearing determinism
/// invariant says they never change a verdict.
pub(crate) fn config_fingerprint(config: &AnalysisConfig) -> u64 {
    let mut text = String::new();
    for kind in &config.checkers {
        text.push_str(kind.as_str());
        text.push(',');
    }
    text.push_str(match config.alias_mode {
        AliasMode::PathBased => ";alias=path",
        AliasMode::None => ";alias=none",
    });
    let b = &config.budget;
    text.push_str(&format!(
        ";paths={};insts={};depth={};loops={};validate={};fptrs={}",
        b.max_paths,
        b.max_insts,
        b.max_call_depth,
        b.loop_iterations,
        config.validate_paths,
        config.resolve_fptrs,
    ));
    // Fault-containment knobs are verdict-relevant: a deadline or ceiling
    // can demote/quarantine a root (changing its stored verdicts), and a
    // fault plan injects failures by design — never share cached results
    // across different settings. Zero/none render as the historical empty
    // suffix so existing stores stay warm.
    if config.root_deadline_ms != 0 {
        text.push_str(&format!(";deadline_ms={}", config.root_deadline_ms));
    }
    if config.max_live_bytes != 0 {
        text.push_str(&format!(";max_live_bytes={}", config.max_live_bytes));
    }
    if let Some(plan) = &config.fault_plan {
        if !plan.spec().is_empty() {
            text.push_str(";faults=");
            text.push_str(plan.spec());
        }
    }
    fnv64(text.as_bytes())
}

/// The function database: every function's name mapped to its
/// fingerprint, sorted by name so serialization is deterministic and a
/// lookup is a binary search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FunctionDb {
    /// `(name, fingerprint)`, sorted by name, each name once. A database
    /// built from a module shares the module's function names.
    entries: Vec<(Arc<str>, u64)>,
}

impl FunctionDb {
    /// The database of `entries`, given in any order; of two entries with
    /// one name, the later wins.
    pub(crate) fn from_entries(mut entries: Vec<(Arc<str>, u64)>) -> FunctionDb {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        FunctionDb { entries }
    }

    /// How many functions the database holds.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The fingerprint of the function `name`.
    pub(crate) fn get(&self, name: &str) -> Option<u64> {
        self.at(name).map(|i| self.entries[i].1)
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut u64> {
        self.at(name).map(|i| &mut self.entries[i].1)
    }

    fn at(&self, name: &str) -> Option<usize> {
        self.entries.binary_search_by(|(n, _)| (**n).cmp(name)).ok()
    }

    /// `(name, fingerprint)` in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(name, fp)| (&**name, *fp))
    }

    /// Compares with `old`: how many functions changed (a different
    /// fingerprint) or appeared, and the shared names of the changed ones
    /// in name order, `None` when a function was added or removed. One
    /// walk over both sorted lists.
    pub(crate) fn diff(&self, old: &FunctionDb) -> (u64, Option<Vec<Arc<str>>>) {
        let mut names = Vec::new();
        let mut appeared = 0;
        let mut old_entries = old.entries.iter().peekable();
        for (name, fp) in &self.entries {
            while old_entries.next_if(|(o, _)| o < name).is_some() {}
            match old_entries.next_if(|(o, _)| o == name) {
                Some((_, old_fp)) if old_fp == fp => {}
                Some(_) => names.push(Arc::clone(name)),
                None => appeared += 1,
            }
        }
        let changed = (names.len() + appeared) as u64;
        // Every name is an old one and there are as many: the same names.
        let same_names = appeared == 0 && self.entries.len() == old.entries.len();
        (changed, same_names.then_some(names))
    }
}

/// Every fingerprint change detection needs for one module: the function
/// database plus, per function, its closure member word.
#[derive(Debug)]
pub(crate) struct ModuleFingerprints {
    pub(crate) db: FunctionDb,
    /// Per `FuncId`: [`member_word`] of the function's name and
    /// fingerprint. Empty for a database loaded from a store, which has no
    /// module.
    members: Vec<u64>,
    /// The walk's words over the module `members` describe, kept so that
    /// a refresh costs only the functions it walks. Empty for a database
    /// loaded from a store.
    tables: FingerprintTables,
}

impl ModuleFingerprints {
    /// A loaded function database, with no module behind it.
    pub(crate) fn from_db(db: FunctionDb) -> ModuleFingerprints {
        ModuleFingerprints {
            db,
            members: Vec::new(),
            tables: FingerprintTables::default(),
        }
    }

    /// Fingerprints `funcs` again after they were lowered again in place
    /// into `module`, the module these fingerprints were built on, and
    /// returns the shared names of those whose value changed. No other
    /// function's fingerprint can have moved: the splice renumbered only
    /// variables, and fingerprints number variables per function. The kept
    /// words serve the walk: relowering in place keeps every name and
    /// struct.
    pub(crate) fn refresh(&mut self, module: &Module, funcs: &[FuncId]) -> Vec<Arc<str>> {
        debug_assert_eq!(self.members.len(), module.functions().len());
        let mut changed = Vec::new();
        if funcs.is_empty() {
            return changed;
        }
        let mut fp = Fingerprinter::with_tables(module, std::mem::take(&mut self.tables));
        for &id in funcs {
            let f = module.function(id);
            let value = fp.function(f);
            let entry = self
                .db
                .get_mut(f.name())
                .expect("a function lowered again keeps its name");
            if *entry != value {
                *entry = value;
                changed.push(Arc::clone(f.shared_name()));
            }
            self.members[id.index()] = member_word(fp.t.names[id.index()], value);
        }
        self.tables = fp.t;
        changed
    }

    /// Fingerprints every function of `module` in one structural walk.
    /// Names are the cross-process identity of functions; lowering
    /// refuses a duplicate definition, so no two functions share one.
    pub(crate) fn build(module: &Module) -> ModuleFingerprints {
        let mut fp = Fingerprinter::new(module);
        let mut entries = Vec::with_capacity(module.functions().len());
        let mut members = Vec::with_capacity(module.functions().len());
        for f in module.functions() {
            let value = fp.function(f);
            entries.push((Arc::clone(f.shared_name()), value));
            members.push(member_word(fp.t.names[f.id().index()], value));
        }
        let db = FunctionDb::from_entries(entries);
        assert_eq!(
            db.len(),
            module.functions().len(),
            "lowering refuses a duplicate function"
        );
        ModuleFingerprints {
            db,
            members,
            tables: fp.t,
        }
    }

    /// The closure fingerprint of each of `roots`, in order: a hash over
    /// the `(name, fingerprint)` pairs of every function transitively
    /// reachable from the root through direct calls. Each walk visits only
    /// the root's reachable set. With `resolve_fptrs` the explorer can
    /// enter *any* function whose address flows along a path, so every
    /// closure conservatively widens to the whole module, hashed once.
    pub(crate) fn closure_fps(
        &self,
        graph: &CallGraph,
        roots: &[FuncId],
        resolve_fptrs: bool,
    ) -> Vec<u64> {
        if resolve_fptrs {
            let sum = self.members.iter().fold(0u64, |a, &m| a.wrapping_add(m));
            let whole = closure_word(sum, self.members.len() as u64);
            return vec![whole; roots.len()];
        }
        // `visited[f] == stamp` marks `f` as reached by the current root's
        // walk; bumping the stamp resets the set without touching it.
        let mut visited = vec![0u32; self.members.len()];
        let mut stack = Vec::new();
        roots
            .iter()
            .zip(1u32..)
            .map(|(&root, stamp)| {
                visited[root.index()] = stamp;
                stack.push(root);
                let (mut sum, mut count) = (0u64, 0u64);
                while let Some(f) = stack.pop() {
                    sum = sum.wrapping_add(self.members[f.index()]);
                    count += 1;
                    for &callee in &graph.callees[f.index()] {
                        if visited[callee.index()] != stamp {
                            visited[callee.index()] = stamp;
                            stack.push(callee);
                        }
                    }
                }
                closure_word(sum, count)
            })
            .collect()
    }
}

// --------------------------------------------------------------------
// Root records
// --------------------------------------------------------------------

/// One root's exploration result in a function space (see the module
/// docs). A candidate's source lines are read from the module its
/// instructions belong to ([`Module::loc_of`]): an unchanged closure
/// fingerprint means unchanged lines. SMT symbol ids are kept verbatim:
/// exploration is deterministic, so an unchanged root assigns the same
/// `SymId`s again.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RootRecord {
    pub(crate) root: FuncId,
    /// Closure fingerprint at the time the result was recorded.
    pub(crate) closure_fp: u64,
    /// Stage-1 candidates in exploration order, each with `root` as root.
    pub(crate) candidates: Vec<PossibleBug>,
    /// The root's exploration counters (`time` is not persisted — replayed
    /// roots contribute zero wall-clock, which is the point).
    pub(crate) stats: AnalysisStats,
    /// Which budget truncated the exploration, if one did.
    pub(crate) note: Option<String>,
    /// Why the fault-containment ladder demoted the root, if it did: a
    /// replay reports the demotion again. A quarantined root has no record.
    pub(crate) demoted: Option<String>,
}

impl RootRecord {
    /// Moves the record into another function space, where `to` gives
    /// each function's id. `None`, with the record half moved, when `to`
    /// lacks a function.
    pub(crate) fn renumber(&mut self, mut to: impl FnMut(FuncId) -> Option<FuncId>) -> Option<()> {
        self.root = to(self.root)?;
        for bug in &mut self.candidates {
            bug.root = self.root;
            bug.origin_id.func = to(bug.origin_id.func)?;
            bug.site_id.func = to(bug.site_id.func)?;
        }
        Some(())
    }
}

/// Per function id of a space of `len` functions: the index of the last
/// of `records` whose root `to` maps to it.
pub(crate) fn record_at(
    records: &[RootRecord],
    len: usize,
    to: impl Fn(FuncId) -> Option<FuncId>,
) -> Vec<Option<usize>> {
    let mut at = vec![None; len];
    for (i, record) in records.iter().enumerate() {
        if let Some(f) = to(record.root) {
            at[f.index()] = Some(i);
        }
    }
    at
}

/// The function names a store's records use while the store is read,
/// each interned once, numbered in order of first use and borrowed from
/// the file where it can. [`Names::finish`] turns them into the store's
/// function space.
#[derive(Debug, Default)]
pub(crate) struct Names<'a> {
    ids: HashMap<Cow<'a, str>, FuncId>,
    names: Vec<Cow<'a, str>>,
    /// The id interned last.
    last: Option<FuncId>,
}

impl<'a> Names<'a> {
    /// The id of `name`. A candidate's functions are mostly its record's
    /// root, interned just before, so that name is compared first.
    pub(crate) fn intern(&mut self, name: Cow<'a, str>) -> FuncId {
        if let Some(last) = self.last.filter(|l| self.names[l.index()] == name) {
            return last;
        }
        let next = FuncId::from_index(self.names.len());
        let id = *self.ids.entry(name).or_insert_with_key(|name| {
            self.names.push(name.clone());
            next
        });
        self.last = Some(id);
        id
    }

    /// The canonical function space of `records`, with every record
    /// renumbered into it: the names they use, in the order they use them
    /// (a root, then its candidates' origin and site functions). Neither
    /// key order nor a replaced record moves a name, so two readings of one
    /// store meaning give equal stores.
    pub(crate) fn finish(self, records: &mut [RootRecord]) -> Arc<[Arc<str>]> {
        let mut to: Vec<Option<FuncId>> = vec![None; self.names.len()];
        let mut order = Vec::new();
        for record in records.iter_mut() {
            record.renumber(|f| {
                Some(*to[f.index()].get_or_insert_with(|| {
                    order.push(f.index());
                    FuncId::from_index(order.len() - 1)
                }))
            });
        }
        order.iter().map(|&i| Arc::from(&*self.names[i])).collect()
    }
}

// --------------------------------------------------------------------
// The store document
// --------------------------------------------------------------------

/// An in-memory image of the on-disk store.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Store {
    /// The function database: `(name, fingerprint)`, sorted by name.
    pub(crate) functions: FunctionDb,
    /// The function space of `roots`: the names they use, in the order
    /// they use them ([`Names::finish`]).
    pub(crate) names: Arc<[Arc<str>]>,
    /// Per-root cached results, in the recorded root order.
    pub(crate) roots: Vec<RootRecord>,
    /// Stage-2 verdicts under canonical keys, sorted by key.
    pub(crate) validation: Vec<(Vec<u8>, SatResult)>,
}

/// A store document over borrowed parts: what a save serializes, without
/// copying the session's warm state into a [`Store`] first.
#[derive(Debug)]
pub(crate) struct StoreDoc<'a> {
    /// Fingerprint of the verdict-relevant configuration.
    pub(crate) config_fp: u64,
    /// The function database.
    pub(crate) functions: &'a FunctionDb,
    /// The name of each function of the records' space.
    pub(crate) names: &'a [Arc<str>],
    /// Per-root cached results, in the recorded root order.
    pub(crate) roots: &'a [RootRecord],
    /// Stage-2 verdicts under canonical keys, sorted by key.
    pub(crate) validation: &'a [(Vec<u8>, SatResult)],
}

/// What one request changed in a store that equalled the session's warm
/// state before it: the only changes a save may append as one delta line
/// instead of rewriting the whole store.
#[derive(Debug)]
pub(crate) struct StoreDelta<'a> {
    /// Functions whose fingerprint changed, with the new fingerprint.
    pub(crate) functions: Vec<(&'a str, u64)>,
    /// The name of each function of the records' space.
    pub(crate) names: &'a [Arc<str>],
    /// Root records that replace the stored records of the same root.
    pub(crate) roots: Vec<&'a RootRecord>,
    /// Verdicts added since the store was last read or written, sorted by
    /// key.
    pub(crate) validation: &'a [(Vec<u8>, SatResult)],
}

/// The extent of a store file as this process last read or wrote it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoreFile {
    /// Bytes of the base document's line, its newline included.
    pub(crate) base: u64,
    /// Bytes of the whole file: the base line and the delta lines after it.
    pub(crate) len: u64,
}

impl StoreFile {
    /// Whether a delta line of `line` bytes may be appended: the log after
    /// the base must stay no larger than the base. Past that, the save
    /// rewrites the whole store, which compacts the log.
    fn fits(&self, line: usize) -> bool {
        self.len - self.base + line as u64 <= self.base
    }
}

impl Store {
    /// Reads a base document written with the *current* schema version
    /// and `expect_config_fp`, interning the names its records use into
    /// `names` and leaving the store's space empty. Any deviation —
    /// malformed JSON, version or fingerprint mismatch, missing or
    /// mistyped field — yields `None`: the caller starts cold. Keys may
    /// come in any order, the first of two equal keys wins, and unknown
    /// keys are ignored.
    fn read_base<'a>(text: &'a str, expect_config_fp: u64, names: &mut Names<'a>) -> Option<Store> {
        let mut r = Reader::new(text);
        let mut version = None;
        let mut config_fp = None;
        let mut functions = None;
        let mut roots = None;
        let mut validation = None;
        each_field(&mut r, |r, key| {
            match &*key {
                "schema_version" if version.is_none() => version = Some(read(r.int())?),
                "config_fingerprint" if config_fp.is_none() => config_fp = Some(read_hex64(r)?),
                "functions" if functions.is_none() => {
                    let mut entries = Vec::new();
                    each_field(r, |r, name| {
                        entries.push((Arc::from(&*name), read_hex64(r)?));
                        Some(())
                    })?;
                    functions = Some(FunctionDb::from_entries(entries));
                }
                "roots" if roots.is_none() => {
                    roots = Some(read_list(r, |r| read_root(r, names))?);
                }
                "validation" if validation.is_none() => {
                    validation = Some(read_list(r, read_verdict)?);
                }
                _ => r.skip_value().ok()?,
            }
            Some(())
        })?;
        r.finish().ok()?;
        let current = i64::try_from(STORE_SCHEMA_VERSION).ok();
        if version != current || config_fp != Some(expect_config_fp) {
            return None;
        }
        Some(Store {
            functions: functions?,
            names: Arc::default(),
            roots: roots?,
            validation: validation?,
        })
    }

    /// Parses a whole store file: the base document on the first line,
    /// then each delta line applied in order. Every line ends in a
    /// newline. A torn last line, a line that does not parse, or a delta
    /// naming a function or root the store lacks yields `None`: the caller
    /// starts cold.
    pub(crate) fn parse_file(text: &str, expect_config_fp: u64) -> Option<(Store, StoreFile)> {
        let mut lines = text.strip_suffix('\n')?.split('\n');
        let base = lines.next()?;
        let mut names = Names::default();
        // Room for a name per 128 bytes: reading rarely grows the table.
        names.ids.reserve(text.len() / 128);
        let mut store = Store::read_base(base, expect_config_fp, &mut names)?;
        let mut at: Option<Vec<Option<usize>>> = None;
        for line in lines {
            let at = at.get_or_insert_with(|| record_at(&store.roots, names.names.len(), Some));
            store.apply_delta(line, &mut names, at)?;
        }
        if at.is_some() {
            store.validation.sort_by(|(a, _), (b, _)| a.cmp(b));
            store.validation.dedup_by(|(a, _), (b, _)| a == b);
        }
        store.names = names.finish(&mut store.roots);
        let file = StoreFile {
            base: base.len() as u64 + 1,
            len: text.len() as u64,
        };
        Some((store, file))
    }

    /// Applies one delta line; `at` gives the record of each root the base
    /// document interned.
    fn apply_delta<'a>(
        &mut self,
        line: &'a str,
        names: &mut Names<'a>,
        at: &[Option<usize>],
    ) -> Option<()> {
        let mut r = Reader::new(line);
        let (mut functions, mut roots, mut validation) = (false, false, false);
        each_field(&mut r, |r, key| {
            match &*key {
                "functions" if !functions => {
                    functions = true;
                    each_field(r, |r, name| {
                        let fp = read_hex64(r)?;
                        *self.functions.get_mut(&name)? = fp;
                        Some(())
                    })?;
                }
                "roots" if !roots => {
                    roots = true;
                    each_item(r, |r| {
                        let record = read_root(r, names)?;
                        let i = (*at.get(record.root.index())?)?;
                        self.roots[i] = record;
                        Some(())
                    })?;
                }
                "validation" if !validation => {
                    validation = true;
                    each_item(r, |r| {
                        self.validation.push(read_verdict(r)?);
                        Some(())
                    })?;
                }
                _ => r.skip_value().ok()?,
            }
            Some(())
        })?;
        r.finish().ok()?;
        (functions && roots && validation).then_some(())
    }

    /// Loads a store from disk. Infallible: any I/O or parse problem is a
    /// cold start.
    pub(crate) fn load(path: &Path, expect_config_fp: u64) -> Option<(Store, StoreFile)> {
        let text = std::fs::read_to_string(path).ok()?;
        Store::parse_file(&text, expect_config_fp)
    }
}

impl StoreDoc<'_> {
    /// Serializes the store to its versioned JSON document.
    /// Every writer below appends to one `String` (`write!` into a
    /// `String` cannot fail), so a save allocates only as the document
    /// grows.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema_version\": {STORE_SCHEMA_VERSION}, \"config_fingerprint\": \"{:016x}\", \
             \"functions\": ",
            self.config_fp
        );
        write_functions(&mut out, self.functions.iter());
        out.push_str(", \"roots\": [");
        write_list(&mut out, self.roots, |out, r| {
            write_root(out, r, self.names)
        });
        out.push_str("], \"validation\": [");
        write_list(&mut out, self.validation, write_verdict);
        out.push_str("]}");
        out
    }

    /// Writes the store atomically as a base document with no log (temp
    /// file in the same directory, then rename), with fault-injection
    /// crash points around the temp+rename protocol. Each `store.save.*`
    /// site simulates a process killed at that exact instant (a panic the
    /// crash-safety tests catch); the plain `store.save` site yields an IO
    /// error the session treats like any other failed save. Whatever the
    /// crash point, the next [`Store::load`] sees either the old store,
    /// the new store, or a stray `.tmp` it never reads — all of which
    /// cold-start cleanly.
    pub(crate) fn save_with_faults(
        &self,
        path: &Path,
        fault: Option<&FaultPlan>,
    ) -> io::Result<StoreFile> {
        faultinject::maybe_io(fault, "store.save")?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        faultinject::maybe_panic(fault, "store.save.before_tmp", "");
        let mut json = self.to_json();
        json.push('\n');
        if fault.is_some_and(|p| p.should_fire("store.save.mid_tmp", "")) {
            // Simulate dying halfway through the temp write: leave a
            // truncated temp file behind, then "crash".
            let _ = std::fs::write(&tmp, &json.as_bytes()[..json.len() / 2]);
            panic!("fault injected: store.save.mid_tmp");
        }
        let len = json.len() as u64;
        std::fs::write(&tmp, json)?;
        faultinject::maybe_panic(fault, "store.save.before_rename", "");
        std::fs::rename(&tmp, path)?;
        faultinject::maybe_panic(fault, "store.save.after_rename", "");
        Ok(StoreFile { base: len, len })
    }
}

impl StoreDelta<'_> {
    /// The delta as one line of the store file, its newline included.
    pub(crate) fn to_line(&self) -> String {
        let mut out = String::from("{\"functions\": ");
        write_functions(&mut out, self.functions.iter().copied());
        out.push_str(", \"roots\": [");
        write_list(&mut out, &self.roots, |out, r| {
            write_root(out, r, self.names)
        });
        out.push_str("], \"validation\": [");
        write_list(&mut out, self.validation, write_verdict);
        out.push_str("]}\n");
        out
    }

    /// Appends the delta to the store at `path` in one `write`, when the
    /// file is still the `file` this process last read or wrote and the
    /// log stays no larger than the base. Returns `Ok(None)`, having
    /// written nothing, when it may not: the caller then rewrites the
    /// whole store. The `store.save` IO fault applies as in
    /// [`StoreDoc::save_with_faults`]; the `store.save.mid_append` crash
    /// point writes half the line and "crashes", leaving a torn last line
    /// the next [`Store::load`] treats as a cold start.
    pub(crate) fn append_with_faults(
        &self,
        path: &Path,
        file: StoreFile,
        fault: Option<&FaultPlan>,
    ) -> io::Result<Option<StoreFile>> {
        let line = self.to_line();
        if !file.fits(line.len()) {
            return Ok(None);
        }
        let Ok(mut out) = std::fs::OpenOptions::new().append(true).open(path) else {
            return Ok(None);
        };
        if out.metadata().map(|m| m.len()).ok() != Some(file.len) {
            return Ok(None);
        }
        faultinject::maybe_io(fault, "store.save")?;
        if fault.is_some_and(|p| p.should_fire("store.save.mid_append", "")) {
            let _ = out.write_all(&line.as_bytes()[..line.len() / 2]);
            panic!("fault injected: store.save.mid_append");
        }
        out.write_all(line.as_bytes())?;
        Ok(Some(StoreFile {
            base: file.base,
            len: file.len + line.len() as u64,
        }))
    }
}

// --------------------------------------------------------------------
// JSON helpers (roots, bugs, constraints, stats)
// --------------------------------------------------------------------

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// The value of a read, `None` for malformed JSON or a value of another
/// type alike: either way the store is a cold start.
fn read<T>(value: Result<Option<T>, JsonError>) -> Option<T> {
    value.ok().flatten()
}

/// Reads a `"fp hex"` string.
fn read_hex64(r: &mut Reader) -> Option<u64> {
    parse_hex64(&read(r.str())?)
}

/// Reads an object, handing each key to `field` with its value next;
/// `None` when the value is not an object or `field` fails.
fn each_field<'a>(
    r: &mut Reader<'a>,
    mut field: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Option<()>,
) -> Option<()> {
    if !r.begin_object().ok()? {
        return None;
    }
    while let Some(key) = r.next_key().ok()? {
        field(r, key)?;
    }
    Some(())
}

/// Reads an array, calling `item` with each item next; `None` when the
/// value is not an array or `item` fails.
fn each_item<'a>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Option<()>,
) -> Option<()> {
    if !r.begin_array().ok()? {
        return None;
    }
    while r.next_item().ok()? {
        item(r)?;
    }
    Some(())
}

/// Reads an array whose every item `item` reads.
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Option<T>,
) -> Option<Vec<T>> {
    let mut out = Vec::new();
    each_item(r, |r| {
        out.push(item(r)?);
        Some(())
    })?;
    Some(out)
}

/// Writes `items` separated by `, `.
fn write_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write(out, item);
    }
}

/// Writes function fingerprints as one `{name: "fp hex"}` object.
fn write_functions<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, u64)>) {
    out.push('{');
    write_list(out, entries, |out, (name, fp)| {
        quote_into(out, name);
        let _ = write!(out, ": \"{fp:016x}\"");
    });
    out.push('}');
}

fn write_verdict(out: &mut String, (key, verdict): &(Vec<u8>, SatResult)) {
    out.push_str("{\"key\": \"");
    for b in key {
        let _ = write!(out, "{b:02x}");
    }
    out.push_str("\", \"verdict\": \"");
    out.push_str(spell(&VERDICTS, *verdict));
    out.push_str("\"}");
}

fn read_verdict(r: &mut Reader) -> Option<(Vec<u8>, SatResult)> {
    let (mut key, mut verdict) = (None, None);
    each_field(r, |r, name| {
        match &*name {
            "key" if key.is_none() => key = Some(parse_hex_bytes(&read(r.str())?)?),
            "verdict" if verdict.is_none() => {
                verdict = Some(parse_spelled(&VERDICTS, &read(r.str())?)?);
            }
            _ => r.skip_value().ok()?,
        }
        Some(())
    })?;
    Some((key?, verdict?))
}

fn parse_hex_bytes(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

/// The counters a root record stores, in their on-disk order: the ones the
/// explorer adds up that nothing else in the record implies. The reader
/// sets the other three (see [`record_stats`]).
fn stored_counters(s: &AnalysisStats) -> [u64; 7] {
    [
        s.paths_explored,
        s.insts_processed,
        s.typestates_aware,
        s.typestates_unaware,
        s.constraints_aware,
        s.constraints_unaware,
        s.repeated_bugs_dropped,
    ]
}

/// A root record's statistics from its stored counters: `roots` is 1,
/// since a quarantined root is never stored; `candidates` is the record's
/// candidate count, since the explorer counts one per candidate it keeps;
/// and `budget_exhausted_roots` is whether the record has a budget note,
/// since the explorer names a reason exactly when it exhausts a budget.
fn record_stats(c: [u64; 7], candidates: usize, note: bool) -> AnalysisStats {
    AnalysisStats {
        roots: 1,
        paths_explored: c[0],
        insts_processed: c[1],
        typestates_aware: c[2],
        typestates_unaware: c[3],
        constraints_aware: c[4],
        constraints_unaware: c[5],
        repeated_bugs_dropped: c[6],
        candidates: candidates as u64,
        budget_exhausted_roots: u64::from(note),
        ..AnalysisStats::default()
    }
}

fn write_root(out: &mut String, r: &RootRecord, names: &[Arc<str>]) {
    let counters = stored_counters(&r.stats);
    debug_assert_eq!(
        r.stats,
        record_stats(counters, r.candidates.len(), r.note.is_some()),
        "a root record's statistics are its stored counters"
    );
    out.push_str("{\"root\": ");
    quote_into(out, &names[r.root.index()]);
    let _ = write!(out, ", \"closure_fp\": \"{:016x}\"", r.closure_fp);
    out.push_str(", \"candidates\": [");
    write_list(out, &r.candidates, |out, b| write_bug(out, b, names));
    out.push_str("], \"stats\": [");
    write_list(out, counters, |out, n| {
        let _ = write!(out, "{n}");
    });
    out.push(']');
    if let Some(reason) = &r.note {
        out.push_str(", \"note\": ");
        quote_into(out, reason);
    }
    if let Some(reason) = &r.demoted {
        out.push_str(", \"demoted\": ");
        quote_into(out, reason);
    }
    out.push('}');
}

fn read_root<'a>(r: &mut Reader<'a>, names: &mut Names<'a>) -> Option<RootRecord> {
    let mut root = None;
    let mut closure_fp = None;
    let mut candidates = None;
    let mut counters = None;
    let mut note = None;
    let mut demoted = None;
    each_field(r, |r, key| {
        match &*key {
            "root" if root.is_none() => root = Some(names.intern(read(r.str())?)),
            "closure_fp" if closure_fp.is_none() => closure_fp = Some(read_hex64(r)?),
            "candidates" if candidates.is_none() => {
                candidates = Some(read_list(r, |r| read_bug(r, names))?);
            }
            "stats" if counters.is_none() => counters = Some(read_counters(r)?),
            "note" if note.is_none() => note = Some(read(r.str())?.into_owned()),
            "demoted" if demoted.is_none() => demoted = Some(read(r.str())?.into_owned()),
            _ => r.skip_value().ok()?,
        }
        Some(())
    })?;
    let root = root?;
    let candidates: Vec<PossibleBug> = candidates?;
    Some(RootRecord {
        stats: record_stats(counters?, candidates.len(), note.is_some()),
        closure_fp: closure_fp?,
        root,
        candidates,
        note,
        demoted,
    })
}

/// Reads a record's `stats`: exactly seven non-negative integers.
fn read_counters(r: &mut Reader) -> Option<[u64; 7]> {
    let mut counters = [0u64; 7];
    let mut n = 0;
    each_item(r, |r| {
        *counters.get_mut(n)? = u64::try_from(read(r.int())?).ok()?;
        n += 1;
        Some(())
    })?;
    (n == counters.len()).then_some(counters)
}

fn write_bug(out: &mut String, b: &PossibleBug, names: &[Arc<str>]) {
    let inst = |out: &mut String, id: InstId| {
        out.push_str("{\"func\": ");
        quote_into(out, &names[id.func.index()]);
        let (block, inst) = (id.block.index(), id.inst);
        let _ = write!(out, ", \"block\": {block}, \"inst\": {inst}}}");
    };
    out.push_str("{\"kind\": ");
    quote_into(out, b.kind.as_str());
    out.push_str(", \"origin\": ");
    inst(out, b.origin_id);
    out.push_str(", \"site\": ");
    inst(out, b.site_id);
    out.push_str(", \"constraints\": [");
    write_list(out, b.constraints.iter(), write_constraint);
    out.push_str("], \"extra\": [");
    write_list(out, b.extra.iter(), write_constraint);
    out.push_str("], \"alias_paths\": [");
    write_list(out, b.alias_paths.iter(), |out, p| quote_into(out, p));
    out.push_str("]}");
}

/// Reads a candidate; its `root` is left for [`Names::finish`] to set.
fn read_bug<'a>(r: &mut Reader<'a>, names: &mut Names<'a>) -> Option<PossibleBug> {
    let mut kind = None;
    let mut origin = None;
    let mut site = None;
    let mut constraints = None;
    let mut extra = None;
    let mut alias_paths = None;
    each_field(r, |r, key| {
        match &*key {
            "kind" if kind.is_none() => kind = Some(BugKind::parse(&read(r.str())?)?),
            "origin" if origin.is_none() => origin = Some(read_inst(r, names)?),
            "site" if site.is_none() => site = Some(read_inst(r, names)?),
            "constraints" if constraints.is_none() => {
                constraints = Some(read_list(r, read_constraint)?);
            }
            "extra" if extra.is_none() => extra = Some(read_list(r, read_constraint)?),
            "alias_paths" if alias_paths.is_none() => {
                alias_paths = Some(read_list(r, |r| Some(read(r.str())?.into_owned()))?);
            }
            _ => r.skip_value().ok()?,
        }
        Some(())
    })?;
    Some(PossibleBug {
        kind: kind?,
        origin_id: origin?,
        site_id: site?,
        constraints: constraints?.into(),
        extra: extra?.into(),
        alias_paths: alias_paths?.into(),
        root: FuncId::from_index(0),
    })
}

/// Reads an instruction: its function's name, interned, and its block and
/// instruction indices. A block index is a `u32`, as in any module.
fn read_inst<'a>(r: &mut Reader<'a>, names: &mut Names<'a>) -> Option<InstId> {
    let (mut func, mut block, mut inst) = (None, None, None);
    each_field(r, |r, key| {
        match &*key {
            "func" if func.is_none() => func = Some(names.intern(read(r.str())?)),
            "block" if block.is_none() => block = Some(u32::try_from(read(r.int())?).ok()?),
            "inst" if inst.is_none() => inst = Some(usize::try_from(read(r.int())?).ok()?),
            _ => r.skip_value().ok()?,
        }
        Some(())
    })?;
    Some(InstId {
        func: func?,
        block: BlockId::from_index(block? as usize),
        inst: inst?,
    })
}

// --------------------------------------------------------------------
// Constraint / term serialization
// --------------------------------------------------------------------

/// Each comparison operator with its spelling in the store.
const CMP_OPS: [(CmpOp, &str); 6] = [
    (CmpOp::Eq, "=="),
    (CmpOp::Ne, "!="),
    (CmpOp::Lt, "<"),
    (CmpOp::Le, "<="),
    (CmpOp::Gt, ">"),
    (CmpOp::Ge, ">="),
];

/// Each opaque operator with its spelling in the store.
const OPAQUE_OPS: [(OpaqueOp, &str); 8] = [
    (OpaqueOp::Mul, "mul"),
    (OpaqueOp::Div, "div"),
    (OpaqueOp::Rem, "rem"),
    (OpaqueOp::And, "and"),
    (OpaqueOp::Or, "or"),
    (OpaqueOp::Xor, "xor"),
    (OpaqueOp::Shl, "shl"),
    (OpaqueOp::Shr, "shr"),
];

/// Each verdict with its spelling in the store.
const VERDICTS: [(SatResult, &str); 3] = [
    (SatResult::Sat, "sat"),
    (SatResult::Unsat, "unsat"),
    (SatResult::Unknown, "unknown"),
];

/// The spelling of `value` in `table`, which spells every value.
fn spell<T: PartialEq>(table: &[(T, &'static str)], value: T) -> &'static str {
    table.iter().find(|(v, _)| *v == value).expect("spelled").1
}

/// The value spelled `s` in `table`.
fn parse_spelled<T: Copy>(table: &[(T, &str)], s: &str) -> Option<T> {
    table.iter().find(|(_, t)| *t == s).map(|(v, _)| *v)
}

fn write_constraint(out: &mut String, c: &Constraint) {
    let _ = write!(out, "{{\"op\": \"{}\", \"l\": ", spell(&CMP_OPS, c.op));
    write_term(out, &c.lhs);
    out.push_str(", \"r\": ");
    write_term(out, &c.rhs);
    out.push('}');
}

fn read_constraint(r: &mut Reader) -> Option<Constraint> {
    let (mut op, mut lhs, mut rhs) = (None, None, None);
    each_field(r, |r, key| {
        match &*key {
            "op" if op.is_none() => op = Some(parse_spelled(&CMP_OPS, &read(r.str())?)?),
            "l" if lhs.is_none() => lhs = Some(read(read_term(r))?),
            "r" if rhs.is_none() => rhs = Some(read(read_term(r))?),
            _ => r.skip_value().ok()?,
        }
        Some(())
    })?;
    Some(Constraint::new(op?, lhs?, rhs?))
}

fn write_term(out: &mut String, t: &Term) {
    match t {
        Term::Const(v) => {
            let _ = write!(out, "{{\"c\": {v}}}");
        }
        Term::Sym(s) => {
            let _ = write!(out, "{{\"s\": {}}}", s.0);
        }
        Term::Add(a, b) => write_binary(out, "+", a, b),
        Term::Sub(a, b) => write_binary(out, "-", a, b),
        Term::Mul(a, b) => write_binary(out, "*", a, b),
        Term::Opaque(op, a, b) => write_binary(out, spell(&OPAQUE_OPS, *op), a, b),
        Term::Neg(a) => {
            out.push_str("{\"o\": \"neg\", \"a\": ");
            write_term(out, a);
            out.push('}');
        }
    }
}

fn write_binary(out: &mut String, op: &str, a: &Term, b: &Term) {
    let _ = write!(out, "{{\"o\": \"{op}\", \"a\": ");
    write_term(out, a);
    out.push_str(", \"b\": ");
    write_term(out, b);
    out.push('}');
}

/// Reads one term: `Err` for malformed JSON, `Ok(None)` for a
/// well-formed value that is not a term. A term is judged by its keys
/// alone: with `c` it is a constant and with `s` a symbol whatever else it
/// holds, and a negation ignores its `b`, so those other values only need
/// to be well-formed. Nesting is bounded by the reader's depth limit.
fn read_term(r: &mut Reader) -> Result<Option<Term>, JsonError> {
    if !r.begin_object()? {
        return Ok(None);
    }
    let (mut c, mut s, mut o, mut a, mut b) = (None, None, None, None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "c" if c.is_none() => c = Some(r.int()?),
            "s" if s.is_none() => s = Some(r.int()?),
            "o" if o.is_none() => o = Some(r.str()?),
            "a" if a.is_none() => a = Some(read_term(r)?),
            "b" if b.is_none() => b = Some(read_term(r)?),
            _ => r.skip_value()?,
        }
    }
    if let Some(c) = c {
        return Ok(c.map(Term::Const));
    }
    if let Some(s) = s {
        return Ok(s
            .and_then(|s| u32::try_from(s).ok())
            .map(|s| Term::Sym(pata_smt::SymId(s))));
    }
    let (Some(Some(op)), Some(Some(a))) = (o, a) else {
        return Ok(None);
    };
    if op == "neg" {
        return Ok(Some(Term::Neg(Box::new(a))));
    }
    let Some(Some(b)) = b else {
        return Ok(None);
    };
    let (a, b) = (Box::new(a), Box::new(b));
    Ok(match &*op {
        "+" => Some(Term::Add(a, b)),
        "-" => Some(Term::Sub(a, b)),
        "*" => Some(Term::Mul(a, b)),
        other => parse_spelled(&OPAQUE_OPS, other).map(|op| Term::Opaque(op, a, b)),
    })
}

#[cfg(test)]
pub(crate) mod tree_reader;

#[cfg(test)]
mod tests {
    use super::*;
    use pata_smt::SymId;

    /// The configuration fingerprint the tests write their stores under.
    const CONFIG_FP: u64 = 7;

    impl Store {
        /// Parses one base document; see [`Store::read_base`].
        pub(crate) fn parse(text: &str, expect_config_fp: u64) -> Option<Store> {
            let mut names = Names::default();
            let mut store = Store::read_base(text, expect_config_fp, &mut names)?;
            store.names = names.finish(&mut store.roots);
            Some(store)
        }

        /// The store as a document over its own parts.
        fn doc(&self) -> StoreDoc<'_> {
            StoreDoc {
                config_fp: CONFIG_FP,
                functions: &self.functions,
                names: &self.names,
                roots: &self.roots,
                validation: &self.validation,
            }
        }

        /// Serializes the store to its versioned JSON document.
        pub(crate) fn to_json(&self) -> String {
            self.doc().to_json()
        }

        /// Writes the store atomically; see [`StoreDoc::save_with_faults`].
        fn save(&self, path: &Path) -> io::Result<StoreFile> {
            self.save_with_faults(path, None)
        }

        fn save_with_faults(
            &self,
            path: &Path,
            fault: Option<&FaultPlan>,
        ) -> io::Result<StoreFile> {
            self.doc().save_with_faults(path, fault)
        }
    }

    fn sample_constraint() -> Constraint {
        Constraint::new(
            CmpOp::Le,
            Term::sym(SymId(3)).add(Term::int(-2)).neg(),
            Term::opaque(OpaqueOp::Shr, Term::sym(SymId(1)), Term::int(4))
                .mul(Term::sym(SymId(0)).sub(Term::int(7))),
        )
    }

    /// A store over the space `["probe", "helper"]`: one record of the
    /// root `probe` whose candidate runs from `probe` into `helper`.
    fn sample_store() -> Store {
        let functions =
            FunctionDb::from_entries(vec![("probe".into(), 0xdead_beef), ("helper".into(), 42)]);
        let (probe, helper) = (FuncId::from_index(0), FuncId::from_index(1));
        let inst = |func, block, inst| InstId {
            func,
            block: BlockId::from_index(block),
            inst,
        };
        Store {
            functions,
            names: Arc::new(["probe".into(), "helper".into()]),
            roots: vec![RootRecord {
                root: probe,
                closure_fp: 0x1234,
                candidates: vec![PossibleBug {
                    kind: BugKind::NullPointerDeref,
                    origin_id: inst(probe, 0, 2),
                    site_id: inst(helper, 1, 0),
                    constraints: Arc::new([sample_constraint()]),
                    extra: Arc::new([]),
                    alias_paths: Arc::new(["probe:p".into()]),
                    root: probe,
                }],
                stats: AnalysisStats {
                    roots: 1,
                    paths_explored: 9,
                    insts_processed: 100,
                    repeated_bugs_dropped: 5,
                    candidates: 1,
                    budget_exhausted_roots: 1,
                    ..AnalysisStats::default()
                },
                note: Some("max_paths".into()),
                demoted: Some("deadline".into()),
            }],
            validation: vec![
                (vec![0u8, 255, 16], SatResult::Unsat),
                (vec![1u8], SatResult::Sat),
                (vec![2u8], SatResult::Unknown),
            ],
        }
    }

    #[test]
    fn store_round_trips() {
        let store = sample_store();
        let back = Store::parse(&store.to_json(), CONFIG_FP).expect("parses");
        assert_eq!(back.functions, store.functions);
        assert_eq!(back.names, store.names);
        assert_eq!(back.roots, store.roots);
        assert_eq!(back.validation, store.validation);
        // Byte-stable: serializing the parsed image reproduces the text.
        assert_eq!(back.to_json(), store.to_json());
    }

    #[test]
    fn wrong_config_fingerprint_is_cold_start() {
        let store = sample_store();
        assert!(Store::parse(&store.to_json(), CONFIG_FP + 1).is_none());
    }

    #[test]
    fn wrong_schema_version_is_cold_start() {
        let text = sample_store().to_json().replace(
            &format!("\"schema_version\": {STORE_SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        assert!(Store::parse(&text, 7).is_none());
    }

    #[test]
    fn truncated_document_is_cold_start() {
        let text = sample_store().to_json();
        for cut in [1, text.len() / 2, text.len() - 1] {
            assert!(
                Store::parse(&text[..cut], 7).is_none(),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: the fingerprint format is part of the store schema.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn config_fingerprint_tracks_verdict_relevant_fields_only() {
        let base = AnalysisConfig::default();
        let base_fp = config_fingerprint(&base);
        // Verdict-neutral switches share the fingerprint…
        let mut neutral = base.clone();
        neutral.threads = 7;
        neutral.telemetry = true;
        neutral.validation_cache = false;
        neutral.cow_state = false;
        assert_eq!(config_fingerprint(&neutral), base_fp);
        // …verdict-relevant knobs do not.
        let mut relevant = base.clone();
        relevant.budget.loop_iterations = 2;
        assert_ne!(config_fingerprint(&relevant), base_fp);
        let mut relevant = base.clone();
        relevant.validate_paths = false;
        assert_ne!(config_fingerprint(&relevant), base_fp);
        let mut relevant = base.clone();
        relevant.checkers = vec![BugKind::MemoryLeak];
        assert_ne!(config_fingerprint(&relevant), base_fp);
        // Fault-containment knobs are verdict-relevant too…
        let mut relevant = base.clone();
        relevant.root_deadline_ms = 100;
        assert_ne!(config_fingerprint(&relevant), base_fp);
        let mut relevant = base.clone();
        relevant.max_live_bytes = 1 << 20;
        assert_ne!(config_fingerprint(&relevant), base_fp);
        let mut relevant = base.clone();
        relevant.fault_plan = Some(std::sync::Arc::new(
            crate::faultinject::FaultPlan::parse("explore:r@1").unwrap(),
        ));
        assert_ne!(config_fingerprint(&relevant), base_fp);
        // …but an empty plan renders as the historical fingerprint so
        // existing stores stay warm.
        let mut empty = base;
        empty.fault_plan = Some(std::sync::Arc::new(
            crate::faultinject::FaultPlan::parse("").unwrap(),
        ));
        assert_eq!(config_fingerprint(&empty), base_fp);
    }

    #[test]
    fn degraded_field_is_optional_and_backward_compatible() {
        let mut store = sample_store();
        store.roots[0].demoted = None;
        let json = store.to_json();
        assert!(!json.contains("\"demoted\""), "omitted when None");
        let back = Store::parse(&json, CONFIG_FP).expect("parses");
        assert_eq!(back.roots[0].demoted, None);
    }

    /// The writer's bytes, pinned: a store written by an older build must
    /// stay byte-identical to one written now (escapes included).
    #[test]
    fn store_document_bytes_are_pinned() {
        let mut store = sample_store();
        store.roots[0].candidates[0].alias_paths =
            Arc::new(["probe:p".into(), "q\"\\\n\t\u{1}\u{e9}".into()]);
        let expected = concat!(
            r#"{"schema_version": 5, "config_fingerprint": "0000000000000007", "#,
            r#""functions": {"helper": "000000000000002a", "probe": "00000000deadbeef"}, "#,
            r#""roots": [{"root": "probe", "closure_fp": "0000000000001234", "#,
            r#""candidates": [{"kind": "null-pointer-dereference", "origin": {"func": "probe", "#,
            r#""block": 0, "inst": 2}, "site": {"func": "helper", "block": 1, "inst": 0}, "#,
            r#""constraints": [{"op": "<=", "l": {"o": "neg", "a": {"o": "+", "#,
            r#""a": {"s": 3}, "b": {"c": -2}}}, "r": {"o": "*", "a": {"o": "shr", "a": {"s": 1}, "#,
            r#""b": {"c": 4}}, "b": {"o": "-", "a": {"s": 0}, "b": {"c": 7}}}}], "extra": [], "#,
            r#""alias_paths": ["probe:p", "q\"\\\n\t\u0001é"]}], "stats": [9, 100, 0, 0, 0, 0, 5], "#,
            r#""note": "max_paths", "demoted": "deadline"}], "validation": [{"key": "00ff10", "#,
            r#""verdict": "unsat"}, {"key": "01", "verdict": "sat"}, {"key": "02", "#,
            r#""verdict": "unknown"}]}"#,
        );
        assert_eq!(store.to_json(), expected);
    }

    /// The term writer recurses once per term level, and the reader bounds
    /// that depth: a stored term nests only as deep as
    /// [`crate::json::MAX_DEPTH`] leaves room for below the objects and
    /// arrays around it. A term at that depth loads, survives a full
    /// rewrite and reloads equal; one level more is a cold start.
    #[test]
    fn the_deepest_storable_term_survives_a_full_rewrite() {
        // The levels around a constraint's terms: the document, `roots`,
        // the record, `candidates`, the candidate, `constraints` and the
        // constraint.
        const AROUND: u32 = 7;
        let with_term_levels = |levels: u32| {
            let mut store = sample_store();
            let term = (1..levels).fold(Term::sym(SymId(0)), |t, _| t.neg());
            let deep = Constraint::new(CmpOp::Eq, term, Term::int(0));
            store.roots[0].candidates[0].constraints = Arc::new([deep]);
            store
        };
        let dir = std::env::temp_dir().join(format!("pata-deep-term-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");

        let deepest = with_term_levels(crate::json::MAX_DEPTH - AROUND);
        let loaded = Store::parse(&deepest.to_json(), CONFIG_FP).expect("loads warm");
        assert_eq!(loaded, deepest);
        loaded.save(&path).unwrap();
        let (reloaded, _) = Store::load(&path, CONFIG_FP).expect("reloads warm");
        assert_eq!(reloaded, deepest);

        let deeper = with_term_levels(crate::json::MAX_DEPTH - AROUND + 1);
        deeper.save(&path).unwrap();
        assert!(Store::load(&path, CONFIG_FP).is_none(), "one level more");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store crash-safety matrix. A save killed at any crash point of
    /// the temp+rename protocol leaves the path in a state the next cold
    /// start handles: either the old store, the new store, or nothing
    /// readable — never a truncated document that parses. An append
    /// killed halfway leaves a torn last line, which is a cold start.
    #[test]
    fn save_crash_points_cold_start_cleanly() {
        use crate::faultinject::FaultPlan;
        let dir = std::env::temp_dir().join(format!("pata-crash-matrix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let old = sample_store();
        let mut new = sample_store();
        new.roots[0].closure_fp ^= 0x5555;
        let old_text = old.to_json() + "\n";
        let new_text = new.to_json() + "\n";
        let read = |path: &Path| std::fs::read_to_string(path).unwrap();

        for (site, survives_as_new) in [
            ("store.save.before_tmp", false),
            ("store.save.mid_tmp", false),
            ("store.save.before_rename", false),
            ("store.save.after_rename", true),
        ] {
            let path = dir.join(format!("{site}.store"));
            // Baseline: the previous save landed intact.
            old.save(&path).unwrap();
            let plan = FaultPlan::parse(site).unwrap();
            let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                new.save_with_faults(&path, Some(&plan))
            }));
            assert!(killed.is_err(), "{site}: crash point fires");
            // Cold start after the "kill": load never errors, and the
            // surviving content is exactly old-or-new, never a hybrid.
            if survives_as_new {
                assert_eq!(read(&path), new_text, "{site}: rename completed");
            } else {
                assert_eq!(read(&path), old_text, "{site}: old store intact");
            }
            let loaded = Store::load(&path, CONFIG_FP);
            assert!(loaded.is_some(), "{site}: cold start parses");
            // A retry with no plan finishes the interrupted save.
            new.save(&path).unwrap();
            assert_eq!(read(&path), new_text);
        }

        // The delta that turns `old` into `new`.
        let delta = StoreDelta {
            functions: Vec::new(),
            names: &new.names,
            roots: vec![&new.roots[0]],
            validation: &[],
        };
        let path = dir.join("store.save.mid_append.store");
        let file = old.save(&path).unwrap();
        let plan = FaultPlan::parse("store.save.mid_append").unwrap();
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            delta.append_with_faults(&path, file, Some(&plan))
        }));
        assert!(killed.is_err(), "mid_append: crash point fires");
        let torn = read(&path);
        assert!(torn.starts_with(&old_text) && torn.len() > old_text.len());
        assert!(!torn.ends_with('\n'), "mid_append: the last line is torn");
        assert!(
            Store::load(&path, CONFIG_FP).is_none(),
            "mid_append: a torn last line is a cold start"
        );
        // The session rewrites a store it could not load.
        new.save(&path).unwrap();
        assert_eq!(read(&path), new_text);

        // The plain `store.save` site is an IO error, not a crash: the
        // caller sees `Err`, the old store is untouched.
        let path = dir.join("ioerror.store");
        old.save(&path).unwrap();
        let plan = FaultPlan::parse("store.save@1").unwrap();
        assert!(new.save_with_faults(&path, Some(&plan)).is_err());
        assert_eq!(read(&path), old_text);
        // Second attempt (hit 2) succeeds.
        new.save_with_faults(&path, Some(&plan)).unwrap();
        assert_eq!(read(&path), new_text);
        // An append meets the same site: hit 1 fails and leaves the file
        // alone, hit 2 appends.
        let file = old.save(&path).unwrap();
        let plan = FaultPlan::parse("store.save@1").unwrap();
        assert!(delta.append_with_faults(&path, file, Some(&plan)).is_err());
        assert_eq!(read(&path), old_text);
        let appended = delta.append_with_faults(&path, file, Some(&plan)).unwrap();
        let appended = appended.expect("the delta fits");
        assert_eq!(read(&path).len() as u64, appended.len);
        let (loaded, loaded_file) = Store::load(&path, CONFIG_FP).unwrap();
        assert_eq!(loaded_file, appended);
        assert_eq!(loaded.roots, new.roots);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn closure_fp_only_reacts_to_reachable_changes() {
        let src = r#"
            int leaf(int x) { return x; }
            int mid(int x) { return leaf(x); }
            int top(void) { return mid(3); }
            int lonely(void) { return 5; }
        "#;
        let m = pata_cc::compile_one("cf.c", src).unwrap();
        let fps = ModuleFingerprints::build(&m);
        let cg = CallGraph::build(&m);
        let id = |name: &str| m.function_by_name(name).unwrap();
        let roots = [id("top"), id("lonely")];
        let before = fps.closure_fps(&cg, &roots, false);

        // Change `leaf` by pretending its fingerprint moved: top's closure
        // reacts, lonely's does not.
        let mut moved = ModuleFingerprints::build(&m);
        let leaf = id("leaf").index();
        moved.members[leaf] = member_word(str_word("leaf"), fps.db.get("leaf").unwrap() ^ 1);
        let after = moved.closure_fps(&cg, &roots, false);
        assert_ne!(after[0], before[0]);
        assert_eq!(after[1], before[1]);

        // With fptr resolution the closure is the whole module.
        let whole = fps.closure_fps(&cg, &roots, true);
        assert_eq!(whole[0], whole[1]);
        assert_ne!(moved.closure_fps(&cg, &roots, true)[1], whole[1]);
    }

    #[test]
    fn structural_fingerprint_is_pinned() {
        // Pinned value: the structural encoding is part of the store
        // schema. A change here needs a STORE_SCHEMA_VERSION bump.
        let m = pata_cc::compile_one("pin.c", "int pin(int *p) { return *p; }\n").unwrap();
        let pin = m.function(m.function_by_name("pin").unwrap());
        assert_eq!(Fingerprinter::new(&m).function(pin), 0x7753_6ed7_a7ca_7b11);
    }

    fn fingerprints(files: &[(&str, &str)]) -> FunctionDb {
        let mut cc = pata_cc::Compiler::new();
        for (name, text) in files {
            cc.add_source(name, text);
        }
        ModuleFingerprints::build(&cc.compile().unwrap()).db
    }

    #[test]
    fn fingerprints_ignore_module_global_numbering() {
        let later = (
            "b.c",
            "struct s { int *p; };\nint g;\nint beta(struct s *x) { int *q = x->p; return *q + g; }\n",
        );
        let base = fingerprints(&[("a.c", "int alpha(int x) { return x + 1; }\n"), later]);
        // A new local and an `if` in a.c renumber every variable of b.c,
        // and a new struct before `s` renumbers its StructId.
        let edited = fingerprints(&[
            (
                "a.c",
                "struct t { int a; }; int alpha(int x) { int y = 2; if (x > y) { x = 0; } return x + 1; }\n",
            ),
            later,
        ]);
        assert_ne!(edited.get("alpha"), base.get("alpha"));
        assert_eq!(edited.get("beta"), base.get("beta"));
        assert_eq!(edited.diff(&base), (1, Some(vec![Arc::from("alpha")])));
    }

    #[test]
    fn fingerprints_see_what_the_analysis_reads() {
        let base_src = "struct s { int *p; };\nint beta(struct s *x) { return *x->p + 1; }\n";
        let base = fingerprints(&[("a.c", base_src)]).get("beta");
        for (what, src) in [
            (
                "constant",
                "struct s { int *p; };\nint beta(struct s *x) { return *x->p + 2; }\n",
            ),
            (
                "line",
                "struct s { int *p; };\n\nint beta(struct s *x) { return *x->p + 1; }\n",
            ),
            (
                "struct layout",
                "struct s { int *p; int n; };\nint beta(struct s *x) { return *x->p + 1; }\n",
            ),
            (
                "field type",
                "struct s { int **p; };\nint beta(struct s *x) { return **x->p + 1; }\n",
            ),
        ] {
            let changed = fingerprints(&[("a.c", src)]).get("beta");
            assert_ne!(changed, base, "{what} edit must change the fingerprint");
        }
        // The file name is part of every location.
        assert_ne!(fingerprints(&[("b.c", base_src)]).get("beta"), base);
    }
}
