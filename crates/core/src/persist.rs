//! The on-disk analysis store behind [`crate::AnalysisSession`].
//!
//! A store file is one versioned JSON document (written through the same
//! in-crate [`crate::json`] machinery as the report schema) holding
//! everything a later process needs to skip re-exploring unchanged roots:
//!
//! * a **header** — [`STORE_SCHEMA_VERSION`], a fingerprint of the
//!   verdict-relevant configuration, and a corpus fingerprint over the
//!   function database;
//! * the **function database** (paper §4 P1: "records function information
//!   in a database") — one `(name, fingerprint)` pair per function, the
//!   input to change detection;
//! * **per-root results** — the stage-1 candidates, exploration counters
//!   and budget note of each analysis root, keyed by the root's *closure
//!   fingerprint* (a hash over every function transitively reachable from
//!   it). A root whose closure fingerprint is unchanged is *clean*: its
//!   exploration is deterministic, so the cached candidates are exactly
//!   what re-exploring would produce;
//! * the **validation cache** — stage-2 conjunction verdicts under their
//!   canonical keys (α-equivalent constraint systems share one entry).
//!
//! Loading is infallible by design: a missing file, malformed JSON, a
//! schema-version bump, a configuration change, or a candidate that no
//! longer resolves against the new module all degrade to a cold start
//! (`None`), never an error. Saving goes through a temp file + rename so a
//! crashed writer leaves either the old store or the new one, not a
//! truncated hybrid (which the infallible loader would shrug off anyway).
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
use crate::fingerprint::mix;
use crate::json::{quote, JsonValue};
use crate::report::{DegradedRoot, PossibleBug};
use crate::stats::{AnalysisStats, BudgetNote};
use pata_ir::{
    BinOp, BlockId, Callee, ConstVal, FileId, FuncId, Function, InstId, InstKind, Loc, Module,
    Operand, StructId, Terminator, Type, VarId, VarKind,
};
use pata_smt::{CmpOp, Constraint, OpaqueOp, SatResult, Term};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;

/// Version of the on-disk store schema. Bump on any change to the layout
/// or meaning of the document; [`Store::parse`] treats a mismatch as a
/// cold start, so old stores are silently discarded, never misread.
pub const STORE_SCHEMA_VERSION: u64 = 2;

// --------------------------------------------------------------------
// Fingerprints
// --------------------------------------------------------------------

/// FNV-1a over a byte string. Stable across processes and platforms
/// (unlike `std`'s `DefaultHasher`, which documents no such guarantee) —
/// a hard requirement for fingerprints that outlive the process.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

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
    /// Per `FileId`: the file name's hash.
    files: Vec<u64>,
    /// Per `FuncId`: the function name's hash.
    names: Vec<u64>,
    /// Per `StructId`: name plus fields two levels deep.
    structs: Vec<u64>,
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

impl<'m> Fingerprinter<'m> {
    fn new(module: &'m Module) -> Self {
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
        Fingerprinter {
            module,
            files: module.files().iter().map(|f| str_word(&f.name)).collect(),
            names: module
                .functions()
                .iter()
                .map(|f| str_word(f.name()))
                .collect(),
            structs: with_fields(&level1),
            seen: vec![(0, 0); module.var_count()],
            stamp: 0,
            file: FileId::from_index(0),
            next_ordinal: 0,
            h: StableHash::new(),
        }
    }

    fn ty(&mut self, ty: &Type) {
        let structs = &self.structs;
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
            self.h.word(self.files[loc.file.index()]);
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
                self.h.word(self.names[func.index()]);
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
                        self.h.word(self.names[f.index()]);
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
        self.h.word(self.files[f.file().index()]);
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
/// excluded: `threads`, `telemetry`, and the verdict-neutral cache
/// switches (`validation_cache`, `exploration_cache`, `callee_memo`) — the
/// load-bearing determinism invariant says they never change a verdict.
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
        ";paths={};insts={};depth={};len={};loops={};validate={};fptrs={}",
        b.max_paths,
        b.max_insts,
        b.max_call_depth,
        b.max_path_len,
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
/// fingerprint, sorted by name so serialization (and the corpus
/// fingerprint) is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FunctionDb {
    pub(crate) entries: BTreeMap<String, u64>,
}

impl FunctionDb {
    /// Hash of the whole corpus — the store-header fingerprint.
    pub(crate) fn corpus_fingerprint(&self) -> u64 {
        let mut h = StableHash::new();
        for (name, &fp) in &self.entries {
            h.str(name);
            h.word(fp);
        }
        h.finish()
    }

    /// How many functions changed (different fingerprint) or appeared
    /// relative to `old`.
    pub(crate) fn changed_since(&self, old: &FunctionDb) -> u64 {
        self.entries
            .iter()
            .filter(|(name, fp)| old.entries.get(*name) != Some(fp))
            .count() as u64
    }
}

/// Every fingerprint change detection needs for one module: the function
/// database plus, per function, its closure member word.
#[derive(Debug)]
pub(crate) struct ModuleFingerprints {
    pub(crate) db: FunctionDb,
    /// Per `FuncId`: [`member_word`] of the function's name and
    /// fingerprint.
    members: Vec<u64>,
}

impl ModuleFingerprints {
    /// Fingerprints every function of `module` in one structural walk.
    /// Returns `None` when two functions share a name — names are the
    /// cross-process identity of functions, so an ambiguous module cannot
    /// be persisted (the session then runs every root cold, which is
    /// always safe).
    pub(crate) fn build(module: &Module) -> Option<ModuleFingerprints> {
        let mut fp = Fingerprinter::new(module);
        let mut entries = BTreeMap::new();
        let mut members = Vec::with_capacity(module.functions().len());
        for f in module.functions() {
            let value = fp.function(f);
            if entries.insert(f.name().to_owned(), value).is_some() {
                return None;
            }
            members.push(member_word(fp.names[f.id().index()], value));
        }
        Some(ModuleFingerprints {
            db: FunctionDb { entries },
            members,
        })
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
// Stored candidates
// --------------------------------------------------------------------

/// One source location in module-independent form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredLoc {
    pub(crate) file: String,
    pub(crate) line: u32,
}

/// One instruction identity in module-independent form: function *name*
/// plus block/instruction indices. Indices are stable for an unchanged
/// function (the fingerprint covers the printed block structure), and a
/// failed bounds check at resolution time just marks the root dirty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredInst {
    pub(crate) func: String,
    pub(crate) block: usize,
    pub(crate) inst: usize,
}

/// A [`PossibleBug`] detached from module-specific ids, so it can be
/// replayed into a freshly compiled module. SMT symbol ids are kept
/// verbatim: exploration is deterministic, so an unchanged root assigns
/// the same `SymId`s it assigned when the bug was recorded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoredBug {
    pub(crate) kind: BugKind,
    pub(crate) origin: StoredInst,
    pub(crate) origin_loc: StoredLoc,
    pub(crate) site: StoredInst,
    pub(crate) site_loc: StoredLoc,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) extra: Vec<Constraint>,
    pub(crate) alias_paths: Vec<String>,
}

impl StoredBug {
    pub(crate) fn from_possible(bug: &PossibleBug, module: &Module) -> StoredBug {
        let inst = |id: InstId| StoredInst {
            func: module.function(id.func).name().to_owned(),
            block: id.block.index(),
            inst: id.inst,
        };
        let loc = |l: Loc| StoredLoc {
            file: module.file(l.file).name.clone(),
            line: l.line,
        };
        StoredBug {
            kind: bug.kind,
            origin: inst(bug.origin_id),
            origin_loc: loc(bug.origin_loc),
            site: inst(bug.site_id),
            site_loc: loc(bug.site_loc),
            constraints: bug.constraints.clone(),
            extra: bug.extra.clone(),
            alias_paths: bug.alias_paths.clone(),
        }
    }

    /// Re-binds the bug to `module`, whose files `file_ids` maps by name
    /// (see [`file_ids`]). `None` when a function or file named in the
    /// record no longer exists or an index is out of range — the caller
    /// then treats the whole root as dirty.
    pub(crate) fn resolve(
        &self,
        module: &Module,
        file_ids: &HashMap<&str, FileId>,
        root: FuncId,
    ) -> Option<PossibleBug> {
        let inst = |s: &StoredInst| -> Option<InstId> {
            let func = module.function_by_name(&s.func)?;
            let blocks = module.function(func).blocks();
            let block = blocks.get(s.block)?;
            // `inst == len` denotes the terminator.
            if s.inst > block.insts.len() {
                return None;
            }
            Some(InstId {
                func,
                block: BlockId::from_index(s.block),
                inst: s.inst,
            })
        };
        let loc = |s: &StoredLoc| -> Option<Loc> {
            Some(Loc::new(*file_ids.get(s.file.as_str())?, s.line))
        };
        Some(PossibleBug {
            kind: self.kind,
            origin_loc: loc(&self.origin_loc)?,
            origin_id: inst(&self.origin)?,
            site_loc: loc(&self.site_loc)?,
            site_id: inst(&self.site)?,
            constraints: self.constraints.clone(),
            extra: self.extra.clone(),
            alias_paths: self.alias_paths.clone(),
            root,
        })
    }
}

/// Maps each file name of `module` to its id (the first, should a name
/// repeat) — built once per request for [`StoredBug::resolve`].
pub(crate) fn file_ids(module: &Module) -> HashMap<&str, FileId> {
    let mut ids = HashMap::with_capacity(module.files().len());
    for (i, f) in module.files().iter().enumerate() {
        ids.entry(f.name.as_str())
            .or_insert_with(|| FileId::from_index(i));
    }
    ids
}

/// One root's persisted exploration result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoredRoot {
    /// Root function name.
    pub(crate) root: String,
    /// Closure fingerprint at the time the result was recorded.
    pub(crate) closure_fp: u64,
    /// Stage-1 candidates, in exploration order.
    pub(crate) candidates: Vec<StoredBug>,
    /// The root's exploration counters (`time` is not persisted — replayed
    /// roots contribute zero wall-clock, which is the point).
    pub(crate) stats: AnalysisStats,
    /// Budget-exhaustion note, if the root was truncated.
    pub(crate) note: Option<BudgetNote>,
    /// Degraded entry for a root the fault-containment ladder demoted —
    /// persisted so a warm replay reproduces the report's `degraded`
    /// section byte-identically. Quarantined roots are never persisted
    /// (they re-explore on the next request), so this is only ever the
    /// `"demoted"` record. Absent in older stores (parsed as `None`).
    pub(crate) degraded: Option<DegradedRoot>,
}

// --------------------------------------------------------------------
// The store document
// --------------------------------------------------------------------

/// An in-memory image of the on-disk store.
#[derive(Debug, Clone, Default)]
pub(crate) struct Store {
    /// Fingerprint of the verdict-relevant configuration.
    pub(crate) config_fp: u64,
    /// Corpus fingerprint (hash of the function database).
    pub(crate) corpus_fp: u64,
    /// The function database: `(name, fingerprint)`, sorted by name.
    pub(crate) functions: FunctionDb,
    /// Per-root cached results, in the recorded root order.
    pub(crate) roots: Vec<StoredRoot>,
    /// Stage-2 verdicts under canonical keys, sorted by key.
    pub(crate) validation: Vec<(Vec<u8>, SatResult)>,
}

impl Store {
    /// Serializes the store to its versioned JSON document.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema_version\": ");
        out.push_str(&STORE_SCHEMA_VERSION.to_string());
        out.push_str(&format!(
            ", \"config_fingerprint\": \"{:016x}\"",
            self.config_fp
        ));
        out.push_str(&format!(
            ", \"corpus_fingerprint\": \"{:016x}\"",
            self.corpus_fp
        ));
        out.push_str(", \"functions\": [");
        for (i, (name, fp)) in self.functions.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"fp\": \"{fp:016x}\"}}",
                quote(name)
            ));
        }
        out.push_str("], \"roots\": [");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_root(&mut out, r);
        }
        out.push_str("], \"validation\": [");
        for (i, (key, verdict)) in self.validation.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"key\": \"");
            for b in key {
                out.push_str(&format!("{b:02x}"));
            }
            out.push_str("\", \"verdict\": \"");
            out.push_str(match verdict {
                SatResult::Sat => "sat",
                SatResult::Unsat => "unsat",
                SatResult::Unknown => "unknown",
            });
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a store document written with the *current* schema version
    /// and `expect_config_fp`. Any deviation — malformed JSON, version or
    /// fingerprint mismatch, missing or mistyped field — yields `None`:
    /// the caller starts cold.
    pub(crate) fn parse(text: &str, expect_config_fp: u64) -> Option<Store> {
        let doc = JsonValue::parse(text).ok()?;
        if doc.get("schema_version")?.as_u64()? != STORE_SCHEMA_VERSION {
            return None;
        }
        let config_fp = parse_hex64(doc.get("config_fingerprint")?.as_str()?)?;
        if config_fp != expect_config_fp {
            return None;
        }
        let corpus_fp = parse_hex64(doc.get("corpus_fingerprint")?.as_str()?)?;
        let mut functions = FunctionDb::default();
        for item in doc.get("functions")?.as_array()? {
            let name = item.get("name")?.as_str()?.to_owned();
            let fp = parse_hex64(item.get("fp")?.as_str()?)?;
            functions.entries.insert(name, fp);
        }
        let mut roots = Vec::new();
        for item in doc.get("roots")?.as_array()? {
            roots.push(parse_root(item)?);
        }
        let mut validation = Vec::new();
        for item in doc.get("validation")?.as_array()? {
            let key = parse_hex_bytes(item.get("key")?.as_str()?)?;
            let verdict = match item.get("verdict")?.as_str()? {
                "sat" => SatResult::Sat,
                "unsat" => SatResult::Unsat,
                "unknown" => SatResult::Unknown,
                _ => return None,
            };
            validation.push((key, verdict));
        }
        Some(Store {
            config_fp,
            corpus_fp,
            functions,
            roots,
            validation,
        })
    }

    /// Loads a store from disk. Infallible: any I/O or parse problem is a
    /// cold start.
    pub(crate) fn load(path: &Path, expect_config_fp: u64) -> Option<Store> {
        let text = std::fs::read_to_string(path).ok()?;
        Store::parse(&text, expect_config_fp)
    }

    /// Writes the store atomically (temp file in the same directory, then
    /// rename), so a crash mid-write never leaves a truncated store.
    /// Production callers thread their fault plan through
    /// [`Store::save_with_faults`]; this fault-free spelling serves tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with_faults(path, None)
    }

    /// [`Store::save`] with fault-injection crash points around the
    /// temp+rename protocol. Each `store.save.*` site simulates a process
    /// killed at that exact instant (a panic the crash-safety tests catch);
    /// the plain `store.save` site yields an IO error the session treats
    /// like any other failed save. Whatever the crash point, the next
    /// [`Store::load`] sees either the old store, the new store, or a
    /// stray `.tmp` it never reads — all of which cold-start cleanly.
    pub(crate) fn save_with_faults(
        &self,
        path: &Path,
        fault: Option<&FaultPlan>,
    ) -> io::Result<()> {
        faultinject::maybe_io(fault, "store.save")?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        faultinject::maybe_panic(fault, "store.save.before_tmp", "");
        let json = self.to_json();
        if fault.is_some_and(|p| p.should_fire("store.save.mid_tmp", "")) {
            // Simulate dying halfway through the temp write: leave a
            // truncated temp file behind, then "crash".
            let _ = std::fs::write(&tmp, &json.as_bytes()[..json.len() / 2]);
            panic!("fault injected: store.save.mid_tmp");
        }
        std::fs::write(&tmp, json)?;
        faultinject::maybe_panic(fault, "store.save.before_rename", "");
        std::fs::rename(&tmp, path)?;
        faultinject::maybe_panic(fault, "store.save.after_rename", "");
        Ok(())
    }
}

// --------------------------------------------------------------------
// JSON helpers (roots, bugs, constraints, stats)
// --------------------------------------------------------------------

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

fn parse_hex_bytes(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

fn write_root(out: &mut String, r: &StoredRoot) {
    out.push_str("{\"root\": ");
    out.push_str(&quote(&r.root));
    out.push_str(&format!(", \"closure_fp\": \"{:016x}\"", r.closure_fp));
    out.push_str(", \"candidates\": [");
    for (i, b) in r.candidates.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_bug(out, b);
    }
    out.push_str("], \"stats\": ");
    write_stats(out, &r.stats);
    match &r.note {
        Some(n) => {
            out.push_str(&format!(
                ", \"note\": {{\"root\": {}, \"reason\": {}, \"caches_disabled\": {}}}",
                quote(&n.root),
                quote(&n.reason),
                n.caches_disabled
            ));
        }
        None => out.push_str(", \"note\": null"),
    }
    // Emitted only when present so zero-fault stores keep their exact
    // pre-existing byte layout (and older readers' parse shape).
    if let Some(d) = &r.degraded {
        out.push_str(&format!(
            ", \"degraded\": {{\"root\": {}, \"stage\": {}, \"reason\": {}, \"action\": {}}}",
            quote(&d.root),
            quote(&d.stage),
            quote(&d.reason),
            quote(&d.action)
        ));
    }
    out.push('}');
}

fn parse_root(v: &JsonValue) -> Option<StoredRoot> {
    let mut candidates = Vec::new();
    for item in v.get("candidates")?.as_array()? {
        candidates.push(parse_bug(item)?);
    }
    let note = match v.get("note")? {
        JsonValue::Null => None,
        n => Some(BudgetNote {
            root: n.get("root")?.as_str()?.to_owned(),
            reason: n.get("reason")?.as_str()?.to_owned(),
            caches_disabled: n.get("caches_disabled")?.as_bool()?,
        }),
    };
    let degraded = match v.get("degraded") {
        None | Some(JsonValue::Null) => None,
        Some(d) => Some(DegradedRoot {
            root: d.get("root")?.as_str()?.to_owned(),
            stage: d.get("stage")?.as_str()?.to_owned(),
            reason: d.get("reason")?.as_str()?.to_owned(),
            action: d.get("action")?.as_str()?.to_owned(),
        }),
    };
    Some(StoredRoot {
        root: v.get("root")?.as_str()?.to_owned(),
        closure_fp: parse_hex64(v.get("closure_fp")?.as_str()?)?,
        candidates,
        stats: parse_stats(v.get("stats")?)?,
        note,
        degraded,
    })
}

/// The per-root exploration counters worth persisting: everything the
/// explorer itself accumulates. Filter-stage counters (candidates,
/// reported, validation hits) are recomputed live on every run.
const STAT_FIELDS: [&str; 11] = [
    "roots",
    "paths_explored",
    "insts_processed",
    "typestates_aware",
    "typestates_unaware",
    "constraints_aware",
    "constraints_unaware",
    "budget_exhausted_roots",
    "exploration_cache_hits",
    "callee_memo_hits",
    "insts_replayed",
];

fn stat_field(s: &AnalysisStats, name: &str) -> u64 {
    match name {
        "roots" => s.roots,
        "paths_explored" => s.paths_explored,
        "insts_processed" => s.insts_processed,
        "typestates_aware" => s.typestates_aware,
        "typestates_unaware" => s.typestates_unaware,
        "constraints_aware" => s.constraints_aware,
        "constraints_unaware" => s.constraints_unaware,
        "budget_exhausted_roots" => s.budget_exhausted_roots,
        "exploration_cache_hits" => s.exploration_cache_hits,
        "callee_memo_hits" => s.callee_memo_hits,
        "insts_replayed" => s.insts_replayed,
        _ => unreachable!("unknown stat field"),
    }
}

fn stat_field_mut<'a>(s: &'a mut AnalysisStats, name: &str) -> &'a mut u64 {
    match name {
        "roots" => &mut s.roots,
        "paths_explored" => &mut s.paths_explored,
        "insts_processed" => &mut s.insts_processed,
        "typestates_aware" => &mut s.typestates_aware,
        "typestates_unaware" => &mut s.typestates_unaware,
        "constraints_aware" => &mut s.constraints_aware,
        "constraints_unaware" => &mut s.constraints_unaware,
        "budget_exhausted_roots" => &mut s.budget_exhausted_roots,
        "exploration_cache_hits" => &mut s.exploration_cache_hits,
        "callee_memo_hits" => &mut s.callee_memo_hits,
        "insts_replayed" => &mut s.insts_replayed,
        _ => unreachable!("unknown stat field"),
    }
}

fn write_stats(out: &mut String, s: &AnalysisStats) {
    out.push('{');
    for (i, name) in STAT_FIELDS.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {}", stat_field(s, name)));
    }
    out.push('}');
}

fn parse_stats(v: &JsonValue) -> Option<AnalysisStats> {
    let mut s = AnalysisStats::default();
    for name in STAT_FIELDS {
        *stat_field_mut(&mut s, name) = v.get(name)?.as_u64()?;
    }
    Some(s)
}

fn write_bug(out: &mut String, b: &StoredBug) {
    let inst = |s: &StoredInst| {
        format!(
            "{{\"func\": {}, \"block\": {}, \"inst\": {}}}",
            quote(&s.func),
            s.block,
            s.inst
        )
    };
    let loc = |l: &StoredLoc| format!("{{\"file\": {}, \"line\": {}}}", quote(&l.file), l.line);
    out.push_str("{\"kind\": ");
    out.push_str(&quote(b.kind.as_str()));
    out.push_str(", \"origin\": ");
    out.push_str(&inst(&b.origin));
    out.push_str(", \"origin_loc\": ");
    out.push_str(&loc(&b.origin_loc));
    out.push_str(", \"site\": ");
    out.push_str(&inst(&b.site));
    out.push_str(", \"site_loc\": ");
    out.push_str(&loc(&b.site_loc));
    out.push_str(", \"constraints\": [");
    for (i, c) in b.constraints.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_constraint(out, c);
    }
    out.push_str("], \"extra\": [");
    for (i, c) in b.extra.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_constraint(out, c);
    }
    out.push_str("], \"alias_paths\": [");
    for (i, p) in b.alias_paths.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&quote(p));
    }
    out.push_str("]}");
}

fn parse_bug(v: &JsonValue) -> Option<StoredBug> {
    let inst = |v: &JsonValue| -> Option<StoredInst> {
        Some(StoredInst {
            func: v.get("func")?.as_str()?.to_owned(),
            block: usize::try_from(v.get("block")?.as_u64()?).ok()?,
            inst: usize::try_from(v.get("inst")?.as_u64()?).ok()?,
        })
    };
    let loc = |v: &JsonValue| -> Option<StoredLoc> {
        Some(StoredLoc {
            file: v.get("file")?.as_str()?.to_owned(),
            line: u32::try_from(v.get("line")?.as_u64()?).ok()?,
        })
    };
    let constraints = |name: &str| -> Option<Vec<Constraint>> {
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
        .collect::<Option<Vec<_>>>()?;
    Some(StoredBug {
        kind: BugKind::parse(v.get("kind")?.as_str()?)?,
        origin: inst(v.get("origin")?)?,
        origin_loc: loc(v.get("origin_loc")?)?,
        site: inst(v.get("site")?)?,
        site_loc: loc(v.get("site_loc")?)?,
        constraints: constraints("constraints")?,
        extra: constraints("extra")?,
        alias_paths,
    })
}

// --------------------------------------------------------------------
// Constraint / term serialization
// --------------------------------------------------------------------

fn cmp_op_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn parse_cmp_op(s: &str) -> Option<CmpOp> {
    Some(match s {
        "==" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return None,
    })
}

fn opaque_op_str(op: OpaqueOp) -> &'static str {
    match op {
        OpaqueOp::Mul => "mul",
        OpaqueOp::Div => "div",
        OpaqueOp::Rem => "rem",
        OpaqueOp::And => "and",
        OpaqueOp::Or => "or",
        OpaqueOp::Xor => "xor",
        OpaqueOp::Shl => "shl",
        OpaqueOp::Shr => "shr",
    }
}

fn parse_opaque_op(s: &str) -> Option<OpaqueOp> {
    Some(match s {
        "mul" => OpaqueOp::Mul,
        "div" => OpaqueOp::Div,
        "rem" => OpaqueOp::Rem,
        "and" => OpaqueOp::And,
        "or" => OpaqueOp::Or,
        "xor" => OpaqueOp::Xor,
        "shl" => OpaqueOp::Shl,
        "shr" => OpaqueOp::Shr,
        _ => return None,
    })
}

fn write_constraint(out: &mut String, c: &Constraint) {
    out.push_str(&format!("{{\"op\": \"{}\", \"l\": ", cmp_op_str(c.op)));
    write_term(out, &c.lhs);
    out.push_str(", \"r\": ");
    write_term(out, &c.rhs);
    out.push('}');
}

fn parse_constraint(v: &JsonValue) -> Option<Constraint> {
    Some(Constraint::new(
        parse_cmp_op(v.get("op")?.as_str()?)?,
        parse_term(v.get("l")?)?,
        parse_term(v.get("r")?)?,
    ))
}

fn write_term(out: &mut String, t: &Term) {
    match t {
        Term::Const(v) => out.push_str(&format!("{{\"c\": {v}}}")),
        Term::Sym(s) => out.push_str(&format!("{{\"s\": {}}}", s.0)),
        Term::Add(a, b) => write_binary(out, "+", a, b),
        Term::Sub(a, b) => write_binary(out, "-", a, b),
        Term::Mul(a, b) => write_binary(out, "*", a, b),
        Term::Opaque(op, a, b) => write_binary(out, opaque_op_str(*op), a, b),
        Term::Neg(a) => {
            out.push_str("{\"o\": \"neg\", \"a\": ");
            write_term(out, a);
            out.push('}');
        }
    }
}

fn write_binary(out: &mut String, op: &str, a: &Term, b: &Term) {
    out.push_str(&format!("{{\"o\": \"{op}\", \"a\": "));
    write_term(out, a);
    out.push_str(", \"b\": ");
    write_term(out, b);
    out.push('}');
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
        other => Term::Opaque(parse_opaque_op(other)?, Box::new(a), Box::new(b)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_smt::SymId;

    fn sample_constraint() -> Constraint {
        Constraint::new(
            CmpOp::Le,
            Term::sym(SymId(3)).add(Term::int(-2)).neg(),
            Term::opaque(OpaqueOp::Shr, Term::sym(SymId(1)), Term::int(4))
                .mul(Term::sym(SymId(0)).sub(Term::int(7))),
        )
    }

    fn sample_store() -> Store {
        let mut functions = FunctionDb::default();
        functions.entries.insert("probe".into(), 0xdead_beef);
        functions.entries.insert("helper".into(), 42);
        let corpus_fp = functions.corpus_fingerprint();
        Store {
            config_fp: 7,
            corpus_fp,
            functions,
            roots: vec![StoredRoot {
                root: "probe".into(),
                closure_fp: 0x1234,
                candidates: vec![StoredBug {
                    kind: BugKind::NullPointerDeref,
                    origin: StoredInst {
                        func: "probe".into(),
                        block: 0,
                        inst: 2,
                    },
                    origin_loc: StoredLoc {
                        file: "a.c".into(),
                        line: 10,
                    },
                    site: StoredInst {
                        func: "helper".into(),
                        block: 1,
                        inst: 0,
                    },
                    site_loc: StoredLoc {
                        file: "a.c".into(),
                        line: 14,
                    },
                    constraints: vec![sample_constraint()],
                    extra: vec![],
                    alias_paths: vec!["probe:p".into()],
                }],
                stats: AnalysisStats {
                    roots: 1,
                    paths_explored: 9,
                    insts_processed: 100,
                    ..AnalysisStats::default()
                },
                note: Some(BudgetNote {
                    root: "probe".into(),
                    reason: "max_paths".into(),
                    caches_disabled: false,
                }),
                degraded: Some(DegradedRoot {
                    root: "probe".into(),
                    stage: "explore".into(),
                    reason: "deadline".into(),
                    action: "demoted".into(),
                }),
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
        let back = Store::parse(&store.to_json(), store.config_fp).expect("parses");
        assert_eq!(back.config_fp, store.config_fp);
        assert_eq!(back.corpus_fp, store.corpus_fp);
        assert_eq!(back.functions, store.functions);
        assert_eq!(back.roots, store.roots);
        assert_eq!(back.validation, store.validation);
        // Byte-stable: serializing the parsed image reproduces the text.
        assert_eq!(back.to_json(), store.to_json());
    }

    #[test]
    fn wrong_config_fingerprint_is_cold_start() {
        let store = sample_store();
        assert!(Store::parse(&store.to_json(), store.config_fp + 1).is_none());
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
        neutral.exploration_cache = false;
        neutral.callee_memo = false;
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
        store.roots[0].degraded = None;
        let json = store.to_json();
        assert!(!json.contains("\"degraded\""), "omitted when None");
        let back = Store::parse(&json, store.config_fp).expect("parses");
        assert_eq!(back.roots[0].degraded, None);
    }

    /// Satellite: the store crash-safety matrix. A save killed at any
    /// crash point of the temp+rename protocol leaves the path in a state
    /// the next cold start handles: either the old store, the new store,
    /// or nothing readable — never a truncated document that parses.
    #[test]
    fn save_crash_points_cold_start_cleanly() {
        use crate::faultinject::FaultPlan;
        let dir = std::env::temp_dir().join(format!("pata-crash-matrix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let old = sample_store();
        let mut new = sample_store();
        new.roots[0].closure_fp ^= 0x5555;
        let old_json = old.to_json();
        let new_json = new.to_json();

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
            let text = std::fs::read_to_string(&path).unwrap();
            if survives_as_new {
                assert_eq!(text, new_json, "{site}: rename completed");
            } else {
                assert_eq!(text, old_json, "{site}: old store intact");
            }
            let loaded = Store::load(&path, old.config_fp);
            assert!(loaded.is_some(), "{site}: cold start parses");
            // A retry with no plan finishes the interrupted save.
            new.save(&path).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), new_json);
        }

        // The plain `store.save` site is an IO error, not a crash: the
        // caller sees `Err`, the old store is untouched.
        let path = dir.join("ioerror.store");
        old.save(&path).unwrap();
        let plan = FaultPlan::parse("store.save@1").unwrap();
        assert!(new.save_with_faults(&path, Some(&plan)).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), old_json);
        // Second attempt (hit 2) succeeds.
        new.save_with_faults(&path, Some(&plan)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), new_json);

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
        let fps = ModuleFingerprints::build(&m).unwrap();
        let cg = CallGraph::build(&m);
        let id = |name: &str| m.function_by_name(name).unwrap();
        let roots = [id("top"), id("lonely")];
        let before = fps.closure_fps(&cg, &roots, false);

        // Change `leaf` by pretending its fingerprint moved: top's closure
        // reacts, lonely's does not.
        let mut moved = ModuleFingerprints::build(&m).unwrap();
        let leaf = id("leaf").index();
        moved.members[leaf] = member_word(str_word("leaf"), fps.db.entries["leaf"] ^ 1);
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
        ModuleFingerprints::build(&cc.compile().unwrap())
            .unwrap()
            .db
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
        assert_ne!(edited.entries["alpha"], base.entries["alpha"]);
        assert_eq!(edited.entries["beta"], base.entries["beta"]);
        assert_eq!(edited.changed_since(&base), 1);
    }

    #[test]
    fn fingerprints_see_what_the_analysis_reads() {
        let base_src = "struct s { int *p; };\nint beta(struct s *x) { return *x->p + 1; }\n";
        let base = fingerprints(&[("a.c", base_src)]).entries["beta"];
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
            let changed = fingerprints(&[("a.c", src)]).entries["beta"];
            assert_ne!(changed, base, "{what} edit must change the fingerprint");
        }
        // The file name is part of every location.
        assert_ne!(fingerprints(&[("b.c", base_src)]).entries["beta"], base);
    }
}
