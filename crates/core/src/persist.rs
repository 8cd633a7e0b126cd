//! The on-disk analysis store behind [`crate::AnalysisSession`].
//!
//! A store file's first line is one versioned JSON document, the base
//! (written through the same in-crate [`crate::json`] machinery as the
//! report schema), holding only what a later process cannot derive and
//! needs either to answer an unchanged tree without compiling it or to
//! skip re-exploring unchanged roots:
//!
//! * a **header** — [`STORE_SCHEMA_VERSION`], a fingerprint of the
//!   verdict-relevant configuration and the saving module's root count;
//! * the **file table** — per request position, an array of the file's
//!   name, its byte length, its line count and a 64-bit word of its text
//!   ([`text_word`]). A request whose files have these names, lengths and
//!   words, in order, is the tree the store was saved from;
//! * the **function table** (paper §4 P1: "records function information
//!   in a database") — one entry per function in the saving module's
//!   `FuncId` order: its name, its fingerprint (the input to change
//!   detection) and its file's index. Its order is the store's *function
//!   space*: records and deltas name functions by their index in it;
//! * **per-root results** — the stage-1 candidates, exploration counters
//!   and budget note of each analysis root, keyed by the root's *closure
//!   fingerprint* (a hash over every function transitively reachable from
//!   it). A root whose closure fingerprint is unchanged is *clean*: its
//!   exploration is deterministic, so the cached candidates are exactly
//!   what re-exploring would produce. A record stores seven counters in
//!   a fixed order (see `stored_counters`); the reader derives the other
//!   three from the record itself. A candidate is its kind, its origin and
//!   site instructions (function index, block, index, source line), its
//!   constraints and its alias paths;
//! * the **validation cache** — stage-2 conjunction verdicts under their
//!   canonical keys (α-equivalent constraint systems share one entry).
//!
//! Each later line is a delta ([`StoreDelta`]) one save appended: the
//! file entries (each led by its position), function entries and root
//! records it replaced and the verdicts it added. Loading applies the
//! lines in order. A save that changed anything else (a file, function
//! or root that came, went or moved), or whose log would outgrow the
//! base, rewrites the whole file as a new base.
//!
//! In memory a root's result is one `RootRecord` whose root and
//! instructions are ids of a function space, a table of one name per id:
//! the session's module after a request, or after a load the store's
//! function table. Only `write_root`/`write_bug` and the readers turn ids
//! into indices and back; a request that compiles maps the previous
//! space onto its module by name once.
//!
//! Loading reads each line once, through the pull reader
//! [`crate::json::Reader`], straight into [`Store`]: no `JsonValue` tree,
//! and one `Arc<str>` per function name, which the loaded function space
//! shares. It accepts what a tree walk would: keys in any order, the
//! first of two equal keys winning, unknown keys skipped (their values
//! must still be well-formed). An index past the table it names is a
//! cold start.
//!
//! Loading is infallible by design: a missing file, malformed JSON, a
//! torn last line, a schema-version bump or a configuration change all
//! degrade to a cold start (`None`), never an error. A stored candidate
//! that no longer resolves against a compiled module only marks its root
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
//! the same file, which over-invalidates but never under-invalidates; it
//! is also why a clean record's stored lines are never stale.
//!
//! The text words trust a 64-bit hash exactly as far as the fingerprints
//! do: a restart that finds every word equal serves the stored records
//! without compiling, just as a compiled request that finds every
//! closure fingerprint equal replays them without exploring.

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
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::iter::zip;
use std::path::Path;
use std::sync::Arc;

/// Version of the on-disk store schema. Bump on any change to the layout
/// or meaning of the document; [`Store::load`] treats a mismatch as a
/// cold start, so old stores are silently discarded, never misread.
///
/// Version 7 writes each file-table entry as an array, `[name, bytes,
/// lines, "word hex"]`, the way function entries are written, and a
/// delta's as `[at, name, bytes, lines, "word hex"]`. Version 6 added what
/// serving a restart over an unchanged tree without compiling it needs:
/// the saving module's root count in the header; a file table of each
/// request position's name, length, line count and text word; a function
/// table that lists every function once, in `FuncId` order, with its
/// fingerprint and file index, by whose index records and deltas name
/// functions; and each candidate instruction's source line. A root record
/// keeps seven counters in one array, its budget reason as `note` and its
/// demotion reason as `demoted`, each written only when present.
pub const STORE_SCHEMA_VERSION: u64 = 7;

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

/// The word of a source file's text in the file table: a stable 64-bit
/// hash read eight bytes at a time by four independent lanes, each one
/// the XXH64 round (add the word times a prime, rotate, multiply by a
/// prime), so the lanes' multiplications overlap and a scale-1 linux
/// model's ~640 KB hash in about a tenth of a millisecond. A round
/// is a bijection of its lane for a fixed word, so texts of one length
/// that differ in one word always get different words. The lanes, the
/// tail and the length then go through [`StableHash`].
pub(crate) fn text_word(text: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    let mut lanes: [u64; 4] = [
        0x2545_f491_4f6c_dd1d,
        0x6a09_e667_f3bc_c908,
        0xbb67_ae85_84ca_a73b,
        0x3c6e_f372_fe94_f82b,
    ];
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
    let mut blocks = text.chunks_exact(32);
    for block in &mut blocks {
        for (lane, bytes) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane
                .wrapping_add(word(bytes).wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1);
        }
    }
    let mut h = StableHash::new();
    h.word(text.len() as u64);
    for lane in lanes {
        h.word(lane);
    }
    for chunk in blocks.remainder().chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h.word(u64::from_le_bytes(buf));
    }
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

/// Every fingerprint change detection needs for one function space: per
/// `FuncId`, the function's fingerprint and, over a module, its closure
/// member word.
#[derive(Debug)]
pub(crate) struct ModuleFingerprints {
    /// Per `FuncId`: the function's fingerprint.
    pub(crate) fps: Vec<u64>,
    /// Per `FuncId`: [`member_word`] of the function's name and
    /// fingerprint. Empty for fingerprints loaded from a store, which have
    /// no module.
    members: Vec<u64>,
    /// The walk's words over the module `members` describe, kept so that
    /// a refresh costs only the functions it walks. Empty for fingerprints
    /// loaded from a store.
    tables: FingerprintTables,
}

impl ModuleFingerprints {
    /// A loaded function table's fingerprints, with no module behind them.
    pub(crate) fn from_fps(fps: Vec<u64>) -> ModuleFingerprints {
        ModuleFingerprints {
            fps,
            members: Vec::new(),
            tables: FingerprintTables::default(),
        }
    }

    /// Fingerprints `funcs` again after they were lowered again in place
    /// into `module`, the module these fingerprints were built on, and
    /// returns those whose value changed. No other function's fingerprint
    /// can have moved: the splice renumbered only variables, and
    /// fingerprints number variables per function. The kept words serve
    /// the walk: relowering in place keeps every name and struct.
    pub(crate) fn refresh(&mut self, module: &Module, funcs: &[FuncId]) -> Vec<FuncId> {
        debug_assert_eq!(self.members.len(), module.functions().len());
        let mut changed = Vec::new();
        if funcs.is_empty() {
            return changed;
        }
        let mut fp = Fingerprinter::with_tables(module, std::mem::take(&mut self.tables));
        for &id in funcs {
            let value = fp.function(module.function(id));
            if self.fps[id.index()] != value {
                self.fps[id.index()] = value;
                changed.push(id);
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
        let mut fps = Vec::with_capacity(module.functions().len());
        let mut members = Vec::with_capacity(module.functions().len());
        for f in module.functions() {
            let value = fp.function(f);
            fps.push(value);
            members.push(member_word(fp.t.names[f.id().index()], value));
        }
        ModuleFingerprints {
            fps,
            members,
            tables: fp.t,
        }
    }

    /// How many of this space's functions changed since `prev`, the
    /// fingerprints of a space whose function `i` is this one's `to[i]`:
    /// those no function of `prev` becomes with the same fingerprint.
    /// Names are unique in both spaces, so `to` maps no two functions to
    /// one.
    pub(crate) fn changed_since(&self, prev: &[u64], to: &[Option<FuncId>]) -> u64 {
        let mut kept = vec![false; self.fps.len()];
        for (&old, f) in prev.iter().zip(to) {
            if let Some(f) = f {
                kept[f.index()] |= self.fps[f.index()] == old;
            }
        }
        kept.iter().filter(|&&k| !k).count() as u64
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
/// docs). SMT symbol ids are kept verbatim: exploration is deterministic,
/// so an unchanged root assigns the same `SymId`s again.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RootRecord {
    pub(crate) root: FuncId,
    /// Closure fingerprint at the time the result was recorded.
    pub(crate) closure_fp: u64,
    /// Stage-1 candidates in exploration order, each with `root` as root.
    pub(crate) candidates: Vec<PossibleBug>,
    /// Per candidate: the source lines of its origin and site instructions
    /// ([`Module::loc_of`]), captured when the root is explored. Every
    /// session finding renders from them, so no request reads its module
    /// after exploration. A clean record's lines are never stale:
    /// fingerprints hash every instruction's line, and with `resolve_fptrs`
    /// off a candidate's functions lie in its root's closure (with it on,
    /// every closure is the whole module).
    pub(crate) lines: Vec<[u32; 2]>,
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

    /// Whether every function the record names has an id below `len`.
    fn fits(&self, len: usize) -> bool {
        let fits = |f: FuncId| f.index() < len;
        fits(self.root)
            && self
                .candidates
                .iter()
                .all(|b| fits(b.origin_id.func) && fits(b.site_id.func))
    }
}

/// The function space of `module`: its functions' shared names, in id
/// order.
pub(crate) fn function_space(module: &Module) -> Arc<[Arc<str>]> {
    module
        .functions()
        .iter()
        .map(|f| Arc::clone(f.shared_name()))
        .collect()
}

/// The origin and site lines of each of `candidates` in `module`.
pub(crate) fn candidate_lines(module: &Module, candidates: &[PossibleBug]) -> Vec<[u32; 2]> {
    candidates
        .iter()
        .map(|b| {
            [
                module.loc_of(b.origin_id).line,
                module.loc_of(b.site_id).line,
            ]
        })
        .collect()
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

// --------------------------------------------------------------------
// The store document
// --------------------------------------------------------------------

/// One request position of the file table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FileEntry {
    pub(crate) name: String,
    /// The text's length in bytes.
    pub(crate) bytes: u64,
    /// The text's line count, as the parser counts it.
    pub(crate) lines: u32,
    /// [`text_word`] of the text.
    pub(crate) word: u64,
}

/// A function space as the store keeps it: per `FuncId`, the function's
/// name, fingerprint and file index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FunctionTable<'a> {
    pub(crate) names: &'a [Arc<str>],
    pub(crate) fps: &'a [u64],
    pub(crate) files: &'a [u32],
}

/// An in-memory image of the on-disk store.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Store {
    /// The file table, in request order.
    pub(crate) files: Vec<FileEntry>,
    /// The function space: one name per `FuncId`, in the saving module's
    /// order.
    pub(crate) names: Arc<[Arc<str>]>,
    /// Per `FuncId`: the function's fingerprint.
    pub(crate) fps: Vec<u64>,
    /// Per `FuncId`: the index of the function's file in `files`.
    pub(crate) func_files: Vec<u32>,
    /// How many analysis roots the saving module had; a quarantined root
    /// has no record.
    pub(crate) root_count: u64,
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
    /// How many analysis roots the module has.
    pub(crate) root_count: u64,
    /// The file table.
    pub(crate) files: &'a [FileEntry],
    /// The function table, the space of `roots`.
    pub(crate) functions: FunctionTable<'a>,
    /// Per-root cached results, in the recorded root order.
    pub(crate) roots: &'a [RootRecord],
    /// Stage-2 verdicts under canonical keys, sorted by key.
    pub(crate) validation: &'a [(Vec<u8>, SatResult)],
}

/// What one request changed in a store that equalled the session's warm
/// state before it: the only changes a save may append as one delta line
/// instead of rewriting the whole store. The file names, the function
/// space and the roots are the store's.
#[derive(Debug)]
pub(crate) struct StoreDelta<'a> {
    /// File entries that replace the stored entry at their position.
    pub(crate) files: Vec<(usize, &'a FileEntry)>,
    /// Functions whose fingerprint or file changed: id, fingerprint, file.
    pub(crate) functions: Vec<(FuncId, u64, u32)>,
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
    /// and `expect_config_fp`. Any deviation — malformed JSON, version or
    /// fingerprint mismatch, missing or mistyped field, an index past the
    /// table it names — yields `None`: the caller starts cold. Keys may
    /// come in any order, the first of two equal keys wins, and unknown
    /// keys are ignored.
    fn read_base(text: &str, expect_config_fp: u64) -> Option<Store> {
        let mut r = Reader::new(text);
        let mut version = None;
        let mut config_fp = None;
        let mut root_count = None;
        let mut files = None;
        let mut functions = None;
        let mut roots = None;
        let mut validation = None;
        each_field(&mut r, |r, key| {
            match &*key {
                "schema_version" if version.is_none() => version = Some(read(r.int())?),
                "config_fingerprint" if config_fp.is_none() => config_fp = Some(read_hex64(r)?),
                "root_count" if root_count.is_none() => root_count = Some(read_u64(r)?),
                "files" if files.is_none() => {
                    files = Some(read_list(r, |r| Some(read_file::<4>(r)?.1))?);
                }
                "functions" if functions.is_none() => {
                    let name = |r: &mut Reader<'_>| Some(Arc::from(&*read(r.str())?));
                    functions = Some(read_list(r, |r| read_function(r, name))?);
                }
                "roots" if roots.is_none() => roots = Some(read_list(r, read_root)?),
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
        let (files, functions, roots): (Vec<FileEntry>, Vec<_>, Vec<RootRecord>) =
            (files?, functions?, roots?);
        let mut names = Vec::with_capacity(functions.len());
        let mut fps = Vec::with_capacity(functions.len());
        let mut func_files = Vec::with_capacity(functions.len());
        for (name, fp, file) in functions {
            names.push(name);
            fps.push(fp);
            func_files.push(file);
        }
        let in_files = |&file: &u32| (file as usize) < files.len();
        if !func_files.iter().all(in_files) || !roots.iter().all(|r| r.fits(names.len())) {
            return None;
        }
        Some(Store {
            files,
            names: names.into(),
            fps,
            func_files,
            root_count: root_count?,
            roots,
            validation: validation?,
        })
    }

    /// Parses a whole store file: the base document on the first line,
    /// then each delta line applied in order. Every line ends in a
    /// newline. A torn last line, a line that does not parse, or a delta
    /// naming a file position, function or root the store lacks yields
    /// `None`: the caller starts cold.
    pub(crate) fn parse_file(text: &str, expect_config_fp: u64) -> Option<(Store, StoreFile)> {
        let mut lines = text.strip_suffix('\n')?.split('\n');
        let base = lines.next()?;
        let mut store = Store::read_base(base, expect_config_fp)?;
        let mut at: Option<Vec<Option<usize>>> = None;
        for line in lines {
            let at = at.get_or_insert_with(|| record_at(&store.roots, store.names.len(), Some));
            store.apply_delta(line, at)?;
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

    /// Applies one delta line; `at` gives the record of each root of the
    /// store's space.
    fn apply_delta(&mut self, line: &str, at: &[Option<usize>]) -> Option<()> {
        let mut r = Reader::new(line);
        let (mut files, mut functions, mut roots, mut validation) = (false, false, false, false);
        let (file_count, function_count) = (self.files.len(), self.names.len());
        each_field(&mut r, |r, key| {
            match &*key {
                "files" if !files => {
                    files = true;
                    each_item(r, |r| {
                        let (at, entry) = read_file::<5>(r)?;
                        *self.files.get_mut(usize::try_from(at?).ok()?)? = entry;
                        Some(())
                    })?;
                }
                "functions" if !functions => {
                    functions = true;
                    each_item(r, |r| {
                        let id = |r: &mut Reader<'_>| usize::try_from(read_u64(r)?).ok();
                        let (id, fp, file) = read_function(r, id)?;
                        if id >= function_count || file as usize >= file_count {
                            return None;
                        }
                        (self.fps[id], self.func_files[id]) = (fp, file);
                        Some(())
                    })?;
                }
                "roots" if !roots => {
                    roots = true;
                    each_item(r, |r| {
                        let record = read_root(r).filter(|r| r.fits(function_count))?;
                        let i = at[record.root.index()]?;
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
        (files && functions && roots && validation).then_some(())
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
             \"root_count\": {}, \"files\": [",
            self.config_fp, self.root_count
        );
        write_list(&mut out, self.files, |out, f| write_file(out, None, f));
        out.push_str("], \"functions\": [");
        let t = self.functions;
        debug_assert!(t.names.len() == t.fps.len() && t.fps.len() == t.files.len());
        write_list(&mut out, 0..t.names.len(), |out, i| {
            out.push('[');
            quote_into(out, &t.names[i]);
            let _ = write!(out, ", \"{:016x}\", {}]", t.fps[i], t.files[i]);
        });
        out.push_str("], \"roots\": [");
        write_list(&mut out, self.roots, write_root);
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
        let mut out = String::from("{\"files\": [");
        write_list(&mut out, &self.files, |out, &(at, f)| {
            write_file(out, Some(at), f)
        });
        out.push_str("], \"functions\": [");
        write_list(&mut out, &self.functions, |out, &(id, fp, file)| {
            let _ = write!(out, "[{}, \"{fp:016x}\", {file}]", id.index());
        });
        out.push_str("], \"roots\": [");
        write_list(&mut out, self.roots.iter().copied(), write_root);
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
// JSON helpers (files, functions, roots, bugs, constraints, stats)
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

/// Reads a non-negative integer.
fn read_u64(r: &mut Reader) -> Option<u64> {
    u64::try_from(read(r.int())?).ok()
}

/// Reads an integer that fits a `u32`: a line, a block or a file index.
fn read_u32(r: &mut Reader) -> Option<u32> {
    u32::try_from(read(r.int())?).ok()
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

/// Reads an array of exactly `N` items, the `k`-th read by `item(k, r)`.
fn read_tuple<'a, const N: usize>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(usize, &mut Reader<'a>) -> Option<()>,
) -> Option<()> {
    let mut n = 0;
    each_item(r, |r| {
        if n == N {
            return None;
        }
        item(n, r)?;
        n += 1;
        Some(())
    })?;
    (n == N).then_some(())
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

/// Writes a file entry, `[name, bytes, lines, "word hex"]`; a delta's
/// starts with its position `at`.
fn write_file(out: &mut String, at: Option<usize>, f: &FileEntry) {
    out.push('[');
    if let Some(at) = at {
        let _ = write!(out, "{at}, ");
    }
    quote_into(out, &f.name);
    let _ = write!(out, ", {}, {}, \"{:016x}\"]", f.bytes, f.lines, f.word);
}

/// Reads a file entry of `N` items: 4 in the base, 5 in a delta, whose
/// first item is the entry's position `at`.
fn read_file<const N: usize>(r: &mut Reader) -> Option<(Option<u64>, FileEntry)> {
    let (mut at, mut name, mut bytes, mut lines, mut word) = (None, None, None, None, None);
    // Items counted from the end, so both shapes share the last four.
    read_tuple::<N>(r, |i, r| {
        match N - i {
            5 => at = Some(read_u64(r)?),
            4 => name = Some(read(r.str())?.into_owned()),
            3 => bytes = Some(read_u64(r)?),
            2 => lines = Some(read_u32(r)?),
            _ => word = Some(read_hex64(r)?),
        }
        Some(())
    })?;
    let entry = FileEntry {
        name: name?,
        bytes: bytes?,
        lines: lines?,
        word: word?,
    };
    Some((at, entry))
}

/// Reads a function entry, `[key, "fp hex", file]`, whose key `key`
/// reads: the name in the function table, the id in a delta.
fn read_function<'a, K>(
    r: &mut Reader<'a>,
    mut key: impl FnMut(&mut Reader<'a>) -> Option<K>,
) -> Option<(K, u64, u32)> {
    let (mut k, mut fp, mut file) = (None, None, None);
    read_tuple::<3>(r, |i, r| {
        match i {
            0 => k = Some(key(r)?),
            1 => fp = Some(read_hex64(r)?),
            _ => file = Some(read_u32(r)?),
        }
        Some(())
    })?;
    Some((k?, fp?, file?))
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

fn write_root(out: &mut String, r: &RootRecord) {
    let counters = stored_counters(&r.stats);
    debug_assert_eq!(
        r.stats,
        record_stats(counters, r.candidates.len(), r.note.is_some()),
        "a root record's statistics are its stored counters"
    );
    assert_eq!(
        r.lines.len(),
        r.candidates.len(),
        "a stored record has its candidates' lines"
    );
    let _ = write!(
        out,
        "{{\"root\": {}, \"closure_fp\": \"{:016x}\", \"candidates\": [",
        r.root.index(),
        r.closure_fp
    );
    write_list(out, zip(&r.candidates, &r.lines), write_bug);
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

/// Reads a root record; the caller checks that its functions lie in the
/// store's space.
fn read_root(r: &mut Reader) -> Option<RootRecord> {
    let mut root = None;
    let mut closure_fp = None;
    let mut candidates = None;
    let mut counters = None;
    let mut note = None;
    let mut demoted = None;
    each_field(r, |r, key| {
        match &*key {
            "root" if root.is_none() => root = Some(usize::try_from(read_u64(r)?).ok()?),
            "closure_fp" if closure_fp.is_none() => closure_fp = Some(read_hex64(r)?),
            "candidates" if candidates.is_none() => candidates = Some(read_list(r, read_bug)?),
            "stats" if counters.is_none() => counters = Some(read_counters(r)?),
            "note" if note.is_none() => note = Some(read(r.str())?.into_owned()),
            "demoted" if demoted.is_none() => demoted = Some(read(r.str())?.into_owned()),
            _ => r.skip_value().ok()?,
        }
        Some(())
    })?;
    let root = FuncId::from_index(root?);
    let (mut candidates, lines): (Vec<PossibleBug>, Vec<[u32; 2]>) =
        candidates?.into_iter().unzip();
    for bug in &mut candidates {
        bug.root = root;
    }
    Some(RootRecord {
        stats: record_stats(counters?, candidates.len(), note.is_some()),
        closure_fp: closure_fp?,
        root,
        candidates,
        lines,
        note,
        demoted,
    })
}

/// Reads a record's `stats`: exactly seven non-negative integers.
fn read_counters(r: &mut Reader) -> Option<[u64; 7]> {
    let mut counters = [0u64; 7];
    read_tuple::<7>(r, |k, r| {
        counters[k] = read_u64(r)?;
        Some(())
    })?;
    Some(counters)
}

fn write_bug(out: &mut String, (b, lines): (&PossibleBug, &[u32; 2])) {
    let inst = |out: &mut String, id: InstId, line: u32| {
        let (func, block, inst) = (id.func.index(), id.block.index(), id.inst);
        let _ = write!(
            out,
            "{{\"func\": {func}, \"block\": {block}, \"inst\": {inst}, \"line\": {line}}}"
        );
    };
    out.push_str("{\"kind\": ");
    quote_into(out, b.kind.as_str());
    out.push_str(", \"origin\": ");
    inst(out, b.origin_id, lines[0]);
    out.push_str(", \"site\": ");
    inst(out, b.site_id, lines[1]);
    out.push_str(", \"constraints\": [");
    write_list(out, b.constraints.iter(), write_constraint);
    out.push_str("], \"extra\": [");
    write_list(out, b.extra.iter(), write_constraint);
    out.push_str("], \"alias_paths\": [");
    write_list(out, b.alias_paths.iter(), |out, p| quote_into(out, p));
    out.push_str("]}");
}

/// Reads a candidate with its origin and site lines; its `root` is left
/// for [`read_root`] to set.
fn read_bug(r: &mut Reader) -> Option<(PossibleBug, [u32; 2])> {
    let mut kind = None;
    let mut origin = None;
    let mut site = None;
    let mut constraints = None;
    let mut extra = None;
    let mut alias_paths = None;
    each_field(r, |r, key| {
        match &*key {
            "kind" if kind.is_none() => kind = Some(BugKind::parse(&read(r.str())?)?),
            "origin" if origin.is_none() => origin = Some(read_inst(r)?),
            "site" if site.is_none() => site = Some(read_inst(r)?),
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
    let ((origin_id, origin_line), (site_id, site_line)) = (origin?, site?);
    let bug = PossibleBug {
        kind: kind?,
        origin_id,
        site_id,
        constraints: constraints?.into(),
        extra: extra?.into(),
        alias_paths: alias_paths?.into(),
        root: FuncId::from_index(0),
    };
    Some((bug, [origin_line, site_line]))
}

/// Reads an instruction and its source line: its function's index in the
/// store's space, its block and instruction indices and its line. A block
/// index and a line are `u32`s, as in any module.
fn read_inst(r: &mut Reader) -> Option<(InstId, u32)> {
    let (mut func, mut block, mut inst, mut line) = (None, None, None, None);
    each_field(r, |r, key| {
        match &*key {
            "func" if func.is_none() => func = Some(usize::try_from(read_u64(r)?).ok()?),
            "block" if block.is_none() => block = Some(read_u32(r)?),
            "inst" if inst.is_none() => inst = Some(usize::try_from(read_u64(r)?).ok()?),
            "line" if line.is_none() => line = Some(read_u32(r)?),
            _ => r.skip_value().ok()?,
        }
        Some(())
    })?;
    let id = InstId {
        func: FuncId::from_index(func?),
        block: BlockId::from_index(block? as usize),
        inst: inst?,
    };
    Some((id, line?))
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
            Store::read_base(text, expect_config_fp)
        }

        /// The store's function table.
        pub(crate) fn table(&self) -> FunctionTable<'_> {
            FunctionTable {
                names: &self.names,
                fps: &self.fps,
                files: &self.func_files,
            }
        }

        /// The store as a document over its own parts.
        fn doc(&self) -> StoreDoc<'_> {
            StoreDoc {
                config_fp: CONFIG_FP,
                root_count: self.root_count,
                files: &self.files,
                functions: self.table(),
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

    /// A store over the space `["probe", "helper"]` of two files: one
    /// record of the root `probe` whose candidate runs from `probe` into
    /// `helper`.
    fn sample_store() -> Store {
        let file = |name: &str, bytes, lines, word| FileEntry {
            name: name.to_owned(),
            bytes,
            lines,
            word,
        };
        let (probe, helper) = (FuncId::from_index(0), FuncId::from_index(1));
        let inst = |func, block, inst| InstId {
            func,
            block: BlockId::from_index(block),
            inst,
        };
        Store {
            files: vec![file("a.c", 120, 9, 0x5eed), file("b.c", 31, 2, 0xfeed)],
            names: Arc::new(["probe".into(), "helper".into()]),
            fps: vec![0xdead_beef, 42],
            func_files: vec![0, 1],
            root_count: 2,
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
                lines: vec![[3, 7]],
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
        assert_eq!(back, store);
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
            r#"{"schema_version": 7, "config_fingerprint": "0000000000000007", "#,
            r#""root_count": 2, "files": [["a.c", 120, 9, "0000000000005eed"], "#,
            r#"["b.c", 31, 2, "000000000000feed"]], "functions": [["probe", "00000000deadbeef", 0], "#,
            r#"["helper", "000000000000002a", 1]], "#,
            r#""roots": [{"root": 0, "closure_fp": "0000000000001234", "#,
            r#""candidates": [{"kind": "null-pointer-dereference", "origin": {"func": 0, "#,
            r#""block": 0, "inst": 2, "line": 3}, "site": {"func": 1, "block": 1, "inst": 0, "#,
            r#""line": 7}, "#,
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
            files: Vec::new(),
            functions: Vec::new(),
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
    fn text_word_is_pinned_and_sees_every_byte() {
        // Pinned values: the word is part of the store schema.
        assert_eq!(text_word(b""), 0xc841_3808_d132_da32);
        assert_eq!(
            text_word(b"int f(void) { return 0; }\n"),
            0x0d16_8bd2_ac8e_29e3
        );
        let text: Vec<u8> = (0..100u8).collect();
        let word = text_word(&text);
        for i in 0..text.len() {
            let mut flipped = text.clone();
            flipped[i] ^= 1;
            assert_ne!(text_word(&flipped), word, "byte {i}");
        }
        assert_ne!(text_word(&text[..99]), word);
        // The tail's zero padding is not a text's zero byte.
        assert_ne!(text_word(b"a"), text_word(b"a\0"));
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
        moved.members[leaf] = member_word(str_word("leaf"), fps.fps[leaf] ^ 1);
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

    /// Each function's fingerprint by name.
    fn fingerprints(files: &[(&str, &str)]) -> std::collections::HashMap<String, u64> {
        let mut cc = pata_cc::Compiler::new();
        for (name, text) in files {
            cc.add_source(name, text);
        }
        let module = cc.compile().unwrap();
        let fps = ModuleFingerprints::build(&module);
        let names = module.functions().iter().map(|f| f.name().to_owned());
        names.zip(fps.fps).collect()
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
    }

    #[test]
    fn fingerprints_see_what_the_analysis_reads() {
        let base_src = "struct s { int *p; };\nint beta(struct s *x) { return *x->p + 1; }\n";
        let base = fingerprints(&[("a.c", base_src)])["beta"];
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
            let changed = fingerprints(&[("a.c", src)])["beta"];
            assert_ne!(changed, base, "{what} edit must change the fingerprint");
        }
        // The file name is part of every location.
        assert_ne!(fingerprints(&[("b.c", base_src)])["beta"], base);
    }
}
