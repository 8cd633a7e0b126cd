//! The path explorer: depth-first control-flow-path enumeration with
//! in-lockstep alias-graph updates (§3.1, Fig. 6), typestate tracking
//! (§3.2) and SMT-constraint collection for later path validation (§3.3).
//!
//! ## Traversal (paper Fig. 6)
//!
//! Analysis starts at a *module interface function* and walks the CFG
//! depth-first. At a conditional branch the current state (alias graph,
//! typestates, condition definitions, symbols, constraint trace) is marked,
//! one successor is fully explored, and the state is rolled back before the
//! other successor — the paper's per-path "COPY" of the alias graph (Fig. 7)
//! implemented with undo journals instead of clones. The copy-on-write
//! discipline is switchable ([`crate::AnalysisConfig::cow_state`], DESIGN.md
//! "Copy-on-write path state"): with it off, every branch arm restores by
//! deep-cloning the live state at the fork — the paper's literal COPY
//! semantics — which doubles as the differential oracle for the journaled
//! mode and as the baseline the `driver.explore.fork.*` telemetry (forks,
//! bytes copied vs shared, undo-journal depth) quantifies the win against.
//!
//! Loops and recursion are unrolled once: a successor block already on the
//! current within-frame DFS stack is not re-entered, and a callee already on
//! the call stack is treated as opaque (the paper's Fig. 6 lines 32-38 and
//! §3.1 soundness discussion).
//!
//! ## Calls (paper Fig. 6, HandleCALL)
//!
//! A direct call is inlined: actual arguments `MOVE` into formal parameters
//! (making them aliases), the callee is explored as a continuation of the
//! same path, and its `return` value `MOVE`s into the caller's destination.
//! External and indirect callees are opaque (PATA does not resolve
//! function pointers, §7); their pointer arguments conservatively escape.
//!
//! ## Constraints (paper §3.3, Table 3)
//!
//! Every alias set maps to one SMT symbol (Def. 4). `MOVE`/`LOAD`/`GEP`
//! therefore emit *no* constraints — the symbol identity makes the explicit
//! copy equalities and the implicit field equalities of Fig. 9 hold by
//! construction; the explorer counts what an alias-unaware encoding would
//! have emitted instead (Table 5's "SMT constraints unaware" column).

use crate::alias::{AliasGraph, Label, Mark as GraphMark, NodeId, Op as GraphOp};
use crate::checkers::ml;
use crate::config::{AliasMode, AnalysisConfig};
use crate::faultinject;
use crate::fingerprint::{
    hash2, hash4, mix, FxHashMap, TAG_ARG, TAG_CALLSTACK, TAG_COND, TAG_CONT, TAG_FPTR, TAG_FRAME,
    TAG_HEAP, TAG_SYM, TAG_VISIT,
};
use crate::report::PossibleBug;
use crate::stats::{AnalysisStats, BudgetNote};
use crate::typestate::{
    BranchEvent, Checker, FrameEndEvent, HeapObject, OperandKey, PendingBug, StateMark, StateOp,
    StateTable, TrackCtx, TrackKey, UpdateInfo,
};
use pata_ir::{
    BlockId, Callee, CmpOp, ConstVal, FuncId, Inst, InstId, InstKind, Loc, Module, Operand,
    Terminator, VarId,
};
use pata_smt::{CmpOp as SmtOp, Constraint, SymId, Term};
use std::sync::Arc;

/// The definition of a branch-condition temporary (`c = a < b`).
#[derive(Debug, Clone, Copy)]
struct PredDef {
    op: CmpOp,
    lhs: Operand,
    rhs: Operand,
}

/// One inlined function activation.
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    /// Explorer-unique id; heap-journal entries name their frame by serial
    /// so rollback can tell a dead frame's leftover entries (nothing to
    /// undo — the frame's facts left `frames_fp` when it was popped) from
    /// entries of the frame currently at that depth.
    serial: u64,
    /// Per-block visit counts on the current DFS stack within this frame
    /// (the loop cut: a block may appear `loop_iterations + 1` times on a
    /// path, letting a loop body run `loop_iterations` times and the path
    /// still leave through the header's exit edge). Dense, indexed by
    /// `BlockId::index()`: block ids are small per-function integers, and
    /// this counter is hit on every block entry/exit, so an array beats a
    /// hash map on both lookup cost and allocation churn.
    visited: Vec<u32>,
    /// Which blocks lie on a CFG cycle (shared per function; see
    /// [`Explorer::cyclic_mask`]). Visit counts of non-cyclic blocks are
    /// pure path history — `may_enter` can never consult them again — so
    /// the subsumption fingerprint omits them; without this, the arm blocks
    /// of every diamond would poison the fingerprint at the join and two
    /// converging states could never be recognized as equal.
    cyclic: Arc<Vec<bool>>,
    /// Heap objects allocated while this frame was active.
    heap_objects: Vec<HeapObject>,
    /// Incremental XOR of this frame's fingerprint facts (frame identity at
    /// its depth, cyclic visit counts, heap objects). Kept current by the
    /// mutation helpers; valid as long as the frame sits at the depth it
    /// was created for (frames are only ever re-pushed at the same depth).
    fp: u64,
}

impl Frame {
    fn new(
        func: FuncId,
        serial: u64,
        block_count: usize,
        cyclic: Arc<Vec<bool>>,
        depth: usize,
    ) -> Self {
        Frame {
            func,
            serial,
            visited: vec![0; block_count],
            cyclic,
            heap_objects: Vec::new(),
            fp: hash2(TAG_FRAME, depth as u64, func.index() as u64),
        }
    }

    /// Rough heap footprint of one deep-cloned frame.
    fn approx_bytes(&self) -> u64 {
        (self.visited.len() * std::mem::size_of::<u32>()
            + self.heap_objects.len() * std::mem::size_of::<HeapObject>()) as u64
    }
}

/// One journaled heap-object push: which frame (by serial, see
/// [`Frame::serial`]) received an object, and at which depth it sat. The
/// journal makes [`Explorer::full_mark`] O(1) — the old design snapshotted
/// every frame's heap-object count into a `Vec`, making every branch fork
/// O(call depth) with an allocation.
#[derive(Debug, Clone, Copy)]
struct HeapPush {
    serial: u64,
    depth: u32,
}

/// A pending return site while a callee is being explored.
#[derive(Debug, Clone, Copy)]
struct Cont {
    func: FuncId,
    block: BlockId,
    next_inst: usize,
    dst: Option<VarId>,
}

/// A combined rollback point across all journaled structures. `Copy` and
/// fixed-size by design: taking one allocates nothing, so a branch fork
/// costs O(changed) regardless of call depth or path length.
#[derive(Debug, Clone, Copy)]
struct FullMark {
    graph: GraphMark,
    states: StateMark,
    conds: usize,
    syms: usize,
    fptrs: usize,
    /// Symbol counter at the mark. Restoring it makes symbol allocation a
    /// pure function of (state, remaining program): sibling branch arms
    /// allocate identical ids for identical work, so converging states
    /// carry equal `next_sym` / symbol maps and can hit the subsumption
    /// table. (Constraints never escape their path, so reuse across
    /// rolled-back siblings cannot collide.)
    next_sym: u32,
    trace: usize,
    heap: usize,
}

/// A deep copy of every forkable structure, taken per branch arm when
/// [`crate::AnalysisConfig::cow_state`] is off — the paper's literal
/// per-successor COPY of the live state (Fig. 7). Restoring move-assigns
/// the clones back, which is observationally identical to the journal
/// rollback CoW mode performs (the equivalence tests assert byte-identical
/// reports across both). It exists as the measured baseline for the
/// `driver.explore.fork.*` telemetry and as a differential oracle for the
/// journaled mode. The continuation stack is deliberately absent: branch
/// arms are call-balanced, so `conts` (and its accumulator) return to their
/// fork-time values on their own.
struct CloneSnapshot {
    graph: AliasGraph,
    states: StateTable,
    cond_defs: FxHashMap<VarId, PredDef>,
    cond_journal: Vec<(VarId, Option<PredDef>)>,
    syms: FxHashMap<TrackKey, SymId>,
    sym_journal: Vec<(TrackKey, Option<SymId>)>,
    fptrs: FxHashMap<TrackKey, FuncId>,
    fptr_journal: Vec<(TrackKey, Option<FuncId>)>,
    heap_journal: Vec<HeapPush>,
    next_sym: u32,
    trace: Vec<Constraint>,
    frames: Vec<Frame>,
    maps_fp: u64,
    frames_fp: u64,
}

// ==================================================================
// Exploration reuse: subsumption table & callee-summary cache
// ==================================================================
//
// Both caches rely on the same soundness argument (DESIGN.md): table keys
// embed a fingerprint of the *exact* live analysis state with literal
// identifiers, plus `next_sym` and the alias-graph node count. Key equality
// therefore means the recorded trajectory — every id it mentions, every
// fresh id it would allocate — denotes the same objects in the replaying
// state, so replaying the recorded effects is bit-identical to re-running
// the subtree. Anything that breaks the argument (budget exhaustion mid
// subtree, forced fork prefixes, event overflow) poisons the recording
// instead of inserting an unsound entry.

/// A bug emitted somewhere inside a recorded subtree: everything needed to
/// re-emit it at replay time. `suffix` holds the constraints the subtree
/// pushed after the recorder's entry point; the replaying path prepends its
/// own live trace prefix, which is exactly what a re-run would have cloned.
/// The bug body and rendered alias paths are `Arc`-shared: every recorder
/// observing the emission (nested subsumption recorders plus the callee
/// recorder) holds the same allocation, and replay re-emits by bumping a
/// refcount instead of deep-cloning strings.
#[derive(Debug, Clone)]
struct RecordedBug {
    pb: Arc<PendingBug>,
    alias_paths: Arc<Vec<String>>,
    suffix: Vec<Constraint>,
}

/// Subsumption key: block entered, dynamic state fingerprint (graph, states,
/// condition/symbol/fptr maps, frames with visit counts and heap objects,
/// pending continuations), symbol counter, and node count (two states with
/// equal fingerprints but different node-vector lengths would allocate
/// different fresh `NodeId`s during the subtree).
type SubKey = (FuncId, BlockId, u64, u32, u64);

/// A fully explored `(block, state)` subtree: replaying it re-emits the
/// recorded bugs through the live dedup filter and adds the exploration
/// volume the subtree cost, without touching any journaled state — a
/// completed subtree's net state effect is nil (its enclosing branch arm
/// rolls it back), and everything it leaves behind is write-only.
struct SubEntry {
    d_stats: AnalysisStats,
    d_alias_ops: [u64; ALIAS_OP_NAMES.len()],
    d_next_sym: u32,
    events: Vec<RecordedBug>,
}

/// In-flight subsumption recording; one per live `exec_block` activation.
struct SubRecorder {
    key: SubKey,
    base_stats: AnalysisStats,
    base_alias_ops: [u64; ALIAS_OP_NAMES.len()],
    base_next_sym: u32,
    trace_len: usize,
    events: Vec<RecordedBug>,
    poisoned: bool,
}

/// Callee-memo key: callee, state fingerprint over graph/states/maps (the
/// structural stacks are irrelevant to a callee's behavior), symbol counter,
/// node count, and a call-stack fingerprint (the stack decides recursion
/// cuts and the depth cap for nested inlining).
type MemoKey = (FuncId, u64, u32, u64, u64);

/// One return path through a memoized callee: the net journal effects from
/// the call site to the `Ret`, the constraint suffix, the recorded bugs, and
/// the return value to bind. The caller continuation after each `Ret` is
/// *not* recorded — it re-runs live at replay (it belongs to the caller, and
/// its exploration depends on caller context the key does not cover).
struct MemoSegment {
    graph_ops: Vec<GraphOp>,
    state_ops: Vec<StateOp>,
    cond_delta: Vec<(VarId, Option<PredDef>)>,
    sym_delta: Vec<(TrackKey, Option<SymId>)>,
    fptr_delta: Vec<(TrackKey, Option<FuncId>)>,
    trace_suffix: Vec<Constraint>,
    d_stats: AnalysisStats,
    d_alias_ops: [u64; ALIAS_OP_NAMES.len()],
    d_next_sym: u32,
    events: Vec<RecordedBug>,
    /// `Some` for a real return path: (returned operand, ret loc, ret inst).
    /// `None` for the trailing segment covering dead-end exploration after
    /// the last `Ret` (budget-relevant work with no caller continuation).
    ret: Option<(Option<Operand>, Loc, InstId)>,
}

/// A recorded callee exploration: segments in discovery order.
struct MemoEntry {
    segments: Vec<MemoSegment>,
}

/// In-flight callee-summary recording. Recording *suspends* while the live
/// caller continuation runs after each `Ret` (that work belongs to the
/// caller) and resumes when the callee's DFS backtracks past the return.
struct MemoRecorder {
    key: MemoKey,
    entry_mark: FullMark,
    /// `conts.len()` at the call site; a `Ret` popping back to this depth is
    /// a segment boundary.
    base_conts: usize,
    seg_base_stats: AnalysisStats,
    seg_base_alias_ops: [u64; ALIAS_OP_NAMES.len()],
    seg_events: Vec<RecordedBug>,
    segments: Vec<MemoSegment>,
    suspended: bool,
    poisoned: bool,
}

/// Cap on recorded bugs per recording; noisier subtrees are cheaper to
/// re-run than to record.
const EVENT_CAP: usize = 256;
/// Cap on return paths per callee recording.
const SEGMENT_CAP: usize = 64;
/// Cap on subsumption-table entries.
const SUB_TABLE_CAP: usize = 1 << 16;
/// Cap on callee-memo entries.
const MEMO_TABLE_CAP: usize = 1 << 12;

/// The per-root path explorer. Construct one per analysis root via
/// [`Explorer::new`] and run [`Explorer::explore`].
pub struct Explorer<'a> {
    module: &'a Module,
    config: &'a AnalysisConfig,
    checkers: &'a [Box<dyn Checker>],

    graph: AliasGraph,
    states: StateTable,
    cond_defs: FxHashMap<VarId, PredDef>,
    cond_journal: Vec<(VarId, Option<PredDef>)>,
    syms: FxHashMap<TrackKey, SymId>,
    sym_journal: Vec<(TrackKey, Option<SymId>)>,
    /// Function addresses pinned to alias sets along the current path
    /// (the §7 function-pointer extension; populated by `FuncAddr`).
    fptrs: FxHashMap<TrackKey, FuncId>,
    fptr_journal: Vec<(TrackKey, Option<FuncId>)>,
    /// Journal of heap-object pushes (see [`HeapPush`]); gives the combined
    /// mark a single O(1) length instead of a per-frame length vector.
    heap_journal: Vec<HeapPush>,
    /// Next frame serial (see [`Frame::serial`]).
    frame_serial: u64,
    next_sym: u32,
    trace: Vec<Constraint>,

    /// Incremental XOR accumulators mirroring the slow fingerprint folds
    /// (see [`Explorer::slow_dyn_fp`]): path-local maps, frame facts, and
    /// pending-continuation facts. Every mutation of the underlying data
    /// funnels through the `set_*` / `push_*` / `pop_*` / `bump_visited` /
    /// `push_heap` helpers, which keep these current; `dyn_fp` cross-checks
    /// them against the slow folds under `debug_assert`, so the whole test
    /// suite verifies the incremental maintenance.
    maps_fp: u64,
    frames_fp: u64,
    conts_fp: u64,

    frames: Vec<Frame>,
    call_stack: Vec<FuncId>,

    root: FuncId,
    exhausted: bool,
    pending: Vec<PendingBug>,
    seen: FxHashMap<(crate::checkers::BugKind, InstId, InstId), u8>,
    candidates: Vec<PossibleBug>,
    /// Counters for this root (merged by the driver).
    pub stats: AnalysisStats,
    /// Telemetry gate, latched once from `config.telemetry` at
    /// construction: the per-instruction cost when disabled is one branch.
    tel_enabled: bool,
    /// Alias-graph updates by rule, indexed by [`ALIAS_OP_NAMES`].
    alias_ops: [u64; ALIAS_OP_NAMES.len()],

    /// Subsumption table. Entries are `Arc`'d so a lookup copies a
    /// pointer, not a journal, and replay can mutate `self` while holding it.
    sub_table: FxHashMap<SubKey, Arc<SubEntry>>,
    /// Callee-memo table, `Arc`'d like `sub_table`.
    memo_table: FxHashMap<MemoKey, Arc<MemoEntry>>,
    /// Active subsumption recordings, one per live `exec_block` activation.
    sub_recs: Vec<SubRecorder>,
    /// Active callee-summary recording (outermost memoizable call wins; at
    /// most one at a time so segment boundaries stay unambiguous).
    memo_rec: Option<MemoRecorder>,
    /// Hard-disables both caches regardless of config — set for the
    /// deterministic cache-free re-run of a budget-exhausted root.
    caches_off: bool,
    /// Which budget tripped first ("max_insts" / "max_paths" /
    /// "deadline" / "live_bytes"), if any.
    budget_reason: Option<&'static str>,
    /// Wall-clock deadline for this root, armed at `run_root` entry when
    /// [`AnalysisConfig::root_deadline_ms`] is non-zero; checked at fork
    /// points by `check_resource_budgets`.
    deadline: Option<std::time::Instant>,
    /// Cached per-function cyclic-block masks (see [`Explorer::cyclic_mask`]).
    cyclic_masks: FxHashMap<FuncId, Arc<Vec<bool>>>,
    /// Reusable per-instruction alias-resolution scratch; cleared (keeping
    /// its `Vec` capacity) instead of reallocated on every instruction.
    info_scratch: UpdateInfo,
    /// Runs the slow fingerprint fold against the incremental accumulators
    /// at every block entry, independent of `debug_assert` — lets a release
    /// -mode test exercise the cross-check (see `fingerprint_cross_check`).
    verify_fp: bool,
    /// Branch-fork telemetry (`driver.explore.fork.*`), tallied only when
    /// telemetry is enabled.
    fork_stats: ForkStats,
}

/// Branch-fork cost counters for one root, merged into the
/// `driver.explore.fork.*` telemetry family by the driver. Kept out of
/// [`AnalysisStats`] on purpose: fork cost depends on the CoW knob and the
/// cache configuration, while `AnalysisStats` must stay bit-identical
/// across all of them (the equivalence tests compare it directly).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ForkStats {
    /// Branch arms explored through a state fork (mark/rollback or clone).
    pub(crate) forks: u64,
    /// Bytes materialized per fork: the fixed-size mark in CoW mode, the
    /// deep-clone estimate in clone mode.
    pub(crate) bytes_copied: u64,
    /// Bytes left shared (journal-backed) at fork points in CoW mode.
    pub(crate) bytes_shared: u64,
    /// Deepest combined undo-journal length observed at a fork.
    pub(crate) journal_depth_max: u64,
    /// Largest live-state estimate observed at a fork.
    pub(crate) live_bytes_max: u64,
}

impl ForkStats {
    pub(crate) fn merge(&mut self, other: &ForkStats) {
        self.forks += other.forks;
        self.bytes_copied += other.bytes_copied;
        self.bytes_shared += other.bytes_shared;
        self.journal_depth_max = self.journal_depth_max.max(other.journal_depth_max);
        self.live_bytes_max = self.live_bytes_max.max(other.live_bytes_max);
    }
}

/// Labels for the `alias.op` telemetry counter, in `alias_ops` index order.
pub(crate) const ALIAS_OP_NAMES: [&str; 7] =
    ["move", "const", "load", "store", "gep", "addr", "index"];

/// The output of exploring one root.
pub struct ExploreResult {
    /// Candidate bugs (already path-locally deduplicated).
    pub candidates: Vec<PossibleBug>,
    /// This root's statistics.
    pub stats: AnalysisStats,
    /// Alias-graph updates by rule, in move/const/load/store/gep/addr/index
    /// order; all zero unless [`crate::AnalysisConfig::telemetry`] is set.
    /// Plain counters rather than a sink: the driver sums arrays per worker
    /// and materializes labeled metrics once per run, keeping the per-root
    /// cost away from map operations.
    pub alias_ops: [u64; 7],
    /// Set when this root hit an exploration budget (which budget, and
    /// whether the caches were disabled for the run that produced the
    /// verdicts).
    pub budget_note: Option<BudgetNote>,
    /// Branch-fork cost counters (all zero unless telemetry is enabled).
    pub(crate) fork_stats: ForkStats,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer for `root`.
    pub fn new(
        module: &'a Module,
        config: &'a AnalysisConfig,
        checkers: &'a [Box<dyn Checker>],
        root: FuncId,
    ) -> Self {
        Explorer {
            module,
            config,
            checkers,
            graph: AliasGraph::new(),
            states: StateTable::new(),
            cond_defs: FxHashMap::default(),
            cond_journal: Vec::new(),
            syms: FxHashMap::default(),
            sym_journal: Vec::new(),
            fptrs: FxHashMap::default(),
            fptr_journal: Vec::new(),
            heap_journal: Vec::new(),
            frame_serial: 0,
            next_sym: 0,
            trace: Vec::new(),
            maps_fp: 0,
            frames_fp: 0,
            conts_fp: 0,
            frames: Vec::new(),
            call_stack: Vec::new(),
            root,
            exhausted: false,
            pending: Vec::new(),
            seen: FxHashMap::default(),
            candidates: Vec::new(),
            stats: AnalysisStats::default(),
            tel_enabled: config.telemetry,
            alias_ops: [0; ALIAS_OP_NAMES.len()],
            sub_table: FxHashMap::default(),
            memo_table: FxHashMap::default(),
            sub_recs: Vec::new(),
            memo_rec: None,
            caches_off: false,
            budget_reason: None,
            deadline: None,
            cyclic_masks: FxHashMap::default(),
            info_scratch: UpdateInfo::default(),
            verify_fp: false,
            fork_stats: ForkStats::default(),
        }
    }

    /// Runs the exploration and returns candidates plus statistics.
    ///
    /// Determinism fallback: a root that exhausts an exploration budget
    /// with caches enabled is re-explored cache-free. Replay consumes
    /// budget in recorded-subtree chunks (a hit is refused unless it fits
    /// strictly, which can declare exhaustion earlier than live stepping
    /// would), so truncated verdicts are only bit-identical across cache
    /// configurations if the truncated exploration itself ran cache-free.
    /// Budget exhaustion is rare and already the slow path; correctness
    /// wins over the wasted first attempt.
    pub fn explore(self) -> ExploreResult {
        let (module, config, checkers, root) = (self.module, self.config, self.checkers, self.root);
        let rerun_on_exhaustion =
            !self.caches_off && (config.exploration_cache || config.callee_memo);
        let verify_fp = self.verify_fp;
        let result = self.run_root();
        // Resource-budget trips (deadline / live-bytes) do NOT take the
        // internal cache-free rerun: re-exploring at full budget would trip
        // again (and burn the deadline twice). The driver's demotion ladder
        // handles them with a *bounded* re-run instead.
        let resource_trip = matches!(
            result.budget_note.as_ref().map(|n| n.reason.as_str()),
            Some("deadline" | "live_bytes")
        );
        if rerun_on_exhaustion && !resource_trip && result.stats.budget_exhausted_roots > 0 {
            let mut fresh = Explorer::new(module, config, checkers, root);
            fresh.caches_off = true;
            fresh.verify_fp = verify_fp;
            return fresh.run_root();
        }
        result
    }

    fn run_root(mut self) -> ExploreResult {
        faultinject::maybe_panic(
            self.config.fault_plan.as_deref(),
            "explore",
            self.module.function(self.root).name(),
        );
        if self.config.root_deadline_ms > 0 {
            self.deadline = Some(
                std::time::Instant::now()
                    + std::time::Duration::from_millis(self.config.root_deadline_ms),
            );
        }
        let nblocks = self.module.function(self.root).blocks().len();
        let cyclic = self.cyclic_mask(self.root);
        let frame = self.new_frame(self.root, nblocks, cyclic, 0);
        self.push_frame(frame);
        self.call_stack.push(self.root);
        let entry = self.module.function(self.root).entry();
        let mut conts = Vec::new();
        self.exec_block(self.root, entry, &mut conts);
        if self.exhausted {
            self.stats.budget_exhausted_roots += 1;
        }
        self.stats.roots += 1;
        let budget_note = self.budget_reason.map(|reason| BudgetNote {
            root: self.module.function(self.root).name().to_string(),
            reason: reason.to_string(),
            caches_disabled: self.caches_off
                || !(self.config.exploration_cache || self.config.callee_memo),
        });
        ExploreResult {
            candidates: self.candidates,
            stats: self.stats,
            alias_ops: self.alias_ops,
            budget_note,
            fork_stats: self.fork_stats,
        }
    }

    /// Allocates a frame with a fresh serial (see [`Frame::serial`]).
    fn new_frame(
        &mut self,
        func: FuncId,
        block_count: usize,
        cyclic: Arc<Vec<bool>>,
        depth: usize,
    ) -> Frame {
        let serial = self.frame_serial;
        self.frame_serial += 1;
        Frame::new(func, serial, block_count, cyclic, depth)
    }

    /// Counts one alias-graph update of rule `op` (index into
    /// [`ALIAS_OP_NAMES`]). Inlined into the already-taken instruction
    /// arms so the disabled cost is one predicted branch, with no second
    /// dispatch on the instruction kind.
    #[inline]
    fn tally_alias_op(&mut self, op: usize) {
        if self.tel_enabled {
            self.alias_ops[op] += 1;
        }
    }

    // ==============================================================
    // Marks & rollback across all journals
    // ==============================================================

    fn full_mark(&self) -> FullMark {
        FullMark {
            graph: self.graph.mark(),
            states: self.states.mark(),
            conds: self.cond_journal.len(),
            syms: self.sym_journal.len(),
            fptrs: self.fptr_journal.len(),
            next_sym: self.next_sym,
            trace: self.trace.len(),
            heap: self.heap_journal.len(),
        }
    }

    fn full_rollback(&mut self, mark: &FullMark) {
        self.graph.rollback(mark.graph);
        self.states.rollback(mark.states);
        while self.cond_journal.len() > mark.conds {
            let (v, old) = self.cond_journal.pop().unwrap();
            self.set_cond(v, old);
        }
        while self.sym_journal.len() > mark.syms {
            let (k, old) = self.sym_journal.pop().unwrap();
            self.set_sym(k, old);
        }
        while self.fptr_journal.len() > mark.fptrs {
            let (k, old) = self.fptr_journal.pop().unwrap();
            self.set_fptr(k, old);
        }
        self.next_sym = mark.next_sym;
        self.trace.truncate(mark.trace);
        while self.heap_journal.len() > mark.heap {
            let e = self.heap_journal.pop().unwrap();
            let d = e.depth as usize;
            // An entry whose frame has since been discarded (a callee frame
            // dropped at its call site, possibly with objects its dead-end
            // paths never released) needs no undo: the frame's facts left
            // `frames_fp` wholesale when the frame was popped. The serial
            // distinguishes that case from the live frame now at depth `d`.
            if let Some(frame) = self.frames.get_mut(d) {
                if frame.serial == e.serial {
                    let h = frame.heap_objects.pop().unwrap();
                    let fact = heap_fact(d, frame.heap_objects.len(), &h);
                    frame.fp ^= fact;
                    self.frames_fp ^= fact;
                }
            }
        }
    }

    // ==============================================================
    // Fingerprint-maintaining mutation helpers
    // ==============================================================
    //
    // All writes to the path-local maps and the structural stacks go
    // through these so the incremental accumulators stay in lockstep.

    /// Sets (or, with `None`, removes) the predicate definition of `v`,
    /// returning the previous value for the caller to journal.
    fn set_cond(&mut self, v: VarId, new: Option<PredDef>) -> Option<PredDef> {
        let old = match new {
            Some(p) => {
                self.maps_fp ^= cond_fact(v, &p);
                self.cond_defs.insert(v, p)
            }
            None => self.cond_defs.remove(&v),
        };
        if let Some(p) = &old {
            self.maps_fp ^= cond_fact(v, p);
        }
        old
    }

    /// Sets (or removes) the symbol binding of `k`, returning the old one.
    fn set_sym(&mut self, k: TrackKey, new: Option<SymId>) -> Option<SymId> {
        let old = match new {
            Some(s) => {
                self.maps_fp ^= hash2(TAG_SYM, key_lane(k), s.index() as u64);
                self.syms.insert(k, s)
            }
            None => self.syms.remove(&k),
        };
        if let Some(s) = old {
            self.maps_fp ^= hash2(TAG_SYM, key_lane(k), s.index() as u64);
        }
        old
    }

    /// Sets (or removes) the function-pointer binding of `k`.
    fn set_fptr(&mut self, k: TrackKey, new: Option<FuncId>) -> Option<FuncId> {
        let old = match new {
            Some(f) => {
                self.maps_fp ^= hash2(TAG_FPTR, key_lane(k), f.index() as u64);
                self.fptrs.insert(k, f)
            }
            None => self.fptrs.remove(&k),
        };
        if let Some(f) = old {
            self.maps_fp ^= hash2(TAG_FPTR, key_lane(k), f.index() as u64);
        }
        old
    }

    fn push_frame(&mut self, frame: Frame) {
        self.frames_fp ^= frame.fp;
        self.frames.push(frame);
    }

    fn pop_frame(&mut self) -> Frame {
        let f = self.frames.pop().expect("frame");
        self.frames_fp ^= f.fp;
        f
    }

    /// Adjusts the top frame's visit count for `block` by ±1. Only cyclic
    /// blocks contribute fingerprint facts (see [`Frame::cyclic`]).
    fn bump_visited(&mut self, block: BlockId, up: bool) {
        let d = self.frames.len() - 1;
        let frame = self.frames.last_mut().expect("frame");
        let b = block.index();
        let old = frame.visited[b];
        let new = if up { old + 1 } else { old - 1 };
        frame.visited[b] = new;
        if frame.cyclic[b] {
            let mut delta = 0u64;
            if old > 0 {
                delta ^= hash4(TAG_VISIT, d as u64, b as u64, old as u64, 0);
            }
            if new > 0 {
                delta ^= hash4(TAG_VISIT, d as u64, b as u64, new as u64, 0);
            }
            frame.fp ^= delta;
            self.frames_fp ^= delta;
        }
    }

    /// Appends a heap object to the top frame's ownership list, journaling
    /// the push so a later [`Explorer::full_rollback`] can undo it without
    /// the mark having snapshotted any per-frame lengths.
    fn push_heap(&mut self, obj: HeapObject) {
        let d = self.frames.len() - 1;
        let frame = self.frames.last_mut().expect("frame");
        let fact = heap_fact(d, frame.heap_objects.len(), &obj);
        self.heap_journal.push(HeapPush {
            serial: frame.serial,
            depth: d as u32,
        });
        frame.heap_objects.push(obj);
        frame.fp ^= fact;
        self.frames_fp ^= fact;
    }

    fn push_cont(&mut self, conts: &mut Vec<Cont>, c: Cont) {
        self.conts_fp ^= cont_fact(conts.len(), &c);
        conts.push(c);
    }

    fn pop_cont(&mut self, conts: &mut Vec<Cont>) -> Cont {
        let c = conts.pop().expect("cont");
        self.conts_fp ^= cont_fact(conts.len(), &c);
        c
    }

    // ==============================================================
    // Keys, symbols, terms
    // ==============================================================

    fn key_of(&mut self, v: VarId) -> TrackKey {
        match self.config.alias_mode {
            AliasMode::PathBased => TrackKey::Node(self.graph.node_of(v)),
            AliasMode::None => TrackKey::Var(v),
        }
    }

    fn sym_for(&mut self, key: TrackKey) -> SymId {
        if let Some(&s) = self.syms.get(&key) {
            return s;
        }
        let s = SymId(self.next_sym);
        self.next_sym += 1;
        let old = self.set_sym(key, Some(s));
        self.sym_journal.push((key, old));
        s
    }

    /// Gives `key` a fresh symbol (used on variable redefinition in PATA-NA
    /// mode, where keys are variables and must be versioned explicitly; in
    /// alias mode fresh nodes provide versioning for free).
    fn fresh_sym_for(&mut self, key: TrackKey) -> SymId {
        let s = SymId(self.next_sym);
        self.next_sym += 1;
        let old = self.set_sym(key, Some(s));
        self.sym_journal.push((key, old));
        s
    }

    fn operand_term(&mut self, op: Operand) -> Term {
        match op {
            Operand::Const(c) => Term::int(c.as_int()),
            Operand::Var(v) => {
                let key = self.key_of(v);
                Term::sym(self.sym_for(key))
            }
        }
    }

    fn push_constraint(&mut self, c: Constraint) {
        self.stats.constraints_aware += 1;
        self.stats.constraints_unaware += 1;
        self.trace.push(c);
    }

    /// Counts what an alias-unaware encoding would have emitted for an
    /// aliasing operation on `v`: one explicit copy equality plus one
    /// implicit equality per (transitively reachable, depth-2) struct
    /// field (paper Fig. 9: `R'(p1)==R'(p2) → R'(p1->f)==R'(p2->f)`).
    fn count_unaware_alias_op(&mut self, v: VarId) {
        let mut fields = 0u64;
        if let Some(sid) = self.module.var(v).ty.struct_id() {
            let def = self.module.struct_def(sid);
            fields += def.field_count() as u64;
            for (_, fty) in &def.fields {
                if let Some(inner) = fty.struct_id() {
                    fields += self.module.struct_def(inner).field_count() as u64;
                }
            }
        }
        self.stats.constraints_unaware += 1 + fields;
    }

    /// Counts the per-variable state synchronizations an alias-unaware
    /// tracker would perform when `dst` joins a node carrying states
    /// (paper Fig. 8a's explicit "sync" transitions).
    fn count_unaware_sync(&mut self, key: TrackKey) {
        for c in self.checkers {
            if self.states.get(c.kind().id(), key).is_some() {
                self.stats.typestates_unaware += 1;
            }
        }
    }

    // ==============================================================
    // Checker dispatch
    // ==============================================================

    fn run_checkers_inst(
        &mut self,
        kind: &InstKind,
        info: &crate::typestate::UpdateInfo,
        loc: Loc,
        inst_id: InstId,
    ) {
        // Checker callbacks are arbitrary user code (CheckerRegistry); this
        // is the site where a misbehaving checker's panic is simulated.
        faultinject::maybe_panic(
            self.config.fault_plan.as_deref(),
            "checker",
            self.module.function(self.root).name(),
        );
        let graph = &self.graph;
        let set_size = |k: TrackKey| match k {
            TrackKey::Node(n) => graph.alias_set_size(n),
            TrackKey::Var(_) => 1,
        };
        let mut cx = TrackCtx {
            states: &mut self.states,
            mode: self.config.alias_mode,
            bugs: &mut self.pending,
            stats: &mut self.stats,
            set_size: &set_size,
            loc,
            inst_id,
        };
        for c in self.checkers {
            c.on_inst(&mut cx, kind, info);
        }
        self.flush_pending();
    }

    fn run_checkers_branch(&mut self, ev: &BranchEvent) {
        let graph = &self.graph;
        let set_size = |k: TrackKey| match k {
            TrackKey::Node(n) => graph.alias_set_size(n),
            TrackKey::Var(_) => 1,
        };
        let mut cx = TrackCtx {
            states: &mut self.states,
            mode: self.config.alias_mode,
            bugs: &mut self.pending,
            stats: &mut self.stats,
            set_size: &set_size,
            loc: ev.loc,
            inst_id: ev.inst_id,
        };
        for c in self.checkers {
            c.on_branch(&mut cx, ev);
        }
        self.flush_pending();
    }

    fn run_checkers_frame_end(&mut self, ev: &FrameEndEvent<'_>) {
        let graph = &self.graph;
        let set_size = |k: TrackKey| match k {
            TrackKey::Node(n) => graph.alias_set_size(n),
            TrackKey::Var(_) => 1,
        };
        let mut cx = TrackCtx {
            states: &mut self.states,
            mode: self.config.alias_mode,
            bugs: &mut self.pending,
            stats: &mut self.stats,
            set_size: &set_size,
            loc: ev.loc,
            inst_id: ev.inst_id,
        };
        for c in self.checkers {
            c.on_frame_end(&mut cx, ev);
        }
        self.flush_pending();
    }

    /// How many distinct path snapshots are kept per problematic
    /// instruction pair: one would lose a real bug whose first discovered
    /// path happens to be infeasible (the validator then sees only the
    /// unsatisfiable snapshot), while unbounded snapshots explode on loopy
    /// code. Stage 2 reports the bug if *any* kept path validates.
    const MAX_PATHS_PER_BUG: u8 = 4;

    /// Converts pending checker reports into candidates, deduplicating by
    /// problematic-instruction pair (§4 P3) *before* cloning the trace.
    fn flush_pending(&mut self) {
        while let Some(pb) = self.pending.pop() {
            let alias_paths = self.render_alias_paths(pb.key);
            self.emit_bug(Arc::new(pb), Arc::new(alias_paths), None);
        }
    }

    /// The single bug-emission funnel, shared by live discovery and cache
    /// replay. `replay_suffix` is `Some` when re-emitting a recorded bug:
    /// the bug's path constraints are then the *live* trace (the replaying
    /// path's prefix) plus the constraints the recorded subtree pushed —
    /// exactly what a re-run would have cloned. Active recorders capture
    /// the bug with a suffix relative to their own entry point, so replay
    /// composes across nested recordings.
    fn emit_bug(
        &mut self,
        pb: Arc<PendingBug>,
        alias_paths: Arc<Vec<String>>,
        replay_suffix: Option<&[Constraint]>,
    ) {
        // Every observing recorder shares the same bug body and rendered
        // alias paths by refcount; only the constraint suffix (different
        // per recorder entry point) is materialized per recorder.
        for rec in &mut self.sub_recs {
            if rec.poisoned {
                continue;
            }
            if rec.events.len() >= EVENT_CAP {
                rec.poisoned = true;
                continue;
            }
            let mut suffix = self.trace[rec.trace_len..].to_vec();
            if let Some(s) = replay_suffix {
                suffix.extend_from_slice(s);
            }
            rec.events.push(RecordedBug {
                pb: Arc::clone(&pb),
                alias_paths: Arc::clone(&alias_paths),
                suffix,
            });
        }
        if let Some(m) = &mut self.memo_rec {
            if !m.suspended && !m.poisoned {
                if m.seg_events.len() >= EVENT_CAP {
                    m.poisoned = true;
                } else {
                    let mut suffix = self.trace[m.entry_mark.trace..].to_vec();
                    if let Some(s) = replay_suffix {
                        suffix.extend_from_slice(s);
                    }
                    m.seg_events.push(RecordedBug {
                        pb: Arc::clone(&pb),
                        alias_paths: Arc::clone(&alias_paths),
                        suffix,
                    });
                }
            }
        }

        let key = (pb.kind, pb.origin_id, pb.site_id);
        let count = self.seen.entry(key).or_insert(0);
        if *count >= Self::MAX_PATHS_PER_BUG {
            self.stats.repeated_bugs_dropped += 1;
            return;
        }
        *count += 1;
        self.stats.candidates += 1;
        let mut constraints = self.trace.clone();
        if let Some(s) = replay_suffix {
            constraints.extend_from_slice(s);
        }
        // When no recorder kept a reference, unwrapping recovers the owned
        // values without a deep clone.
        let pb = Arc::try_unwrap(pb).unwrap_or_else(|a| (*a).clone());
        let alias_paths = Arc::try_unwrap(alias_paths).unwrap_or_else(|a| (*a).clone());
        self.candidates
            .push(pb.into_possible(constraints, alias_paths, self.root));
    }

    /// Renders up to four access paths of the offending alias set in the
    /// paper's `func:var` notation (Fig. 7) for the human-readable report.
    fn render_alias_paths(&self, key: Option<TrackKey>) -> Vec<String> {
        const MAX_PATHS: usize = 4;
        let module = self.module;
        let name_of = |v: VarId| {
            let info = module.var(v);
            match info.func {
                Some(f) => format!("{}:{}", module.function(f).name(), info.name),
                None => info.name.clone(),
            }
        };
        match key {
            Some(TrackKey::Node(n)) => self
                .graph
                .access_paths(n, 1)
                .into_iter()
                .filter(|ap| {
                    // Skip compiler temporaries; they mean nothing to users.
                    module.var(ap.base).kind != pata_ir::VarKind::Temp
                })
                .take(MAX_PATHS)
                .map(|ap| ap.render(&name_of, &module.interner))
                .collect(),
            Some(TrackKey::Var(v)) => vec![name_of(v)],
            None => Vec::new(),
        }
    }

    /// Clears states for a redefined variable in PATA-NA mode.
    fn na_clear_def(&mut self, dst: VarId) {
        if self.config.alias_mode != AliasMode::None {
            return;
        }
        for c in self.checkers {
            self.states.clear(c.kind().id(), TrackKey::Var(dst));
        }
        self.fresh_sym_for(TrackKey::Var(dst));
    }

    // ==============================================================
    // State fingerprints
    // ==============================================================

    /// Mask of `func`'s blocks that lie on a CFG cycle, i.e. can be entered
    /// more than once within one frame (recursive calls get a fresh frame).
    /// Computed once per function by successor-set reachability and shared
    /// by every frame running `func`.
    fn cyclic_mask(&mut self, func: FuncId) -> Arc<Vec<bool>> {
        if let Some(m) = self.cyclic_masks.get(&func) {
            return Arc::clone(m);
        }
        let f = self.module.function(func);
        let n = f.blocks().len();
        let succs: Vec<Vec<usize>> = f
            .blocks()
            .iter()
            .map(|b| match &b.term {
                Terminator::Jump(t) => vec![t.index()],
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => vec![then_bb.index(), else_bb.index()],
                Terminator::Ret(_) | Terminator::Unreachable => Vec::new(),
            })
            .collect();
        let mut cyclic = vec![false; n];
        let mut seen = vec![false; n];
        for (b, mask) in cyclic.iter_mut().enumerate() {
            seen.iter_mut().for_each(|s| *s = false);
            let mut stack = succs[b].clone();
            while let Some(x) = stack.pop() {
                if x == b {
                    *mask = true;
                    break;
                }
                if !std::mem::replace(&mut seen[x], true) {
                    stack.extend_from_slice(&succs[x]);
                }
            }
        }
        let mask = Arc::new(cyclic);
        self.cyclic_masks.insert(func, Arc::clone(&mask));
        mask
    }

    /// Slow XOR-fold of the path-local maps (condition definitions,
    /// symbols, function pointers) — the reference implementation for the
    /// incrementally maintained `maps_fp` accumulator, kept for the
    /// `debug_assert` cross-checks.
    fn slow_maps_fp(&self) -> u64 {
        let mut fp = 0u64;
        for (v, p) in &self.cond_defs {
            fp ^= cond_fact(*v, p);
        }
        for (k, s) in &self.syms {
            fp ^= hash2(TAG_SYM, key_lane(*k), s.index() as u64);
        }
        for (k, f) in &self.fptrs {
            fp ^= hash2(TAG_FPTR, key_lane(*k), f.index() as u64);
        }
        fp
    }

    /// The full dynamic-state fingerprint keying the subsumption table:
    /// everything a subtree's exploration can read. O(1): an XOR of the
    /// incrementally maintained accumulators, cross-checked against the
    /// slow recomputation in debug builds.
    fn dyn_fp(&self, conts: &[Cont]) -> u64 {
        let fp = self.graph.fingerprint()
            ^ self.states.fingerprint()
            ^ self.maps_fp
            ^ self.frames_fp
            ^ self.conts_fp;
        debug_assert_eq!(fp, self.slow_dyn_fp(conts));
        fp
    }

    /// Slow recomputation of [`Explorer::dyn_fp`] from first principles.
    /// Structural facts carry their stack index as a hash lane so identical
    /// facts at different positions (or duplicated facts) cannot XOR-cancel.
    fn slow_dyn_fp(&self, conts: &[Cont]) -> u64 {
        let mut fp = self.graph.fingerprint() ^ self.states.fingerprint() ^ self.slow_maps_fp();
        for (d, frame) in self.frames.iter().enumerate() {
            fp ^= hash2(TAG_FRAME, d as u64, frame.func.index() as u64);
            // Only cyclic blocks: an acyclic block can never be re-entered
            // within a frame, so its count is unreadable path history.
            for (b, &count) in frame.visited.iter().enumerate() {
                if count > 0 && frame.cyclic[b] {
                    fp ^= hash4(TAG_VISIT, d as u64, b as u64, count as u64, 0);
                }
            }
            for (i, h) in frame.heap_objects.iter().enumerate() {
                fp ^= heap_fact(d, i, h);
            }
        }
        for (i, c) in conts.iter().enumerate() {
            fp ^= cont_fact(i, c);
        }
        fp
    }

    fn call_stack_fp(&self) -> u64 {
        let mut fp = 0u64;
        for (i, f) in self.call_stack.iter().enumerate() {
            fp ^= hash2(TAG_CALLSTACK, i as u64, f.index() as u64);
        }
        fp
    }

    fn memo_key(&self, callee: FuncId, args: &[Operand]) -> MemoKey {
        // The argument operands are part of the key: the state fingerprint
        // is taken *before* parameter binding, so two sites calling the
        // same callee with different operands (`h(d, 1)` vs `h(d, 2)`)
        // would otherwise collide and replay the wrong binding.
        let mut args_fp = 0u64;
        for (i, a) in args.iter().enumerate() {
            args_fp ^= hash2(TAG_ARG, i as u64, operand_lane(*a));
        }
        debug_assert_eq!(self.maps_fp, self.slow_maps_fp());
        (
            callee,
            self.graph.fingerprint() ^ self.states.fingerprint() ^ self.maps_fp ^ args_fp,
            self.next_sym,
            self.graph.node_count() as u64,
            self.call_stack_fp(),
        )
    }

    // ==============================================================
    // Cache tables & gates
    // ==============================================================

    fn sub_enabled(&self) -> bool {
        self.config.exploration_cache && !self.caches_off
    }

    /// Subsumption lookups are refused while a callee recording is active
    /// and un-suspended: a hit would swallow the `Ret` that delimits the
    /// recording's current segment.
    fn sub_lookup_allowed(&self) -> bool {
        match &self.memo_rec {
            Some(m) => m.suspended,
            None => true,
        }
    }

    /// Callee memoization needs alias mode: in PATA-NA mode state is keyed
    /// by caller-scoped variables, which a callee-local effect journal
    /// cannot name portably.
    fn memo_enabled(&self) -> bool {
        self.config.callee_memo
            && !self.caches_off
            && self.config.alias_mode == AliasMode::PathBased
    }

    fn insert_sub(&mut self, key: SubKey, entry: SubEntry) {
        if self.sub_table.len() < SUB_TABLE_CAP {
            self.sub_table.insert(key, Arc::new(entry));
        }
    }

    fn insert_memo(&mut self, key: MemoKey, entry: MemoEntry) {
        if self.memo_table.len() < MEMO_TABLE_CAP {
            self.memo_table.insert(key, Arc::new(entry));
        }
    }

    /// Whether a recorded exploration delta fits strictly under the
    /// remaining budget. Strict fit keeps replay deterministic: exhaustion
    /// always trips *between* recorded units, never inside one, and a
    /// subtree that would cross the line re-runs live so the budgeted
    /// truncation lands on the same instruction a cache-free run stops at.
    fn replay_fits(&self, d: &AnalysisStats) -> bool {
        let b = &self.config.budget;
        self.stats.insts_processed + d.insts_processed < b.max_insts as u64
            && self.stats.paths_explored + d.paths_explored < b.max_paths as u64
    }

    // ==============================================================
    // Replay
    // ==============================================================

    /// Replays a completed-subtree entry: pure accounting plus re-emitting
    /// the recorded bugs through the live dedup filter.
    fn replay_sub(&mut self, entry: &SubEntry) {
        self.stats += &entry.d_stats;
        self.stats.insts_replayed += entry.d_stats.insts_processed;
        self.stats.exploration_cache_hits += 1;
        for (a, d) in self.alias_ops.iter_mut().zip(&entry.d_alias_ops) {
            *a += d;
        }
        self.next_sym += entry.d_next_sym;
        for i in 0..entry.events.len() {
            let RecordedBug {
                pb,
                alias_paths,
                suffix,
            } = entry.events[i].clone();
            self.emit_bug(pb, alias_paths, Some(&suffix));
        }
    }

    // ==============================================================
    // Execution
    // ==============================================================

    fn budget_ok(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        let b = &self.config.budget;
        if self.stats.insts_processed >= b.max_insts as u64 {
            self.exhausted = true;
            self.budget_reason.get_or_insert("max_insts");
            return false;
        }
        if self.stats.paths_explored >= b.max_paths as u64 {
            self.exhausted = true;
            self.budget_reason.get_or_insert("max_paths");
            return false;
        }
        true
    }

    fn path_end(&mut self) {
        self.stats.paths_explored += 1;
    }

    /// Resource-budget check at a branch fork point: injected `deadline` /
    /// `live_bytes` faults first (deterministic by construction), then the
    /// real wall-clock deadline and live-bytes ceiling. Returns whether a
    /// budget tripped *now* — the root is then marked exhausted with the
    /// budget reason and the driver's demote-then-quarantine ladder takes
    /// over (the internal cache-free rerun is skipped for these reasons).
    fn check_resource_budgets(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        let mut trip: Option<&'static str> = None;
        if let Some(plan) = self.config.fault_plan.as_deref() {
            let name = self.module.function(self.root).name();
            if plan.should_fire("deadline", name) {
                trip = Some("deadline");
            } else if plan.should_fire("live_bytes", name) {
                trip = Some("live_bytes");
            }
        }
        if trip.is_none() {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() >= deadline {
                    trip = Some("deadline");
                }
            }
        }
        if trip.is_none()
            && self.config.max_live_bytes > 0
            && self.live_bytes_estimate() > self.config.max_live_bytes
        {
            trip = Some("live_bytes");
        }
        match trip {
            Some(reason) => {
                self.exhausted = true;
                self.budget_reason.get_or_insert(reason);
                true
            }
            None => false,
        }
    }

    /// Whether the loop cut still allows entering `block` in this frame.
    fn may_enter(&self, block: BlockId) -> bool {
        let limit = self.config.budget.loop_iterations as u32 + 1;
        let frame = self.frames.last().expect("frame");
        frame.visited[block.index()] < limit
    }

    fn exec_block(&mut self, func: FuncId, block: BlockId, conts: &mut Vec<Cont>) {
        if !self.budget_ok() {
            return;
        }

        // Fingerprint cross-check, active independent of `debug_assert` so
        // a release-mode test can drive it (see `tests` below). The hot
        // path pays one predicted branch.
        if self.verify_fp {
            let fast = self.graph.fingerprint()
                ^ self.states.fingerprint()
                ^ self.maps_fp
                ^ self.frames_fp
                ^ self.conts_fp;
            assert_eq!(
                fast,
                self.slow_dyn_fp(conts),
                "incremental fingerprint accumulators diverged from the slow fold"
            );
        }

        // Subsumption: if this exact (block, state) was fully explored
        // before and its recorded volume fits the remaining budget, replay
        // the recorded effects instead of re-walking the subtree. The
        // fingerprint is taken *before* this entry's visit-count bump, the
        // same point the recording keyed on.
        let mut rec_pushed = false;
        if self.sub_enabled() {
            let key = (
                func,
                block,
                self.dyn_fp(conts),
                self.next_sym,
                self.graph.node_count() as u64,
            );
            if self.sub_lookup_allowed() {
                if let Some(entry) = self.sub_table.get(&key).cloned() {
                    if self.replay_fits(&entry.d_stats) {
                        self.replay_sub(&entry);
                        return;
                    }
                }
            }
            self.sub_recs.push(SubRecorder {
                key,
                base_stats: self.stats.clone(),
                base_alias_ops: self.alias_ops,
                base_next_sym: self.next_sym,
                trace_len: self.trace.len(),
                events: Vec::new(),
                poisoned: false,
            });
            rec_pushed = true;
        }

        debug_assert_eq!(self.frames.last().expect("frame").func, func);
        self.bump_visited(block, true);
        self.exec_from(func, block, 0, conts);
        self.bump_visited(block, false);

        if rec_pushed {
            let rec = self.sub_recs.pop().expect("recorder");
            // An exhausted subtree is incomplete; inserting it would let a
            // replay claim exploration that never happened.
            if !self.exhausted && !rec.poisoned {
                let mut d_alias_ops = self.alias_ops;
                for (d, b) in d_alias_ops.iter_mut().zip(&rec.base_alias_ops) {
                    *d -= b;
                }
                self.insert_sub(
                    rec.key,
                    SubEntry {
                        d_stats: self.stats.exploration_delta(&rec.base_stats),
                        d_alias_ops,
                        d_next_sym: self.next_sym - rec.base_next_sym,
                        events: rec.events,
                    },
                );
            }
        }
    }

    fn exec_from(&mut self, func: FuncId, block: BlockId, start: usize, conts: &mut Vec<Cont>) {
        let f = self.module.function(func);
        let b = f.block(block);
        for i in start..b.insts.len() {
            if !self.budget_ok() {
                return;
            }
            self.stats.insts_processed += 1;
            let inst = &b.insts[i];
            let inst_id = InstId {
                func,
                block,
                inst: i,
            };
            match self.apply_inst(func, inst_id, inst, conts) {
                Flow::Continue => {}
                Flow::EnteredCall => return, // rest ran via continuation
            }
        }
        self.stats.insts_processed += 1;
        self.exec_terminator(func, block, conts);
    }

    fn exec_terminator(&mut self, func: FuncId, block: BlockId, conts: &mut Vec<Cont>) {
        let f = self.module.function(func);
        let b = f.block(block);
        let term_id = InstId {
            func,
            block,
            inst: b.insts.len(),
        };
        let term_loc = b.term_loc;
        match b.term.clone() {
            Terminator::Jump(target) => {
                if !self.may_enter(target) {
                    // Loop cut reached: the path ends here (§3.1).
                    self.path_end();
                } else {
                    self.exec_block(func, target, conts);
                }
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                if self.check_resource_budgets() {
                    // A freshly tripped deadline/ceiling truncates here,
                    // exactly like an instruction-budget trip in
                    // `budget_ok` (no `path_end` for a truncated path).
                    return;
                }
                let pred = self.cond_defs.get(&cond).copied();
                let mut any = false;
                for (succ, taken) in [(then_bb, true), (else_bb, false)] {
                    if !self.may_enter(succ) {
                        continue;
                    }
                    // Constant-foldable branches prune trivially dead edges.
                    if let Some(p) = pred {
                        if let (Operand::Const(l), Operand::Const(r)) = (p.lhs, p.rhs) {
                            let holds = p.op.eval(l.as_int(), r.as_int());
                            if holds != taken {
                                continue;
                            }
                        }
                    }
                    any = true;
                    let cow = self.config.cow_state;
                    if self.tel_enabled {
                        self.note_fork(cow);
                    }
                    if cow {
                        // Copy-on-write fork: a fixed-size mark; sibling
                        // arms restore by journal rollback, O(changed).
                        let mark = self.full_mark();
                        self.run_branch_arm(pred, taken, term_loc, term_id, func, succ, conts);
                        self.full_rollback(&mark);
                    } else {
                        // Literal COPY semantics (paper Fig. 7): deep-clone
                        // the live state, restore by move-assignment. The
                        // measured baseline and differential oracle for the
                        // journaled mode.
                        let snap = self.clone_snapshot();
                        self.run_branch_arm(pred, taken, term_loc, term_id, func, succ, conts);
                        self.restore_snapshot(snap);
                    }
                }
                if !any {
                    self.path_end();
                }
            }
            Terminator::Ret(value) => {
                self.handle_ret(value, term_loc, term_id, conts);
            }
            Terminator::Unreachable => {
                self.path_end();
            }
        }
    }

    /// One branch successor: assert the effective predicate, then explore.
    /// The caller brackets this with a fork (mark/rollback or clone/restore
    /// depending on [`crate::AnalysisConfig::cow_state`]).
    #[allow(clippy::too_many_arguments)]
    fn run_branch_arm(
        &mut self,
        pred: Option<PredDef>,
        taken: bool,
        loc: Loc,
        inst_id: InstId,
        func: FuncId,
        succ: BlockId,
        conts: &mut Vec<Cont>,
    ) {
        if let Some(p) = pred {
            self.assert_branch(p, taken, loc, inst_id);
        }
        if !self.exhausted {
            self.exec_block(func, succ, conts);
        }
    }

    /// Tallies one branch-arm fork into the `driver.explore.fork.*` family:
    /// what this fork materializes (a fixed-size mark in CoW mode, a deep
    /// clone otherwise), what stays shared, and the journal depth at the
    /// fork point. Only called when telemetry is enabled.
    fn note_fork(&mut self, cow: bool) {
        let journal_depth = (self.graph.journal_len()
            + self.states.journal_len()
            + self.cond_journal.len()
            + self.sym_journal.len()
            + self.fptr_journal.len()
            + self.heap_journal.len()) as u64;
        let live = self.live_bytes_estimate();
        let copied = if cow {
            std::mem::size_of::<FullMark>() as u64
        } else {
            live
        };
        let fs = &mut self.fork_stats;
        fs.forks += 1;
        fs.bytes_copied += copied;
        if cow {
            fs.bytes_shared += live;
        }
        fs.journal_depth_max = fs.journal_depth_max.max(journal_depth);
        fs.live_bytes_max = fs.live_bytes_max.max(live);
    }

    /// Estimate of the live path-state heap bytes a clone-based fork copies.
    /// Everything but the per-frame walk (bounded by call depth) is O(1).
    fn live_bytes_estimate(&self) -> u64 {
        use std::mem::size_of;
        self.graph.approx_bytes()
            + self.states.approx_bytes()
            + (self.cond_defs.len() * size_of::<(VarId, PredDef)>()) as u64
            + (self.cond_journal.len() * size_of::<(VarId, Option<PredDef>)>()) as u64
            + (self.syms.len() * size_of::<(TrackKey, SymId)>()) as u64
            + (self.sym_journal.len() * size_of::<(TrackKey, Option<SymId>)>()) as u64
            + (self.fptrs.len() * size_of::<(TrackKey, FuncId)>()) as u64
            + (self.fptr_journal.len() * size_of::<(TrackKey, Option<FuncId>)>()) as u64
            + (self.heap_journal.len() * size_of::<HeapPush>()) as u64
            + (self.trace.len() * size_of::<Constraint>()) as u64
            + (self.frames.len() * size_of::<Frame>()) as u64
            + self.frames.iter().map(Frame::approx_bytes).sum::<u64>()
    }

    /// Deep-copies every forkable structure (clone-fork mode).
    fn clone_snapshot(&self) -> CloneSnapshot {
        CloneSnapshot {
            graph: self.graph.clone(),
            states: self.states.clone(),
            cond_defs: self.cond_defs.clone(),
            cond_journal: self.cond_journal.clone(),
            syms: self.syms.clone(),
            sym_journal: self.sym_journal.clone(),
            fptrs: self.fptrs.clone(),
            fptr_journal: self.fptr_journal.clone(),
            heap_journal: self.heap_journal.clone(),
            next_sym: self.next_sym,
            trace: self.trace.clone(),
            frames: self.frames.clone(),
            maps_fp: self.maps_fp,
            frames_fp: self.frames_fp,
        }
    }

    /// Restores a clone-fork snapshot by move-assignment. Journals are
    /// restored to their fork-time prefixes, so marks held by recorders
    /// opened before the fork stay valid, exactly as under rollback.
    fn restore_snapshot(&mut self, snap: CloneSnapshot) {
        self.graph = snap.graph;
        self.states = snap.states;
        self.cond_defs = snap.cond_defs;
        self.cond_journal = snap.cond_journal;
        self.syms = snap.syms;
        self.sym_journal = snap.sym_journal;
        self.fptrs = snap.fptrs;
        self.fptr_journal = snap.fptr_journal;
        self.heap_journal = snap.heap_journal;
        self.next_sym = snap.next_sym;
        self.trace = snap.trace;
        self.frames = snap.frames;
        self.maps_fp = snap.maps_fp;
        self.frames_fp = snap.frames_fp;
    }

    fn assert_branch(&mut self, p: PredDef, taken: bool, loc: Loc, inst_id: InstId) {
        // Normalize the variable (if any) to the lhs.
        let (mut op, mut lhs, mut rhs) = (p.op, p.lhs, p.rhs);
        if lhs.as_var().is_none() && rhs.as_var().is_some() {
            std::mem::swap(&mut lhs, &mut rhs);
            op = op.swap();
        }
        let eff_op = if taken { op } else { op.negate() };

        // Table 3: brt(e) / brf(e) constraints.
        let lt = self.operand_term(lhs);
        let rt = self.operand_term(rhs);
        let smt_op = to_smt_op(eff_op);
        self.push_constraint(Constraint::new(smt_op, lt, rt));

        // Checker branch events.
        let lhs_is_pointer = match lhs {
            Operand::Var(v) => self.module.var(v).ty.is_pointer(),
            Operand::Const(_) => false,
        };
        let lhs_key = match lhs {
            Operand::Var(v) => OperandKey::Var(v, self.key_of(v)),
            Operand::Const(c) => OperandKey::Const(c.as_int()),
        };
        let rhs_key = match rhs {
            Operand::Var(v) => OperandKey::Var(v, self.key_of(v)),
            Operand::Const(c) => OperandKey::Const(c.as_int()),
        };
        let ev = BranchEvent {
            op: eff_op,
            lhs: lhs_key,
            rhs: rhs_key,
            lhs_is_pointer,
            loc,
            inst_id,
        };
        self.run_checkers_branch(&ev);
    }

    fn handle_ret(
        &mut self,
        value: Option<Operand>,
        loc: Loc,
        inst_id: InstId,
        conts: &mut Vec<Cont>,
    ) {
        // Frame-end events (memory-leak finalization).
        let ret_val_key = match value {
            Some(Operand::Var(v)) => Some(self.key_of(v)),
            _ => None,
        };
        let frame_objects = std::mem::take(&mut self.frames.last_mut().unwrap().heap_objects);
        {
            let ev = FrameEndEvent {
                heap_objects: &frame_objects,
                ret_val_key,
                loc,
                inst_id,
            };
            self.run_checkers_frame_end(&ev);
        }
        self.frames.last_mut().unwrap().heap_objects = frame_objects;

        // UVA `use` of the returned value.
        if let Some(Operand::Var(v)) = value {
            let key = self.key_of(v);
            let info = crate::typestate::UpdateInfo {
                use_keys: vec![(v, key)],
                ..Default::default()
            };
            // Reuse the Move shape so checkers treat it as a plain use.
            let kind = InstKind::Move { dst: v, src: v };
            self.run_checkers_inst(&kind, &info, loc, inst_id);
        }

        if conts.is_empty() {
            // Root return: the path is complete.
            self.path_end();
            return;
        }

        // Return into the caller's continuation.
        let cont = self.pop_cont(conts);
        let frame = self.pop_frame();
        let callee = self.call_stack.pop().unwrap();

        // Popping back to the memoized call site's depth delimits one
        // return path of the recording: snapshot its net effects, then
        // suspend while the *caller's* continuation runs live (that work
        // belongs to the caller, not the callee summary).
        let memo_boundary = matches!(
            &self.memo_rec,
            Some(m) if !m.suspended && conts.len() == m.base_conts
        );
        if memo_boundary {
            self.memo_end_segment(Some((value, loc, inst_id)));
        }

        self.ret_into_caller(cont.dst, value, loc, inst_id, &cont, conts);

        // Restore structural stacks for sibling paths in the callee. The
        // frame re-enters at the depth it was created for, so its cached
        // fingerprint is still valid.
        self.call_stack.push(callee);
        self.push_frame(frame);
        self.push_cont(conts, cont);
        if memo_boundary {
            self.memo_resume();
        }
    }

    /// The live caller-side tail of a return: bind the value, re-own
    /// returned heap objects, and continue the caller's block. Shared by
    /// normal returns and callee-memo replay (which re-runs this part live
    /// at every replayed return path).
    fn ret_into_caller(
        &mut self,
        dst: Option<VarId>,
        value: Option<Operand>,
        loc: Loc,
        inst_id: InstId,
        cont: &Cont,
        conts: &mut Vec<Cont>,
    ) {
        if let Some(dst) = dst {
            self.bind_value(dst, value, loc, inst_id);
            // Re-own heap objects transferred by `return p` (ML RETURNED →
            // SNF in the caller's frame).
            let dst_key = self.key_of(dst);
            let ml_id = crate::checkers::BugKind::MemoryLeak.id();
            if let Some(entry) = self.states.get(ml_id, dst_key) {
                if entry.state == ml::S_RETURNED {
                    let graph = &self.graph;
                    let set_size = |k: TrackKey| match k {
                        TrackKey::Node(n) => graph.alias_set_size(n),
                        TrackKey::Var(_) => 1,
                    };
                    let mut cx = TrackCtx {
                        states: &mut self.states,
                        mode: self.config.alias_mode,
                        bugs: &mut self.pending,
                        stats: &mut self.stats,
                        set_size: &set_size,
                        loc,
                        inst_id,
                    };
                    cx.transition(ml_id, dst_key, ml::S_NF, Some(entry));
                    drop(cx);
                    self.push_heap(HeapObject {
                        key: dst_key,
                        loc: entry.origin_loc,
                        inst_id: entry.origin_id,
                    });
                }
            }
        }

        self.exec_from(cont.func, cont.block, cont.next_inst, conts);
    }

    // ==============================================================
    // Callee-summary recording & replay
    // ==============================================================

    /// Closes the current recording segment: net journal effects since the
    /// call site, the constraint suffix, exploration volume since the last
    /// resume, and (for a real return path) the value to bind.
    fn memo_end_segment(&mut self, ret: Option<(Option<Operand>, Loc, InstId)>) {
        let Some(mut m) = self.memo_rec.take() else {
            return;
        };
        if m.segments.len() >= SEGMENT_CAP {
            m.poisoned = true;
        }
        if !m.poisoned {
            // Net map deltas: touched keys from the journal suffix, with
            // their *current* values (rollbacks between return paths pop
            // their journal entries, so the suffix is pollution-free).
            let mut cond_delta = Vec::new();
            let mut cond_seen = FxHashMap::default();
            for (v, _) in &self.cond_journal[m.entry_mark.conds..] {
                if cond_seen.insert(*v, ()).is_none() {
                    cond_delta.push((*v, self.cond_defs.get(v).copied()));
                }
            }
            let mut sym_delta = Vec::new();
            let mut sym_seen = FxHashMap::default();
            for (k, _) in &self.sym_journal[m.entry_mark.syms..] {
                if sym_seen.insert(*k, ()).is_none() {
                    sym_delta.push((*k, self.syms.get(k).copied()));
                }
            }
            let mut fptr_delta = Vec::new();
            let mut fptr_seen = FxHashMap::default();
            for (k, _) in &self.fptr_journal[m.entry_mark.fptrs..] {
                if fptr_seen.insert(*k, ()).is_none() {
                    fptr_delta.push((*k, self.fptrs.get(k).copied()));
                }
            }
            let mut d_alias_ops = self.alias_ops;
            for (d, b) in d_alias_ops.iter_mut().zip(&m.seg_base_alias_ops) {
                *d -= b;
            }
            m.segments.push(MemoSegment {
                graph_ops: self.graph.ops_since(m.entry_mark.graph).to_vec(),
                state_ops: self.states.ops_since(m.entry_mark.states).to_vec(),
                cond_delta,
                sym_delta,
                fptr_delta,
                trace_suffix: self.trace[m.entry_mark.trace..].to_vec(),
                d_stats: self.stats.exploration_delta(&m.seg_base_stats),
                d_alias_ops,
                // Entry-relative, like every journaled delta: branch
                // rollbacks inside the callee restore `next_sym`, so the
                // value at each `Ret` is entry + this path's allocations —
                // exactly what the replay's per-segment rollback expects.
                d_next_sym: self.next_sym - m.entry_mark.next_sym,
                events: std::mem::take(&mut m.seg_events),
                ret,
            });
        }
        m.suspended = true;
        self.memo_rec = Some(m);
    }

    /// Resumes recording after the live caller tail of a return path.
    fn memo_resume(&mut self) {
        if let Some(m) = &mut self.memo_rec {
            m.suspended = false;
            m.seg_base_stats = self.stats.clone();
            m.seg_base_alias_ops = self.alias_ops;
        }
    }

    /// Replays a recorded callee exploration at a call site whose entry
    /// state matches the recording's key: per return path, apply the net
    /// effects through the journaled primitives, re-emit recorded bugs, run
    /// the caller continuation live, and roll back for the next path.
    fn replay_memo(
        &mut self,
        entry: &MemoEntry,
        func: FuncId,
        inst_id: InstId,
        dst: Option<VarId>,
        conts: &mut Vec<Cont>,
    ) {
        self.stats.callee_memo_hits += 1;
        let mark = self.full_mark();
        let cont = Cont {
            func,
            block: inst_id.block,
            next_inst: inst_id.inst + 1,
            dst,
        };
        for seg in &entry.segments {
            if self.exhausted {
                break;
            }
            if !self.replay_fits(&seg.d_stats) {
                // The recording would cross a budget line mid-path; stop
                // here. explore() re-runs the root cache-free, so the
                // truncated verdicts never reach the user.
                self.exhausted = true;
                let b = &self.config.budget;
                let reason = if self.stats.insts_processed + seg.d_stats.insts_processed
                    >= b.max_insts as u64
                {
                    "max_insts"
                } else {
                    "max_paths"
                };
                self.budget_reason.get_or_insert(reason);
                break;
            }
            for op in &seg.graph_ops {
                self.graph.apply_op(op);
            }
            for op in &seg.state_ops {
                self.states.apply_op(op);
            }
            for (v, new) in &seg.cond_delta {
                let old = self.set_cond(*v, *new);
                self.cond_journal.push((*v, old));
            }
            for (k, new) in &seg.sym_delta {
                let old = self.set_sym(*k, *new);
                self.sym_journal.push((*k, old));
            }
            for (k, new) in &seg.fptr_delta {
                let old = self.set_fptr(*k, *new);
                self.fptr_journal.push((*k, old));
            }
            self.next_sym += seg.d_next_sym;
            self.stats += &seg.d_stats;
            self.stats.insts_replayed += seg.d_stats.insts_processed;
            for (a, d) in self.alias_ops.iter_mut().zip(&seg.d_alias_ops) {
                *a += d;
            }
            for i in 0..seg.events.len() {
                let RecordedBug {
                    pb,
                    alias_paths,
                    suffix,
                } = seg.events[i].clone();
                self.emit_bug(pb, alias_paths, Some(&suffix));
            }
            self.trace.extend_from_slice(&seg.trace_suffix);
            if let Some((value, rloc, rid)) = seg.ret {
                self.ret_into_caller(dst, value, rloc, rid, &cont, conts);
            }
            self.full_rollback(&mark);
        }
    }

    /// Binds `value` into `dst` as the paper's return-MOVE (Fig. 6 line 20).
    fn bind_value(&mut self, dst: VarId, value: Option<Operand>, loc: Loc, inst_id: InstId) {
        match value {
            Some(Operand::Var(src)) => {
                self.na_clear_def(dst);
                let info = match self.config.alias_mode {
                    AliasMode::PathBased => {
                        let n = self.graph.handle_move(dst, src);
                        self.count_unaware_alias_op(src);
                        self.count_unaware_sync(nkey(n));
                        crate::typestate::UpdateInfo {
                            dst_key: Some(nkey(n)),
                            move_pair: Some((nkey(n), nkey(n))),
                            ..Default::default()
                        }
                    }
                    AliasMode::None => {
                        let dk = TrackKey::Var(dst);
                        let sk = TrackKey::Var(src);
                        let d = self.sym_for(dk);
                        let s = self.sym_for(sk);
                        self.push_constraint(Constraint::new(
                            SmtOp::Eq,
                            Term::sym(d),
                            Term::sym(s),
                        ));
                        crate::typestate::UpdateInfo {
                            dst_key: Some(dk),
                            move_pair: Some((dk, sk)),
                            ..Default::default()
                        }
                    }
                };
                let kind = InstKind::Move { dst, src };
                self.run_checkers_inst(&kind, &info, loc, inst_id);
            }
            Some(Operand::Const(c)) => {
                self.na_clear_def(dst);
                let key = match self.config.alias_mode {
                    AliasMode::PathBased => nkey(self.graph.handle_const(dst)),
                    AliasMode::None => TrackKey::Var(dst),
                };
                let s = self.sym_for(key);
                self.push_constraint(Constraint::new(
                    SmtOp::Eq,
                    Term::sym(s),
                    Term::int(c.as_int()),
                ));
                let kind = InstKind::Const { dst, value: c };
                let info = crate::typestate::UpdateInfo {
                    dst_key: Some(key),
                    ..Default::default()
                };
                self.run_checkers_inst(&kind, &info, loc, inst_id);
            }
            None => {
                // void return into a destination: havoc.
                self.na_clear_def(dst);
                if self.config.alias_mode == AliasMode::PathBased {
                    self.graph.handle_const(dst);
                }
            }
        }
    }

    // ==============================================================
    // Instructions
    // ==============================================================

    fn apply_inst(
        &mut self,
        func: FuncId,
        inst_id: InstId,
        inst: &Inst,
        conts: &mut Vec<Cont>,
    ) -> Flow {
        let loc = inst.loc;
        let alias = self.config.alias_mode == AliasMode::PathBased;
        // Calls carry their own scratch discipline (checker dispatch happens
        // before recursing into the callee); delegate before borrowing ours.
        if let InstKind::Call { dst, callee, args } = &inst.kind {
            return self.apply_call(func, inst_id, loc, *dst, *callee, args, &inst.kind, conts);
        }
        // Reuse one scratch `UpdateInfo` per explorer: `clear` keeps the
        // `use_keys`/`escape_keys` capacity, removing an alloc/free pair
        // from every instruction step.
        let mut info = std::mem::take(&mut self.info_scratch);
        info.clear();
        match &inst.kind {
            InstKind::Move { dst, src } => {
                info.use_keys.push((*src, self.key_of(*src)));
                self.na_clear_def(*dst);
                if alias {
                    self.tally_alias_op(0);
                    let n = self.graph.handle_move(*dst, *src);
                    self.count_unaware_alias_op(*src);
                    self.count_unaware_sync(nkey(n));
                    info.dst_key = Some(nkey(n));
                    info.move_pair = Some((nkey(n), nkey(n)));
                } else {
                    let dk = TrackKey::Var(*dst);
                    let sk = TrackKey::Var(*src);
                    let d = self.sym_for(dk);
                    let s = self.sym_for(sk);
                    self.push_constraint(Constraint::new(SmtOp::Eq, Term::sym(d), Term::sym(s)));
                    info.dst_key = Some(dk);
                    info.move_pair = Some((dk, sk));
                }
            }
            InstKind::Const { dst, value } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    self.tally_alias_op(1);
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                let s = self.sym_for(key);
                self.push_constraint(Constraint::new(
                    SmtOp::Eq,
                    Term::sym(s),
                    Term::int(value.as_int()),
                ));
                info.dst_key = Some(key);
            }
            InstKind::Load { dst, addr } => {
                info.use_keys.push((*addr, self.key_of(*addr)));
                info.deref_key = Some(self.key_of(*addr));
                self.na_clear_def(*dst);
                if alias {
                    self.tally_alias_op(2);
                    let n = self.graph.handle_load(*dst, *addr);
                    self.count_unaware_alias_op(*dst);
                    self.count_unaware_sync(nkey(n));
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::Store { addr, val } => {
                info.use_keys.push((*addr, self.key_of(*addr)));
                info.deref_key = Some(self.key_of(*addr));
                if let Operand::Var(v) = val {
                    info.use_keys.push((*v, self.key_of(*v)));
                }
                if alias {
                    self.tally_alias_op(3);
                    match val {
                        Operand::Var(v) => {
                            // A stored function pointer keeps its binding:
                            // the value's node IS the new deref target, so
                            // the fptr map needs no update in alias mode.
                            let si = self.graph.handle_store(*addr, *v);
                            self.count_unaware_alias_op(*v);
                            info.stored_val_key = Some(nkey(si.new_target));
                            info.store_old_target = si.old_target.map(|n| nkey(n));
                        }
                        Operand::Const(c) => {
                            let si = self.graph.handle_store_const(*addr);
                            let key = nkey(si.new_target);
                            let s = self.sym_for(key);
                            self.push_constraint(Constraint::new(
                                SmtOp::Eq,
                                Term::sym(s),
                                Term::int(c.as_int()),
                            ));
                            info.stored_const = Some((key, *c));
                            info.store_old_target = si.old_target.map(|n| nkey(n));
                        }
                    }
                }
            }
            InstKind::Gep { dst, base, field } => {
                info.use_keys.push((*base, self.key_of(*base)));
                info.deref_key = Some(self.key_of(*base));
                self.na_clear_def(*dst);
                if alias {
                    self.tally_alias_op(4);
                    let n = self.graph.handle_gep(*dst, *base, *field);
                    self.count_unaware_alias_op(*dst);
                    self.count_unaware_sync(nkey(n));
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::AddrOf { dst, src } => {
                self.na_clear_def(*dst);
                if alias {
                    self.tally_alias_op(5);
                    let n = self.graph.handle_addr_of(*dst, *src);
                    self.count_unaware_alias_op(*dst);
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::Index { dst, base, index } => {
                info.use_keys.push((*base, self.key_of(*base)));
                info.deref_key = Some(self.key_of(*base));
                if let Operand::Var(v) = index {
                    info.use_keys.push((*v, self.key_of(*v)));
                    info.index_key = Some(self.key_of(*v));
                }
                info.index_const = index.as_const().map(|c| c.as_int());
                self.na_clear_def(*dst);
                if alias {
                    // Element access paths are keyed by the index operand
                    // (paper §5.2: array-insensitive access paths).
                    let label = match index {
                        Operand::Const(c) => Label::ElemConst(c.as_int()),
                        Operand::Var(v) => Label::ElemVar(v.index() as u32),
                    };
                    self.tally_alias_op(6);
                    let n = self.graph.handle_index(*dst, *base, label);
                    self.count_unaware_alias_op(*dst);
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::Bin { dst, op, lhs, rhs } => {
                for o in [lhs, rhs] {
                    if let Operand::Var(v) = o {
                        info.use_keys.push((*v, self.key_of(*v)));
                    }
                }
                if op.traps_on_zero() {
                    if let Operand::Var(v) = rhs {
                        info.divisor_key = Some(self.key_of(*v));
                    }
                    info.divisor_const = rhs.as_const().map(|c| c.as_int());
                }
                let lt = self.operand_term(*lhs);
                let rt = self.operand_term(*rhs);
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                let s = self.sym_for(key);
                let rhs_term = bin_term(*op, lt, rt);
                self.push_constraint(Constraint::new(SmtOp::Eq, Term::sym(s), rhs_term));
                info.dst_key = Some(key);
            }
            InstKind::Cmp { dst, op, lhs, rhs } => {
                for o in [lhs, rhs] {
                    if let Operand::Var(v) = o {
                        info.use_keys.push((*v, self.key_of(*v)));
                    }
                }
                // Remember the predicate for the branch that consumes dst.
                let old = self.set_cond(
                    *dst,
                    Some(PredDef {
                        op: *op,
                        lhs: *lhs,
                        rhs: *rhs,
                    }),
                );
                self.cond_journal.push((*dst, old));
                self.na_clear_def(*dst);
                if alias {
                    let n = self.graph.handle_const(*dst);
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::Call { .. } => unreachable!("calls are delegated before the scratch borrow"),
            InstKind::FuncAddr { dst, func: target } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                let old = self.set_fptr(key, Some(*target));
                self.fptr_journal.push((key, old));
                info.dst_key = Some(key);
            }
            InstKind::Alloca { dst, .. } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                info.dst_key = Some(key);
            }
            InstKind::Malloc { dst } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                info.dst_key = Some(key);
                self.push_heap(HeapObject { key, loc, inst_id });
            }
            InstKind::Free { ptr } => {
                info.use_keys.push((*ptr, self.key_of(*ptr)));
                info.free_key = Some(self.key_of(*ptr));
            }
            InstKind::Memset { ptr } => {
                info.use_keys.push((*ptr, self.key_of(*ptr)));
                info.deref_key = Some(self.key_of(*ptr));
            }
            InstKind::Lock { obj } | InstKind::Unlock { obj } => {
                info.use_keys.push((*obj, self.key_of(*obj)));
                info.lock_key = Some(self.key_of(*obj));
            }
        }
        self.run_checkers_inst(&inst.kind, &info, loc, inst_id);
        self.info_scratch = info;
        Flow::Continue
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_call(
        &mut self,
        func: FuncId,
        inst_id: InstId,
        loc: Loc,
        dst: Option<VarId>,
        callee: Callee,
        args: &[Operand],
        kind: &InstKind,
        conts: &mut Vec<Cont>,
    ) -> Flow {
        let mut info = std::mem::take(&mut self.info_scratch);
        info.clear();
        for a in args {
            if let Operand::Var(v) = a {
                info.use_keys.push((*v, self.key_of(*v)));
            }
        }

        // §7 extension: an indirect call whose function pointer's alias set
        // is pinned to a FuncAddr along this path resolves like a direct
        // call (e.g. `d->ops = my_handler; … d->ops(d);`).
        let effective = match callee {
            Callee::Indirect(v) if self.config.resolve_fptrs => {
                let key = self.key_of(v);
                match self.fptrs.get(&key) {
                    Some(&f) => Callee::Direct(f),
                    None => callee,
                }
            }
            other => other,
        };
        let inline_target = match effective {
            Callee::Direct(f)
                if !self.call_stack.contains(&f)
                    && self.call_stack.len() < self.config.budget.max_call_depth =>
            {
                Some(f)
            }
            _ => None,
        };

        if inline_target.is_none() {
            // Opaque call (external, indirect, recursion cut, depth cap):
            // pointer arguments escape; the result is havoced.
            for a in args {
                if let Operand::Var(v) = a {
                    if self.module.var(*v).ty.is_pointer() {
                        info.escape_keys.push(self.key_of(*v));
                    }
                }
            }
            if let Some(d) = dst {
                self.na_clear_def(d);
                let key = if self.config.alias_mode == AliasMode::PathBased {
                    nkey(self.graph.handle_const(d))
                } else {
                    TrackKey::Var(d)
                };
                info.dst_key = Some(key);
            }
            // Dispatch on the original instruction — no rebuilt `InstKind`
            // (the old path cloned the argument vector just to hand the
            // checkers a value identical to `kind`).
            self.run_checkers_inst(kind, &info, loc, inst_id);
            self.info_scratch = info;
            return Flow::Continue;
        }

        let f = inline_target.unwrap();
        // Report uses (e.g. passing an uninitialized value) before binding.
        self.run_checkers_inst(kind, &info, loc, inst_id);
        self.info_scratch = info;

        // Callee-summary cache: the memoized span runs from parameter
        // binding through the callee's whole exploration (the call-site
        // checker dispatch above stays live — it is common to both).
        let memo_key = if self.memo_enabled() {
            Some(self.memo_key(f, args))
        } else {
            None
        };
        if let Some(key) = &memo_key {
            if let Some(entry) = self.memo_table.get(key).cloned() {
                if entry
                    .segments
                    .first()
                    .is_some_and(|seg| self.replay_fits(&seg.d_stats))
                {
                    self.replay_memo(&entry, func, inst_id, dst, conts);
                    return Flow::EnteredCall;
                }
            }
        }
        // Record only the outermost memoizable call: one recorder at a time
        // keeps segment boundaries unambiguous, and inner calls are covered
        // the next time they are reached directly.
        let record = memo_key.is_some() && self.memo_rec.is_none();
        if record {
            self.memo_rec = Some(MemoRecorder {
                key: memo_key.unwrap(),
                entry_mark: self.full_mark(),
                base_conts: conts.len(),
                seg_base_stats: self.stats.clone(),
                seg_base_alias_ops: self.alias_ops,
                seg_events: Vec::new(),
                segments: Vec::new(),
                suspended: false,
                poisoned: false,
            });
        }

        // HandleCALL (Fig. 6): parameter passing is a sequence of MOVEs.
        // Borrowed straight from the module (its lifetime outlives `self`
        // borrows) — the old copy into a fresh `Vec` was pure churn.
        let module: &Module = self.module;
        let params: &[VarId] = module.function(f).params();
        for (i, &param) in params.iter().enumerate() {
            let arg = args
                .get(i)
                .copied()
                .unwrap_or(Operand::Const(ConstVal::Int(0)));
            self.bind_value(param, Some(arg), loc, inst_id);
        }

        self.push_cont(
            conts,
            Cont {
                func,
                block: inst_id.block,
                next_inst: inst_id.inst + 1,
                dst,
            },
        );
        self.call_stack.push(f);
        let nblocks = self.module.function(f).blocks().len();
        let cyclic = self.cyclic_mask(f);
        let depth = self.frames.len();
        let frame = self.new_frame(f, nblocks, cyclic, depth);
        self.push_frame(frame);
        let entry = self.module.function(f).entry();
        self.exec_block(f, entry, conts);
        self.pop_frame();
        self.call_stack.pop();
        self.pop_cont(conts);

        if record {
            // Close the trailing segment (dead-end exploration after the
            // last return path: budget-relevant, no caller continuation),
            // then publish the recording if it stayed clean.
            self.memo_end_segment(None);
            let m = self.memo_rec.take().expect("memo recorder");
            if !self.exhausted && !m.poisoned {
                self.insert_memo(
                    m.key,
                    MemoEntry {
                        segments: m.segments,
                    },
                );
            }
        }
        Flow::EnteredCall
    }
}

enum Flow {
    Continue,
    EnteredCall,
}

fn nkey(n: NodeId) -> TrackKey {
    TrackKey::Node(n)
}

/// Collapses a tracking key into one hash lane; mirrors the state table's
/// internal lane packing (node ids and variable ids live in disjoint
/// ranges).
fn key_lane(key: TrackKey) -> u64 {
    match key {
        TrackKey::Node(n) => n.index() as u64,
        TrackKey::Var(v) => (1u64 << 32) | v.index() as u64,
    }
}

/// One hash lane per operand; constants and variables in disjoint ranges.
fn operand_lane(op: Operand) -> u64 {
    match op {
        Operand::Const(c) => mix(c.as_int() as u64),
        Operand::Var(v) => mix((1u64 << 63) | v.index() as u64),
    }
}

/// Packs an instruction id into one hash lane.
fn pack_inst(id: InstId) -> u64 {
    ((id.func.index() as u64) << 40) ^ ((id.block.index() as u64) << 20) ^ id.inst as u64
}

/// Fingerprint fact for one predicate definition.
fn cond_fact(v: VarId, p: &PredDef) -> u64 {
    hash4(
        TAG_COND,
        v.index() as u64,
        p.op as u64,
        operand_lane(p.lhs),
        operand_lane(p.rhs),
    )
}

/// Fingerprint fact for heap object `idx` of the frame at `depth`.
fn heap_fact(depth: usize, idx: usize, h: &HeapObject) -> u64 {
    hash4(
        TAG_HEAP,
        ((depth as u64) << 32) | idx as u64,
        key_lane(h.key),
        pack_inst(h.inst_id),
        0,
    )
}

/// Fingerprint fact for the pending continuation at stack index `i`.
fn cont_fact(i: usize, c: &Cont) -> u64 {
    hash4(
        TAG_CONT,
        i as u64,
        c.func.index() as u64,
        ((c.block.index() as u64) << 20) | c.next_inst as u64,
        c.dst.map_or(u64::MAX, |v| v.index() as u64),
    )
}

fn to_smt_op(op: CmpOp) -> SmtOp {
    match op {
        CmpOp::Eq => SmtOp::Eq,
        CmpOp::Ne => SmtOp::Ne,
        CmpOp::Lt => SmtOp::Lt,
        CmpOp::Le => SmtOp::Le,
        CmpOp::Gt => SmtOp::Gt,
        CmpOp::Ge => SmtOp::Ge,
    }
}

fn bin_term(op: pata_ir::BinOp, lhs: Term, rhs: Term) -> Term {
    use pata_ir::BinOp as B;
    use pata_smt::OpaqueOp as O;
    match op {
        B::Add => lhs.add(rhs),
        B::Sub => lhs.sub(rhs),
        B::Mul => lhs.mul(rhs),
        B::Div => Term::opaque(O::Div, lhs, rhs),
        B::Rem => Term::opaque(O::Rem, lhs, rhs),
        B::And => Term::opaque(O::And, lhs, rhs),
        B::Or => Term::opaque(O::Or, lhs, rhs),
        B::Xor => Term::opaque(O::Xor, lhs, rhs),
        B::Shl => Term::opaque(O::Shl, lhs, rhs),
        B::Shr => Term::opaque(O::Shr, lhs, rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;

    /// Forked diamonds with a helper call, a loop, heap traffic and real
    /// bugs on some paths: every fingerprint domain (graph, states,
    /// cond/sym/fptr maps, frames, visit counts, heap objects,
    /// continuations) is exercised, and both fork directions carry
    /// different state.
    const DIAMOND_SRC: &str = r#"
        struct pkt { int len; int mode; int *payload; };

        static int clamp(int n) {
            if (n > 8) { n = 8; }
            if (n < 0) { n = 0; }
            return n;
        }

        static int drain(struct pkt *p) {
            int total = 0;
            int i = 0;
            while (i < 3) {
                if (p->mode > 0) { total = total + clamp(i); } else { total = total - 1; }
                i = i + 1;
            }
            if (p->payload == NULL) { log_warn("drain"); }
            return *p->payload + total;
        }

        static int route(struct pkt *p) {
            int *scratch = malloc(32);
            int acc = 0;
            if (p->len > 0) { acc = clamp(p->len); } else { acc = 1; }
            if (p->mode > 1) { acc = acc + drain(p); } else { acc = acc + 2; }
            if (acc > 4) {
                return acc;
            }
            free(scratch);
            return 0;
        }

        void pkt_entry(struct pkt *p) {
            int r = 0;
            if (p == NULL) { return; }
            r = route(p);
            if (r < 0) { log_warn("entry"); }
        }
    "#;

    fn explore_all(config: &AnalysisConfig, verify_fp: bool) -> (usize, u64, ForkStats) {
        let mut module = pata_cc::compile_one("d.c", DIAMOND_SRC).unwrap();
        let checkers: Vec<Box<dyn Checker>> =
            config.checkers.iter().map(|k| k.instantiate()).collect();
        let roots = crate::collector::mark_interfaces(&mut module);
        assert!(!roots.is_empty());
        let mut candidates = 0;
        let mut paths = 0;
        let mut forks = ForkStats::default();
        for root in roots {
            let mut ex = Explorer::new(&module, config, &checkers, root);
            ex.verify_fp = verify_fp;
            let result = ex.explore();
            candidates += result.candidates.len();
            paths += result.stats.paths_explored;
            forks.merge(&result.fork_stats);
        }
        (candidates, paths, forks)
    }

    /// Satellite of the CoW PR: the fingerprint accumulator cross-check
    /// promoted from `debug_assert` to a real test that runs the slow fold
    /// against the incremental value at every block entry — including in
    /// release mode, where `debug_assert` compiles out (CI runs this test
    /// under `--release` explicitly).
    #[test]
    fn fingerprint_accumulators_match_slow_fold_over_forked_diamonds() {
        let config = AnalysisConfig::default();
        let (candidates, paths, _) = explore_all(&config, true);
        assert!(paths > 8, "diamond corpus should fork: {paths} paths");
        assert!(candidates > 0, "corpus should produce candidate bugs");

        // Same cross-check under clone-based forking: the restore path
        // must leave the accumulators exactly where rollback would.
        let clone_config = AnalysisConfig {
            cow_state: false,
            ..AnalysisConfig::default()
        };
        let (c2, p2, _) = explore_all(&clone_config, true);
        assert_eq!((candidates, paths), (c2, p2));
    }

    /// CoW and clone forking are observationally identical, and the fork
    /// telemetry sees CoW copy fixed-size marks while clone mode copies
    /// the (larger) live state.
    #[test]
    fn cow_and_clone_forking_agree_and_fork_costs_differ() {
        let cow = AnalysisConfig {
            telemetry: true,
            ..AnalysisConfig::default()
        };
        let clone = AnalysisConfig {
            telemetry: true,
            cow_state: false,
            ..AnalysisConfig::default()
        };
        let (c1, p1, f1) = explore_all(&cow, false);
        let (c2, p2, f2) = explore_all(&clone, false);
        assert_eq!((c1, p1), (c2, p2));
        assert_eq!(f1.forks, f2.forks, "same branches explored");
        assert!(f1.forks > 0);
        assert_eq!(
            f1.bytes_copied,
            f1.forks * std::mem::size_of::<FullMark>() as u64,
            "CoW forks copy exactly one fixed-size mark each"
        );
        assert!(
            f2.bytes_copied > f1.bytes_copied,
            "clone forks copy the live state: {} vs {}",
            f2.bytes_copied,
            f1.bytes_copied
        );
        assert!(f1.bytes_shared > 0);
        assert_eq!(f2.bytes_shared, 0);
    }
}
