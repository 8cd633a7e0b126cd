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
//! current within-frame DFS stack is not re-entered, and a callee that
//! already has a frame on the path is treated as opaque (the paper's Fig. 6
//! lines 32-38 and §3.1 soundness discussion).
//!
//! The walk is one loop over an explicit work stack in the [`Workspace`]:
//! each task is what a recursive walk would do when control came back to
//! it (leave a block, undo a fork, run the else-arm, put a callee's frame
//! back), so a path's length or call depth never grows the thread's
//! stack.
//!
//! Every step runs live: nothing recorded on one path is replayed on
//! another (DESIGN.md "No reuse cache in stage 1").
//!
//! ## Allocation discipline
//!
//! Once its buffers have grown, a step makes no allocator calls: all
//! path state lives in a [`Workspace`] that a worker reuses from root to
//! root; rollback truncates and recycles (alias nodes, frames) instead
//! of freeing; the constraint trace holds fixed-size `Copy` records that
//! become [`Constraint`]s only when a candidate is emitted (DESIGN.md
//! "Stage-1 allocation discipline").
//!
//! ## Calls (paper Fig. 6, HandleCALL)
//!
//! A direct call is inlined: actual arguments `MOVE` into formal parameters
//! (making them aliases), and the callee's frame is pushed with its return
//! site (the caller's block, the instruction after the call and the
//! destination). Each `return` `MOVE`s its value into that destination and
//! resumes the caller there, so every path through the callee continues
//! through the rest of the caller before the callee's next path runs.
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

use crate::alias::{AliasGraph, Label, Mark as GraphMark, NodeId};
use crate::checkers::ml;
use crate::config::{AliasMode, AnalysisConfig};
use crate::faultinject;
use crate::fingerprint::FxHashMap;
use crate::report::PossibleBug;
use crate::stats::{AnalysisStats, BudgetNote};
use crate::typestate::{
    BranchEvent, Checker, FrameEndEvent, HeapObject, KeyMap, OperandKey, PendingBug, StateMark,
    StateTable, TrackCtx, TrackKey, UpdateInfo,
};
use pata_ir::{
    BlockId, Callee, CmpOp, ConstVal, FuncId, Inst, InstId, InstKind, Module, Operand, StructId,
    Terminator, VarId,
};
use pata_smt::{CmpOp as SmtOp, Constraint, SymId, Term};
use std::hash::Hash;

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
    /// undo — the frame itself is gone) from entries of the frame currently
    /// at that depth.
    serial: u64,
    /// Per-block visit counts on the current DFS stack within this frame
    /// (the loop cut: a block may appear `loop_iterations + 1` times on a
    /// path, letting a loop body run `loop_iterations` times and the path
    /// still leave through the header's exit edge). Dense, indexed by
    /// `BlockId::index()`: block ids are small per-function integers, and
    /// this counter is hit on every block entry/exit, so an array beats a
    /// hash map on both lookup cost and allocation churn.
    visited: Vec<u32>,
    /// Heap objects allocated while this frame was active.
    heap_objects: Vec<HeapObject>,
    /// Where this activation's paths continue in its caller (the frame
    /// below); `None` for the root.
    ret: Option<RetSite>,
}

impl Frame {
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

/// A call's return site: the caller's block, the instruction after the
/// call and the variable that receives the returned value.
#[derive(Debug, Clone, Copy)]
struct RetSite {
    block: BlockId,
    next_inst: usize,
    dst: Option<VarId>,
}

/// One piece of the depth-first walk still to do, on the workspace's work
/// stack. Each is what a recursive walk would do when control came back to
/// that point, so a step pushes its tasks in reverse of the order they run.
/// Blocks are those of the top frame's function.
#[derive(Debug)]
enum Task {
    /// Enter a block: budget check, loop-cut count, then its instructions.
    Enter(BlockId),
    /// Run a block from an instruction on: a caller after its callee
    /// returned.
    Resume(BlockId, usize),
    /// Leave a block entered by `Enter`: undo its loop-cut count.
    Leave(BlockId),
    /// Fork for one successor of `block`'s branch, assert the predicate as
    /// taken or not, and enter `succ`.
    Arm {
        pred: Option<PredDef>,
        taken: bool,
        block: BlockId,
        succ: BlockId,
    },
    /// Roll a copy-on-write fork back.
    Undo(FullMark),
    /// Restore the clone fork on top of [`Workspace::snapshots`].
    Restore,
    /// Put back the frame of a callee whose caller ran on after its
    /// return, for the callee's remaining paths.
    Return(Frame),
    /// Retire a finished callee's frame to [`Workspace::spare_frames`].
    Retire,
}

/// A constraint operand as the explorer resolves it: an integer or the
/// symbol of an alias set. `Copy`, unlike [`Term`], so the trace holds
/// no heap data.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    Int(i64),
    Sym(SymId),
}

impl Leaf {
    fn term(self) -> Term {
        match self {
            Leaf::Int(v) => Term::int(v),
            Leaf::Sym(s) => Term::sym(s),
        }
    }
}

/// One path-trace entry: `lhs op rhs`, or `lhs op (rhs bin rhs2)` when
/// `bin` is set (the definition of a `Bin` result). Every constraint the
/// explorer emits has one of these two shapes, so a fixed-size record
/// stores it: pushing one allocates nothing, and rollback truncates the
/// trace without freeing anything. [`TraceRec::constraint`] builds the
/// [`Constraint`] when a candidate snapshots the trace.
#[derive(Debug, Clone, Copy)]
struct TraceRec {
    op: SmtOp,
    lhs: Leaf,
    rhs: Leaf,
    bin: Option<(pata_ir::BinOp, Leaf)>,
}

impl TraceRec {
    /// `lhs op rhs`.
    fn cmp(op: SmtOp, lhs: Leaf, rhs: Leaf) -> Self {
        TraceRec {
            op,
            lhs,
            rhs,
            bin: None,
        }
    }

    /// `sym == lhs bin rhs`.
    fn bin_def(sym: SymId, bin: pata_ir::BinOp, lhs: Leaf, rhs: Leaf) -> Self {
        TraceRec {
            op: SmtOp::Eq,
            lhs: Leaf::Sym(sym),
            rhs: lhs,
            bin: Some((bin, rhs)),
        }
    }

    /// The constraint this record stands for.
    fn constraint(&self) -> Constraint {
        let rhs = match self.bin {
            None => self.rhs.term(),
            Some((op, rhs2)) => bin_term(op, self.rhs.term(), rhs2.term()),
        };
        Constraint::new(self.op, self.lhs.term(), rhs)
    }
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
    /// allocate identical ids for identical work, so a path's constraints
    /// do not depend on which siblings ran before it. (Constraints never
    /// escape their path, so reuse across rolled-back siblings cannot
    /// collide.)
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
/// journaled mode. The work stack is deliberately absent: every task an arm
/// pushes has run before its `Restore`, so the stack is back at its
/// fork-time height on its own.
struct CloneSnapshot {
    graph: AliasGraph,
    states: StateTable,
    cond_defs: FxHashMap<VarId, PredDef>,
    cond_journal: Vec<(VarId, Option<PredDef>)>,
    syms: KeyMap<SymId>,
    sym_journal: Vec<(TrackKey, Option<SymId>)>,
    fptrs: KeyMap<FuncId>,
    fptr_journal: Vec<(TrackKey, Option<FuncId>)>,
    heap_journal: Vec<HeapPush>,
    next_sym: u32,
    trace: Vec<TraceRec>,
    frames: Vec<Frame>,
}

/// Every buffer stage 1 reuses from root to root: the journaled path
/// state, the structural stacks, the candidate dedup map and the
/// per-instruction scratch. A worker owns one and hands it to each root's
/// [`Explorer`] in turn; [`Workspace::reset`] empties it in O(what the
/// last root touched) and keeps every allocation, so after the first few
/// roots exploration makes no allocator calls except to record
/// candidates (DESIGN.md "Stage-1 allocation discipline").
#[derive(Default)]
pub(crate) struct Workspace {
    graph: AliasGraph,
    states: StateTable,
    cond_defs: FxHashMap<VarId, PredDef>,
    cond_journal: Vec<(VarId, Option<PredDef>)>,
    syms: KeyMap<SymId>,
    sym_journal: Vec<(TrackKey, Option<SymId>)>,
    /// Function addresses pinned to alias sets along the current path
    /// (the §7 function-pointer extension; populated by `FuncAddr`).
    fptrs: KeyMap<FuncId>,
    fptr_journal: Vec<(TrackKey, Option<FuncId>)>,
    /// Journal of heap-object pushes (see [`HeapPush`]); gives the combined
    /// mark a single O(1) length instead of a per-frame length vector.
    heap_journal: Vec<HeapPush>,
    /// The path's constraints as fixed-size records; a [`Constraint`] is
    /// built from them only when a candidate is emitted.
    trace: Vec<TraceRec>,
    frames: Vec<Frame>,
    /// Frames popped off `frames`, kept for their `visited` and
    /// `heap_objects` buffers; [`Explorer::new_frame`] reuses them.
    spare_frames: Vec<Frame>,
    /// The walk's work stack (see [`Task`]).
    work: Vec<Task>,
    /// Clone-mode fork snapshots, one per `Restore` on `work`.
    snapshots: Vec<CloneSnapshot>,
    pending: Vec<PendingBug>,
    seen: FxHashMap<(crate::checkers::BugKind, InstId, InstId), u8>,
    /// Per-instruction alias-resolution scratch: filled in place and read
    /// by the checkers, never moved or reallocated.
    info: UpdateInfo,
    /// Per struct id: [`unaware_fields`] once an aliasing step has needed
    /// it, [`UNCOUNTED`] before; sized when a root starts. A workspace
    /// serves the roots of one module, so [`Workspace::reset`] keeps it.
    struct_fields: Vec<u64>,
}

/// A [`Workspace::struct_fields`] entry not computed yet.
const UNCOUNTED: u64 = u64::MAX;

impl Workspace {
    /// Empties every structure for the next root, keeping the buffers.
    /// The journals are rolled back to empty, which costs what the last
    /// root left on them, not the module size.
    fn reset(&mut self) {
        self.graph.reset();
        self.states.reset();
        undo_map(&mut self.cond_defs, &mut self.cond_journal, 0);
        self.syms.undo(&mut self.sym_journal, 0);
        self.fptrs.undo(&mut self.fptr_journal, 0);
        self.heap_journal.clear();
        self.trace.clear();
        self.spare_frames.append(&mut self.frames);
        debug_assert!(self.work.is_empty() && self.snapshots.is_empty());
        self.pending.clear();
        self.seen.clear();
    }

    /// Elements of buffer capacity held across the workspace's vectors
    /// and maps: zero exactly for a workspace that has never run a root.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.states.capacity()
            + self.cond_defs.capacity()
            + self.cond_journal.capacity()
            + self.syms.capacity()
            + self.sym_journal.capacity()
            + self.fptrs.capacity()
            + self.fptr_journal.capacity()
            + self.heap_journal.capacity()
            + self.trace.capacity()
            + self.frames.capacity()
            + self.spare_frames.capacity()
            + self.work.capacity()
            + self.snapshots.capacity()
            + self.pending.capacity()
            + self.seen.capacity()
            + self.info.use_keys.capacity()
            + self.info.escape_keys.capacity()
            + self.struct_fields.capacity()
    }
}

/// The implicit field equalities an alias-unaware encoding adds when a
/// pointer to struct `sid` is copied: one per field, plus one per field of
/// each struct-typed field (paper Fig. 9). A worker computes it on the
/// struct's first use ([`Explorer::count_unaware_alias_op`]), so a request
/// that explores a few roots pays for the structs they touch, not for the
/// module's.
fn unaware_fields(module: &Module, sid: StructId) -> u64 {
    let def = module.struct_def(sid);
    let inner: usize = def
        .fields
        .iter()
        .filter_map(|(_, fty)| fty.struct_id())
        .map(|id| module.struct_def(id).field_count())
        .sum();
    (def.field_count() + inner) as u64
}

/// The per-root path explorer: one per analysis root, built by
/// [`Explorer::with_workspace`] and run by [`Explorer::run`].
pub(crate) struct Explorer<'a> {
    module: &'a Module,
    config: &'a AnalysisConfig,
    checkers: &'a [Box<dyn Checker>],

    /// The reusable path state and buffers (see [`Workspace`]).
    ws: Workspace,
    /// Next frame serial (see [`Frame::serial`]).
    frame_serial: u64,
    next_sym: u32,

    root: FuncId,
    exhausted: bool,
    candidates: Vec<PossibleBug>,
    /// Counters for this root (merged by the driver).
    stats: AnalysisStats,
    /// Telemetry gate, latched once from `config.telemetry` at
    /// construction: the per-instruction cost when disabled is one branch.
    tel_enabled: bool,
    /// Alias-graph updates by rule, indexed by [`ALIAS_OP_NAMES`].
    alias_ops: [u64; ALIAS_OP_NAMES.len()],
    /// Which budget tripped first ("max_insts" / "max_paths" /
    /// "deadline" / "live_bytes"), if any.
    budget_reason: Option<&'static str>,
    /// Wall-clock deadline for this root, armed at `explore` entry when
    /// [`AnalysisConfig::root_deadline_ms`] is non-zero; checked at fork
    /// points by `check_resource_budgets`.
    deadline: Option<std::time::Instant>,
    /// Branch-fork telemetry (`driver.explore.fork.*`), tallied only when
    /// telemetry is enabled.
    fork_stats: ForkStats,
}

/// Branch-fork cost counters for one root, merged into the
/// `driver.explore.fork.*` telemetry family by the driver. Kept out of
/// [`AnalysisStats`] on purpose: fork cost depends on the CoW knob, while
/// `AnalysisStats` must stay bit-identical across it (the equivalence tests
/// compare it directly).
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

/// The `alias.op.*` telemetry counters, in `alias_ops` index order.
pub(crate) const ALIAS_OP_NAMES: [&str; 7] = [
    "alias.op.move",
    "alias.op.const",
    "alias.op.load",
    "alias.op.store",
    "alias.op.gep",
    "alias.op.addr",
    "alias.op.index",
];

/// The output of exploring one root.
pub(crate) struct ExploreResult {
    /// Candidate bugs (already path-locally deduplicated).
    pub(crate) candidates: Vec<PossibleBug>,
    /// This root's statistics.
    pub(crate) stats: AnalysisStats,
    /// Alias-graph updates by rule, in move/const/load/store/gep/addr/index
    /// order; all zero unless [`crate::AnalysisConfig::telemetry`] is set.
    /// Plain counters rather than a sink: the driver sums arrays per worker
    /// and flushes the `alias.op.*` counters once per run, keeping the per-root
    /// cost away from map operations.
    pub(crate) alias_ops: [u64; 7],
    /// Set when this root hit an exploration budget (which one).
    pub(crate) budget_note: Option<BudgetNote>,
    /// Branch-fork cost counters (all zero unless telemetry is enabled).
    pub(crate) fork_stats: ForkStats,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer for `root` that runs in `ws`, reset first; a
    /// worker passes the workspace its previous root gave back.
    pub(crate) fn with_workspace(
        module: &'a Module,
        config: &'a AnalysisConfig,
        checkers: &'a [Box<dyn Checker>],
        root: FuncId,
        mut ws: Workspace,
    ) -> Self {
        ws.reset();
        // One slot per struct, so the aliasing step only indexes.
        let structs = module.structs().len();
        debug_assert!(ws.struct_fields.len() <= structs);
        ws.struct_fields.resize(structs, UNCOUNTED);
        Explorer {
            module,
            config,
            checkers,
            ws,
            frame_serial: 0,
            next_sym: 0,
            root,
            exhausted: false,
            candidates: Vec::new(),
            stats: AnalysisStats::default(),
            tel_enabled: config.telemetry,
            alias_ops: [0; ALIAS_OP_NAMES.len()],
            budget_reason: None,
            deadline: None,
            fork_stats: ForkStats::default(),
        }
    }

    /// Runs the exploration and returns its result together with the
    /// workspace, for the worker's next root.
    pub(crate) fn run(mut self) -> (ExploreResult, Workspace) {
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
        let frame = self.new_frame(self.root, None);
        self.ws.frames.push(frame);
        let entry = self.module.function(self.root).entry();
        self.ws.work.push(Task::Enter(entry));
        while let Some(task) = self.ws.work.pop() {
            match task {
                Task::Enter(block) => {
                    if self.budget_ok() {
                        self.top_frame().visited[block.index()] += 1;
                        self.ws.work.push(Task::Leave(block));
                        self.exec_from(block, 0);
                    }
                }
                Task::Resume(block, start) => self.exec_from(block, start),
                Task::Leave(block) => self.top_frame().visited[block.index()] -= 1,
                Task::Arm {
                    pred,
                    taken,
                    block,
                    succ,
                } => self.exec_arm(pred, taken, block, succ),
                Task::Undo(mark) => self.full_rollback(&mark),
                Task::Restore => {
                    let snap = self.ws.snapshots.pop().expect("snapshot");
                    self.restore_snapshot(snap);
                }
                Task::Return(frame) => self.ws.frames.push(frame),
                Task::Retire => {
                    let frame = self.ws.frames.pop().expect("frame");
                    self.ws.spare_frames.push(frame);
                }
            }
        }
        if self.exhausted {
            self.stats.budget_exhausted_roots += 1;
        }
        self.stats.roots += 1;
        let budget_note = self.budget_reason.map(|reason| BudgetNote {
            root: self.module.function(self.root).name().to_string(),
            reason: reason.to_string(),
        });
        let result = ExploreResult {
            candidates: self.candidates,
            stats: self.stats,
            alias_ops: self.alias_ops,
            budget_note,
            fork_stats: self.fork_stats,
        };
        (result, self.ws)
    }

    /// A frame for `func` returning to `ret`, with a fresh serial (see
    /// [`Frame::serial`]), built from a spare frame's buffers when there
    /// is one.
    fn new_frame(&mut self, func: FuncId, ret: Option<RetSite>) -> Frame {
        let serial = self.frame_serial;
        self.frame_serial += 1;
        let blocks = self.module.function(func).blocks().len();
        let mut frame = self.ws.spare_frames.pop().unwrap_or_else(|| Frame {
            func,
            serial,
            visited: Vec::new(),
            heap_objects: Vec::new(),
            ret,
        });
        frame.func = func;
        frame.serial = serial;
        frame.visited.clear();
        frame.visited.resize(blocks, 0);
        frame.heap_objects.clear();
        frame.ret = ret;
        frame
    }

    fn top_frame(&mut self) -> &mut Frame {
        self.ws.frames.last_mut().expect("frame")
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
            graph: self.ws.graph.mark(),
            states: self.ws.states.mark(),
            conds: self.ws.cond_journal.len(),
            syms: self.ws.sym_journal.len(),
            fptrs: self.ws.fptr_journal.len(),
            next_sym: self.next_sym,
            trace: self.ws.trace.len(),
            heap: self.ws.heap_journal.len(),
        }
    }

    fn full_rollback(&mut self, mark: &FullMark) {
        self.ws.graph.rollback(mark.graph);
        self.ws.states.rollback(mark.states);
        undo_map(
            &mut self.ws.cond_defs,
            &mut self.ws.cond_journal,
            mark.conds,
        );
        self.ws.syms.undo(&mut self.ws.sym_journal, mark.syms);
        self.ws.fptrs.undo(&mut self.ws.fptr_journal, mark.fptrs);
        self.next_sym = mark.next_sym;
        self.ws.trace.truncate(mark.trace);
        for e in self.ws.heap_journal.drain(mark.heap..).rev() {
            // An entry whose frame has since been discarded (a callee frame
            // dropped at its call site, possibly with objects its dead-end
            // paths never released) needs no undo. The serial distinguishes
            // that case from the live frame now at depth `e.depth`.
            if let Some(frame) = self.ws.frames.get_mut(e.depth as usize) {
                if frame.serial == e.serial {
                    frame.heap_objects.pop();
                }
            }
        }
    }

    /// Appends a heap object to the top frame's ownership list, journaling
    /// the push so a later [`Explorer::full_rollback`] can undo it without
    /// the mark having snapshotted any per-frame lengths.
    fn push_heap(&mut self, obj: HeapObject) {
        let depth = self.ws.frames.len() as u32 - 1;
        let frame = self.ws.frames.last_mut().expect("frame");
        self.ws.heap_journal.push(HeapPush {
            serial: frame.serial,
            depth,
        });
        frame.heap_objects.push(obj);
    }

    // ==============================================================
    // Keys, symbols, terms
    // ==============================================================

    fn key_of(&mut self, v: VarId) -> TrackKey {
        match self.config.alias_mode {
            AliasMode::PathBased => TrackKey::Node(self.ws.graph.node_of(v)),
            AliasMode::None => TrackKey::Var(v),
        }
    }

    fn sym_for(&mut self, key: TrackKey) -> SymId {
        if let Some(s) = self.ws.syms.get(key) {
            return s;
        }
        let s = SymId(self.next_sym);
        self.next_sym += 1;
        let old = self.ws.syms.insert(key, s);
        self.ws.sym_journal.push((key, old));
        s
    }

    /// Gives `key` a fresh symbol (used on variable redefinition in PATA-NA
    /// mode, where keys are variables and must be versioned explicitly; in
    /// alias mode fresh nodes provide versioning for free).
    fn fresh_sym_for(&mut self, key: TrackKey) -> SymId {
        let s = SymId(self.next_sym);
        self.next_sym += 1;
        let old = self.ws.syms.insert(key, s);
        self.ws.sym_journal.push((key, old));
        s
    }

    fn operand_leaf(&mut self, op: Operand) -> Leaf {
        match op {
            Operand::Const(c) => Leaf::Int(c.as_int()),
            Operand::Var(v) => {
                let key = self.key_of(v);
                Leaf::Sym(self.sym_for(key))
            }
        }
    }

    fn push_constraint(&mut self, rec: TraceRec) {
        self.stats.constraints_aware += 1;
        self.stats.constraints_unaware += 1;
        self.ws.trace.push(rec);
    }

    /// Records `v` as a value-read operand (UVA `use`) in the step
    /// scratch and returns its key.
    fn note_use(&mut self, v: VarId) -> TrackKey {
        let key = self.key_of(v);
        self.ws.info.use_keys.push((v, key));
        key
    }

    /// Counts what an alias-unaware encoding would have emitted for an
    /// aliasing operation on `v`: one explicit copy equality plus one
    /// implicit equality per (transitively reachable, depth-2) struct
    /// field (paper Fig. 9: `R'(p1)==R'(p2) → R'(p1->f)==R'(p2->f)`).
    fn count_unaware_alias_op(&mut self, v: VarId) {
        let fields = match self.module.var(v).ty.struct_id() {
            Some(sid) => {
                let slot = &mut self.ws.struct_fields[sid.index()];
                if *slot == UNCOUNTED {
                    *slot = unaware_fields(self.module, sid);
                }
                *slot
            }
            None => 0,
        };
        self.stats.constraints_unaware += 1 + fields;
    }

    /// Counts the per-variable state synchronizations an alias-unaware
    /// tracker would perform when `dst` joins a node carrying states
    /// (paper Fig. 8a's explicit "sync" transitions).
    fn count_unaware_sync(&mut self, key: TrackKey) {
        for c in self.checkers {
            if self.ws.states.get(c.kind().id(), key).is_some() {
                self.stats.typestates_unaware += 1;
            }
        }
    }

    // ==============================================================
    // Checker dispatch
    // ==============================================================

    /// Runs `f` on a checker context at `inst_id` and the step scratch
    /// (`ws.info`), then turns the bugs it reported into candidates.
    fn track(&mut self, inst_id: InstId, f: impl FnOnce(&mut TrackCtx, &UpdateInfo)) {
        let graph = &self.ws.graph;
        let set_size = |k: TrackKey| match k {
            TrackKey::Node(n) => graph.alias_set_size(n),
            TrackKey::Var(_) => 1,
        };
        let mut cx = TrackCtx {
            states: &mut self.ws.states,
            mode: self.config.alias_mode,
            bugs: &mut self.ws.pending,
            stats: &mut self.stats,
            set_size: &set_size,
            inst_id,
        };
        f(&mut cx, &self.ws.info);
        self.flush_pending();
    }

    /// Runs the checkers' instruction hook on `kind`, with the alias
    /// resolution the caller left in the step scratch (`ws.info`).
    fn run_checkers_inst(&mut self, kind: &InstKind, inst_id: InstId) {
        // Checker callbacks are arbitrary user code (CheckerRegistry); this
        // is the site where a misbehaving checker's panic is simulated.
        faultinject::maybe_panic(
            self.config.fault_plan.as_deref(),
            "checker",
            self.module.function(self.root).name(),
        );
        let checkers = self.checkers;
        self.track(inst_id, |cx, info| {
            for c in checkers {
                c.on_inst(cx, kind, info);
            }
        });
    }

    /// How many distinct path snapshots are kept per problematic
    /// instruction pair: one would lose a real bug whose first discovered
    /// path happens to be infeasible (the validator then sees only the
    /// unsatisfiable snapshot), while unbounded snapshots explode on loopy
    /// code. Stage 2 reports the bug if *any* kept path validates.
    const MAX_PATHS_PER_BUG: u8 = 4;

    /// Converts pending checker reports into candidates, deduplicating by
    /// problematic-instruction pair (§4 P3) *before* materializing the
    /// trace's constraints and rendering alias paths.
    fn flush_pending(&mut self) {
        while let Some(pb) = self.ws.pending.pop() {
            let count = self
                .ws
                .seen
                .entry((pb.kind, pb.origin_id, pb.site_id))
                .or_insert(0);
            if *count >= Self::MAX_PATHS_PER_BUG {
                self.stats.repeated_bugs_dropped += 1;
                continue;
            }
            *count += 1;
            self.stats.candidates += 1;
            let alias_paths = self.render_alias_paths(pb.key);
            let constraints = self.ws.trace.iter().map(TraceRec::constraint).collect();
            self.candidates
                .push(pb.into_possible(constraints, alias_paths, self.root));
        }
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
                None => info.name.to_string(),
            }
        };
        match key {
            Some(TrackKey::Node(n)) => self
                .ws
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
            self.ws.states.clear(c.kind().id(), TrackKey::Var(dst));
        }
        self.fresh_sym_for(TrackKey::Var(dst));
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
    /// over.
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
        let frame = self.ws.frames.last().expect("frame");
        frame.visited[block.index()] < limit
    }

    /// Runs `block` of the top frame from instruction `start` through its
    /// terminator, or up to an inlined call.
    fn exec_from(&mut self, block: BlockId, start: usize) {
        let func = self.top_frame().func;
        let b = self.module.function(func).block(block);
        for i in start..b.insts.len() {
            if !self.budget_ok() {
                return;
            }
            self.stats.insts_processed += 1;
            let inst_id = InstId {
                func,
                block,
                inst: i,
            };
            if self.apply_inst(inst_id, &b.insts[i]) {
                return; // the rest runs when the callee returns
            }
        }
        self.stats.insts_processed += 1;
        self.exec_terminator(func, block);
    }

    fn exec_terminator(&mut self, func: FuncId, block: BlockId) {
        let f = self.module.function(func);
        let b = f.block(block);
        let term_id = InstId {
            func,
            block,
            inst: b.insts.len(),
        };
        match b.term.clone() {
            Terminator::Jump(target) => {
                if !self.may_enter(target) {
                    // Loop cut reached: the path ends here (§3.1).
                    self.path_end();
                } else {
                    self.ws.work.push(Task::Enter(target));
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
                let pred = self.ws.cond_defs.get(&cond).copied();
                let mut any = false;
                // The else-arm is pushed first, so the then-arm runs first.
                // An arm undoes everything it does, so whether the else-arm
                // may run is the same before the then-arm as after it.
                for (succ, taken) in [(else_bb, false), (then_bb, true)] {
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
                    self.ws.work.push(Task::Arm {
                        pred,
                        taken,
                        block,
                        succ,
                    });
                }
                if !any {
                    self.path_end();
                }
            }
            Terminator::Ret(value) => {
                self.handle_ret(value, term_id);
            }
            Terminator::Unreachable => {
                self.path_end();
            }
        }
    }

    /// One successor of `block`'s branch: fork, assert the effective
    /// predicate, then enter `succ`. The fork is undone once the arm's
    /// last task has run. After a budget trip the arm does nothing: it
    /// could not enter `succ`, and its fork would only be undone.
    fn exec_arm(&mut self, pred: Option<PredDef>, taken: bool, block: BlockId, succ: BlockId) {
        if self.exhausted {
            return;
        }
        let cow = self.config.cow_state;
        if self.tel_enabled {
            self.note_fork(cow);
        }
        if cow {
            // Copy-on-write fork: a fixed-size mark; sibling arms restore
            // by journal rollback, O(changed).
            let mark = self.full_mark();
            self.ws.work.push(Task::Undo(mark));
        } else {
            // Literal COPY semantics (paper Fig. 7): deep-clone the live
            // state, restore by move-assignment. The measured baseline and
            // differential oracle for the journaled mode.
            let snap = self.clone_snapshot();
            self.ws.snapshots.push(snap);
            self.ws.work.push(Task::Restore);
        }
        if let Some(p) = pred {
            let func = self.top_frame().func;
            let b = self.module.function(func).block(block);
            let term_id = InstId {
                func,
                block,
                inst: b.insts.len(),
            };
            self.assert_branch(p, taken, term_id);
        }
        self.ws.work.push(Task::Enter(succ));
    }

    /// Tallies one branch-arm fork into the `driver.explore.fork.*` family:
    /// what this fork materializes (a fixed-size mark in CoW mode, a deep
    /// clone otherwise), what stays shared, and the journal depth at the
    /// fork point. Only called when telemetry is enabled.
    fn note_fork(&mut self, cow: bool) {
        let journal_depth = (self.ws.graph.journal_len()
            + self.ws.states.journal_len()
            + self.ws.cond_journal.len()
            + self.ws.sym_journal.len()
            + self.ws.fptr_journal.len()
            + self.ws.heap_journal.len()) as u64;
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
        self.ws.graph.approx_bytes()
            + self.ws.states.approx_bytes()
            + (self.ws.cond_defs.len() * size_of::<(VarId, PredDef)>()) as u64
            + (self.ws.cond_journal.len() * size_of::<(VarId, Option<PredDef>)>()) as u64
            + (self.ws.syms.len() * size_of::<(TrackKey, SymId)>()) as u64
            + (self.ws.sym_journal.len() * size_of::<(TrackKey, Option<SymId>)>()) as u64
            + (self.ws.fptrs.len() * size_of::<(TrackKey, FuncId)>()) as u64
            + (self.ws.fptr_journal.len() * size_of::<(TrackKey, Option<FuncId>)>()) as u64
            + (self.ws.heap_journal.len() * size_of::<HeapPush>()) as u64
            // A trace record stands for one `Constraint`; it is counted
            // at that size, so the estimate (and a `--max-live-bytes`
            // trip) does not depend on how the trace is stored.
            + (self.ws.trace.len() * size_of::<Constraint>()) as u64
            // A frame counts without its return site: that is where the
            // walk goes next, like the work stack, not path state, so the
            // estimate does not depend on where the walk keeps it.
            + (self.ws.frames.len() * (size_of::<Frame>() - size_of::<Option<RetSite>>())) as u64
            + self.ws.frames.iter().map(Frame::approx_bytes).sum::<u64>()
    }

    /// Deep-copies every forkable structure (clone-fork mode).
    fn clone_snapshot(&self) -> CloneSnapshot {
        CloneSnapshot {
            graph: self.ws.graph.clone(),
            states: self.ws.states.clone(),
            cond_defs: self.ws.cond_defs.clone(),
            cond_journal: self.ws.cond_journal.clone(),
            syms: self.ws.syms.clone(),
            sym_journal: self.ws.sym_journal.clone(),
            fptrs: self.ws.fptrs.clone(),
            fptr_journal: self.ws.fptr_journal.clone(),
            heap_journal: self.ws.heap_journal.clone(),
            next_sym: self.next_sym,
            trace: self.ws.trace.clone(),
            frames: self.ws.frames.clone(),
        }
    }

    /// Restores a clone-fork snapshot by move-assignment. Journals are
    /// restored to their fork-time prefixes, exactly as under rollback, so
    /// the journal-depth telemetry and the live-bytes estimate agree across
    /// both fork modes.
    fn restore_snapshot(&mut self, snap: CloneSnapshot) {
        self.ws.graph = snap.graph;
        self.ws.states = snap.states;
        self.ws.cond_defs = snap.cond_defs;
        self.ws.cond_journal = snap.cond_journal;
        self.ws.syms = snap.syms;
        self.ws.sym_journal = snap.sym_journal;
        self.ws.fptrs = snap.fptrs;
        self.ws.fptr_journal = snap.fptr_journal;
        self.ws.heap_journal = snap.heap_journal;
        self.next_sym = snap.next_sym;
        self.ws.trace = snap.trace;
        self.ws.frames = snap.frames;
    }

    fn assert_branch(&mut self, p: PredDef, taken: bool, inst_id: InstId) {
        // Normalize the variable (if any) to the lhs.
        let (mut op, mut lhs, mut rhs) = (p.op, p.lhs, p.rhs);
        if lhs.as_var().is_none() && rhs.as_var().is_some() {
            std::mem::swap(&mut lhs, &mut rhs);
            op = op.swap();
        }
        let eff_op = if taken { op } else { op.negate() };

        // Table 3: brt(e) / brf(e) constraints.
        let lt = self.operand_leaf(lhs);
        let rt = self.operand_leaf(rhs);
        self.push_constraint(TraceRec::cmp(to_smt_op(eff_op), lt, rt));

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
            inst_id,
        };
        let checkers = self.checkers;
        self.track(inst_id, |cx, _| {
            for c in checkers {
                c.on_branch(cx, &ev);
            }
        });
    }

    fn handle_ret(&mut self, value: Option<Operand>, inst_id: InstId) {
        // Frame-end events (memory-leak finalization).
        let ret_val_key = match value {
            Some(Operand::Var(v)) => Some(self.key_of(v)),
            _ => None,
        };
        let frame_objects = std::mem::take(&mut self.top_frame().heap_objects);
        let ev = FrameEndEvent {
            heap_objects: &frame_objects,
            ret_val_key,
            inst_id,
        };
        let checkers = self.checkers;
        self.track(inst_id, |cx, _| {
            for c in checkers {
                c.on_frame_end(cx, &ev);
            }
        });
        self.top_frame().heap_objects = frame_objects;

        // UVA `use` of the returned value.
        if let Some(Operand::Var(v)) = value {
            self.ws.info.clear();
            self.note_use(v);
            // Reuse the Move shape so checkers treat it as a plain use.
            let kind = InstKind::Move { dst: v, src: v };
            self.run_checkers_inst(&kind, inst_id);
        }

        let Some(ret) = self.top_frame().ret else {
            // Root return: the path is complete.
            self.path_end();
            return;
        };

        // Return into the caller, which runs on with the callee's frame
        // off the stack; the frame goes back afterwards for the callee's
        // remaining paths.
        let frame = self.ws.frames.pop().expect("frame");
        if let Some(dst) = ret.dst {
            self.bind_value(dst, value, inst_id);
            // Re-own heap objects transferred by `return p` (ML RETURNED →
            // SNF in the caller's frame).
            let dst_key = self.key_of(dst);
            let ml_id = crate::checkers::BugKind::MemoryLeak.id();
            if let Some(entry) = self.ws.states.get(ml_id, dst_key) {
                if entry.state == ml::S_RETURNED {
                    self.track(inst_id, |cx, _| {
                        cx.transition(ml_id, dst_key, ml::S_NF, Some(entry))
                    });
                    self.push_heap(HeapObject {
                        key: dst_key,
                        inst_id: entry.origin_id,
                    });
                }
            }
        }
        self.ws.work.push(Task::Return(frame));
        self.ws.work.push(Task::Resume(ret.block, ret.next_inst));
    }

    /// Binds `value` into `dst` as the paper's return-MOVE (Fig. 6 line 20).
    fn bind_value(&mut self, dst: VarId, value: Option<Operand>, inst_id: InstId) {
        match value {
            Some(Operand::Var(src)) => {
                self.na_clear_def(dst);
                let (dk, sk) = match self.config.alias_mode {
                    AliasMode::PathBased => {
                        let n = self.ws.graph.handle_move(dst, src);
                        self.count_unaware_alias_op(src);
                        self.count_unaware_sync(nkey(n));
                        (nkey(n), nkey(n))
                    }
                    AliasMode::None => {
                        let dk = TrackKey::Var(dst);
                        let sk = TrackKey::Var(src);
                        let d = self.sym_for(dk);
                        let s = self.sym_for(sk);
                        self.push_constraint(TraceRec::cmp(SmtOp::Eq, Leaf::Sym(d), Leaf::Sym(s)));
                        (dk, sk)
                    }
                };
                let info = &mut self.ws.info;
                info.clear();
                info.dst_key = Some(dk);
                info.move_pair = Some((dk, sk));
                let kind = InstKind::Move { dst, src };
                self.run_checkers_inst(&kind, inst_id);
            }
            Some(Operand::Const(c)) => {
                self.na_clear_def(dst);
                let key = match self.config.alias_mode {
                    AliasMode::PathBased => nkey(self.ws.graph.handle_const(dst)),
                    AliasMode::None => TrackKey::Var(dst),
                };
                let s = self.sym_for(key);
                self.push_constraint(TraceRec::cmp(
                    SmtOp::Eq,
                    Leaf::Sym(s),
                    Leaf::Int(c.as_int()),
                ));
                self.ws.info.clear();
                self.ws.info.dst_key = Some(key);
                let kind = InstKind::Const { dst, value: c };
                self.run_checkers_inst(&kind, inst_id);
            }
            None => {
                // void return into a destination: havoc.
                self.na_clear_def(dst);
                if self.config.alias_mode == AliasMode::PathBased {
                    self.ws.graph.handle_const(dst);
                }
            }
        }
    }

    // ==============================================================
    // Instructions
    // ==============================================================

    /// Applies one instruction; returns whether it was a call the
    /// explorer inlined (see [`Explorer::apply_call`]).
    fn apply_inst(&mut self, inst_id: InstId, inst: &Inst) -> bool {
        let alias = self.config.alias_mode == AliasMode::PathBased;
        if let InstKind::Call { dst, callee, args } = &inst.kind {
            return self.apply_call(inst_id, *dst, *callee, args, &inst.kind);
        }
        // The step scratch is filled in place: `clear` keeps the
        // `use_keys`/`escape_keys` capacity, and nothing is moved.
        self.ws.info.clear();
        match &inst.kind {
            InstKind::Move { dst, src } => {
                self.note_use(*src);
                self.na_clear_def(*dst);
                let (dk, sk) = if alias {
                    self.tally_alias_op(0);
                    let n = self.ws.graph.handle_move(*dst, *src);
                    self.count_unaware_alias_op(*src);
                    self.count_unaware_sync(nkey(n));
                    (nkey(n), nkey(n))
                } else {
                    let dk = TrackKey::Var(*dst);
                    let sk = TrackKey::Var(*src);
                    let d = self.sym_for(dk);
                    let s = self.sym_for(sk);
                    self.push_constraint(TraceRec::cmp(SmtOp::Eq, Leaf::Sym(d), Leaf::Sym(s)));
                    (dk, sk)
                };
                self.ws.info.dst_key = Some(dk);
                self.ws.info.move_pair = Some((dk, sk));
            }
            InstKind::Const { dst, value } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    self.tally_alias_op(1);
                    nkey(self.ws.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                let s = self.sym_for(key);
                self.push_constraint(TraceRec::cmp(
                    SmtOp::Eq,
                    Leaf::Sym(s),
                    Leaf::Int(value.as_int()),
                ));
                self.ws.info.dst_key = Some(key);
            }
            InstKind::Load { dst, addr } => {
                self.ws.info.deref_key = Some(self.note_use(*addr));
                self.na_clear_def(*dst);
                let key = if alias {
                    self.tally_alias_op(2);
                    let n = self.ws.graph.handle_load(*dst, *addr);
                    self.count_unaware_alias_op(*dst);
                    self.count_unaware_sync(nkey(n));
                    nkey(n)
                } else {
                    TrackKey::Var(*dst)
                };
                self.ws.info.dst_key = Some(key);
            }
            InstKind::Store { addr, val } => {
                self.ws.info.deref_key = Some(self.note_use(*addr));
                if let Operand::Var(v) = val {
                    self.note_use(*v);
                }
                if alias {
                    self.tally_alias_op(3);
                    match val {
                        Operand::Var(v) => {
                            // A stored function pointer keeps its binding:
                            // the value's node IS the new deref target, so
                            // the fptr map needs no update in alias mode.
                            let si = self.ws.graph.handle_store(*addr, *v);
                            self.count_unaware_alias_op(*v);
                            self.ws.info.stored_val_key = Some(nkey(si.new_target));
                            self.ws.info.store_old_target = si.old_target.map(nkey);
                        }
                        Operand::Const(c) => {
                            let si = self.ws.graph.handle_store_const(*addr);
                            let key = nkey(si.new_target);
                            let s = self.sym_for(key);
                            self.push_constraint(TraceRec::cmp(
                                SmtOp::Eq,
                                Leaf::Sym(s),
                                Leaf::Int(c.as_int()),
                            ));
                            self.ws.info.stored_const = Some((key, *c));
                            self.ws.info.store_old_target = si.old_target.map(nkey);
                        }
                    }
                }
            }
            InstKind::Gep { dst, base, field } => {
                self.ws.info.deref_key = Some(self.note_use(*base));
                self.na_clear_def(*dst);
                let key = if alias {
                    self.tally_alias_op(4);
                    let n = self.ws.graph.handle_gep(*dst, *base, *field);
                    self.count_unaware_alias_op(*dst);
                    self.count_unaware_sync(nkey(n));
                    nkey(n)
                } else {
                    TrackKey::Var(*dst)
                };
                self.ws.info.dst_key = Some(key);
            }
            InstKind::AddrOf { dst, src } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    self.tally_alias_op(5);
                    let n = self.ws.graph.handle_addr_of(*dst, *src);
                    self.count_unaware_alias_op(*dst);
                    nkey(n)
                } else {
                    TrackKey::Var(*dst)
                };
                self.ws.info.dst_key = Some(key);
            }
            InstKind::Index { dst, base, index } => {
                self.ws.info.deref_key = Some(self.note_use(*base));
                if let Operand::Var(v) = index {
                    self.ws.info.index_key = Some(self.note_use(*v));
                }
                self.ws.info.index_const = index.as_const().map(|c| c.as_int());
                self.na_clear_def(*dst);
                let key = if alias {
                    // Element access paths are keyed by the index operand
                    // (paper §5.2: array-insensitive access paths).
                    let label = match index {
                        Operand::Const(c) => Label::ElemConst(c.as_int()),
                        Operand::Var(v) => Label::ElemVar(v.index() as u32),
                    };
                    self.tally_alias_op(6);
                    let n = self.ws.graph.handle_index(*dst, *base, label);
                    self.count_unaware_alias_op(*dst);
                    nkey(n)
                } else {
                    TrackKey::Var(*dst)
                };
                self.ws.info.dst_key = Some(key);
            }
            InstKind::Bin { dst, op, lhs, rhs } => {
                for o in [lhs, rhs] {
                    if let Operand::Var(v) = o {
                        self.note_use(*v);
                    }
                }
                if op.traps_on_zero() {
                    if let Operand::Var(v) = rhs {
                        self.ws.info.divisor_key = Some(self.key_of(*v));
                    }
                    self.ws.info.divisor_const = rhs.as_const().map(|c| c.as_int());
                }
                let lt = self.operand_leaf(*lhs);
                let rt = self.operand_leaf(*rhs);
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.ws.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                let s = self.sym_for(key);
                self.push_constraint(TraceRec::bin_def(s, *op, lt, rt));
                self.ws.info.dst_key = Some(key);
            }
            InstKind::Cmp { dst, op, lhs, rhs } => {
                for o in [lhs, rhs] {
                    if let Operand::Var(v) = o {
                        self.note_use(*v);
                    }
                }
                // Remember the predicate for the branch that consumes dst.
                let old = self.ws.cond_defs.insert(
                    *dst,
                    PredDef {
                        op: *op,
                        lhs: *lhs,
                        rhs: *rhs,
                    },
                );
                self.ws.cond_journal.push((*dst, old));
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.ws.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                self.ws.info.dst_key = Some(key);
            }
            InstKind::Call { .. } => unreachable!("calls are delegated above"),
            InstKind::FuncAddr { dst, func: target } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.ws.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                let old = self.ws.fptrs.insert(key, *target);
                self.ws.fptr_journal.push((key, old));
                self.ws.info.dst_key = Some(key);
            }
            InstKind::Alloca { dst, .. } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.ws.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                self.ws.info.dst_key = Some(key);
            }
            InstKind::Malloc { dst } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.ws.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                self.ws.info.dst_key = Some(key);
                self.push_heap(HeapObject { key, inst_id });
            }
            InstKind::Free { ptr } => {
                self.ws.info.free_key = Some(self.note_use(*ptr));
            }
            InstKind::Memset { ptr } => {
                self.ws.info.deref_key = Some(self.note_use(*ptr));
            }
            InstKind::Lock { obj } | InstKind::Unlock { obj } => {
                self.ws.info.lock_key = Some(self.note_use(*obj));
            }
        }
        self.run_checkers_inst(&inst.kind, inst_id);
        false
    }

    /// Applies a call. Returns `true` when the callee is inlined: its
    /// frame is pushed and its entry is on the work stack, and the rest of
    /// the caller's block runs when the callee returns.
    fn apply_call(
        &mut self,
        inst_id: InstId,
        dst: Option<VarId>,
        callee: Callee,
        args: &[Operand],
        kind: &InstKind,
    ) -> bool {
        self.ws.info.clear();
        for a in args {
            if let Operand::Var(v) = a {
                self.note_use(*v);
            }
        }

        // §7 extension: an indirect call whose function pointer's alias set
        // is pinned to a FuncAddr along this path resolves like a direct
        // call (e.g. `d->ops = my_handler; … d->ops(d);`).
        let effective = match callee {
            Callee::Indirect(v) if self.config.resolve_fptrs => {
                let key = self.key_of(v);
                match self.ws.fptrs.get(key) {
                    Some(f) => Callee::Direct(f),
                    None => callee,
                }
            }
            other => other,
        };
        let inline_target = match effective {
            Callee::Direct(f)
                if !self.ws.frames.iter().any(|frame| frame.func == f)
                    && self.ws.frames.len() < self.config.budget.max_call_depth =>
            {
                Some(f)
            }
            _ => None,
        };

        let Some(f) = inline_target else {
            // Opaque call (external, indirect, recursion cut, depth cap):
            // pointer arguments escape; the result is havoced.
            for a in args {
                if let Operand::Var(v) = a {
                    if self.module.var(*v).ty.is_pointer() {
                        let key = self.key_of(*v);
                        self.ws.info.escape_keys.push(key);
                    }
                }
            }
            if let Some(d) = dst {
                self.na_clear_def(d);
                let key = if self.config.alias_mode == AliasMode::PathBased {
                    nkey(self.ws.graph.handle_const(d))
                } else {
                    TrackKey::Var(d)
                };
                self.ws.info.dst_key = Some(key);
            }
            // Dispatch on the original instruction — no rebuilt `InstKind`
            // (the old path cloned the argument vector just to hand the
            // checkers a value identical to `kind`).
            self.run_checkers_inst(kind, inst_id);
            return false;
        };

        // Report uses (e.g. passing an uninitialized value) before binding.
        self.run_checkers_inst(kind, inst_id);

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
            self.bind_value(param, Some(arg), inst_id);
        }

        let ret = RetSite {
            block: inst_id.block,
            next_inst: inst_id.inst + 1,
            dst,
        };
        let frame = self.new_frame(f, Some(ret));
        self.ws.frames.push(frame);
        self.ws.work.push(Task::Retire);
        self.ws.work.push(Task::Enter(module.function(f).entry()));
        true
    }
}

fn nkey(n: NodeId) -> TrackKey {
    TrackKey::Node(n)
}

/// Pops `journal` back to `len`, restoring each popped key's old value in
/// `map` (the undo half of the path-local map journals).
fn undo_map<K: Hash + Eq, V>(
    map: &mut FxHashMap<K, V>,
    journal: &mut Vec<(K, Option<V>)>,
    len: usize,
) {
    for (k, old) in journal.drain(len..).rev() {
        match old {
            Some(v) => map.insert(k, v),
            None => map.remove(&k),
        };
    }
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
    /// bugs on some paths: every forkable structure (graph, states,
    /// cond/sym/fptr maps, frames, visit counts, heap objects, return
    /// sites) is exercised, and both fork directions carry different
    /// state.
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

    /// Explores `root` in a fresh workspace.
    fn explore(
        module: &Module,
        config: &AnalysisConfig,
        checkers: &[Box<dyn Checker>],
        root: FuncId,
    ) -> ExploreResult {
        Explorer::with_workspace(module, config, checkers, root, Workspace::default())
            .run()
            .0
    }

    /// Every trace-record shape builds exactly the constraint the explorer
    /// used to push directly: leaf comparisons and each `BinOp` definition.
    #[test]
    fn trace_records_materialize_the_pushed_constraints() {
        use pata_ir::BinOp as B;
        use pata_smt::OpaqueOp as O;
        let (x, y, z) = (SymId(3), SymId(7), SymId(9));
        let b = |t: Term| Box::new(t);
        let (sx, sy, sz) = (Term::Sym(x), Term::Sym(y), Term::Sym(z));
        // Leaf shapes: branch conditions, copies and constant definitions.
        for op in [
            SmtOp::Eq,
            SmtOp::Ne,
            SmtOp::Lt,
            SmtOp::Le,
            SmtOp::Gt,
            SmtOp::Ge,
        ] {
            let rec = TraceRec::cmp(op, Leaf::Sym(x), Leaf::Int(-4));
            assert_eq!(
                rec.constraint(),
                Constraint {
                    op,
                    lhs: sx.clone(),
                    rhs: Term::Const(-4)
                }
            );
            let rec = TraceRec::cmp(op, Leaf::Sym(x), Leaf::Sym(y));
            assert_eq!(rec.constraint().rhs, sy.clone());
        }
        // `Bin` definitions: `z == x op y`, and with a constant operand.
        let expected = |op: B, l: Term, r: Term| match op {
            B::Add => Term::Add(b(l), b(r)),
            B::Sub => Term::Sub(b(l), b(r)),
            B::Mul => Term::Mul(b(l), b(r)),
            B::Div => Term::Opaque(O::Div, b(l), b(r)),
            B::Rem => Term::Opaque(O::Rem, b(l), b(r)),
            B::And => Term::Opaque(O::And, b(l), b(r)),
            B::Or => Term::Opaque(O::Or, b(l), b(r)),
            B::Xor => Term::Opaque(O::Xor, b(l), b(r)),
            B::Shl => Term::Opaque(O::Shl, b(l), b(r)),
            B::Shr => Term::Opaque(O::Shr, b(l), b(r)),
        };
        for op in [
            B::Add,
            B::Sub,
            B::Mul,
            B::Div,
            B::Rem,
            B::And,
            B::Or,
            B::Xor,
            B::Shl,
            B::Shr,
        ] {
            let rec = TraceRec::bin_def(z, op, Leaf::Sym(x), Leaf::Sym(y));
            let want = Constraint::new(SmtOp::Eq, sz.clone(), expected(op, sx.clone(), sy.clone()));
            assert_eq!(rec.constraint(), want, "{op:?}");
            let rec = TraceRec::bin_def(z, op, Leaf::Int(5), Leaf::Sym(y));
            let want = Constraint::new(
                SmtOp::Eq,
                sz.clone(),
                expected(op, Term::Const(5), sy.clone()),
            );
            assert_eq!(rec.constraint(), want, "{op:?} with a constant operand");
        }
    }

    /// A worker fills a struct's alias-unaware field count on its first
    /// use; every entry it filled equals the table computed eagerly over
    /// the whole module.
    #[test]
    fn lazily_counted_struct_fields_equal_the_eager_table() {
        let config = AnalysisConfig::default();
        let corpus =
            pata_corpus::Corpus::generate(&pata_corpus::OsProfile::linux().with_scale(0.2));
        let mut cc = pata_cc::Compiler::new();
        for f in &corpus.files {
            cc.add_source(&f.path, &f.text);
        }
        let mut module = cc.compile().unwrap();
        let checkers: Vec<Box<dyn Checker>> =
            config.checkers.iter().map(|k| k.instantiate()).collect();
        let roots = crate::collector::mark_interfaces(&mut module);
        let eager: Vec<u64> = module
            .structs()
            .iter()
            .map(|def| {
                let inner: usize = def
                    .fields
                    .iter()
                    .filter_map(|(_, fty)| fty.struct_id())
                    .map(|id| module.struct_def(id).field_count())
                    .sum();
                (def.field_count() + inner) as u64
            })
            .collect();
        let mut ws = Workspace::default();
        for &root in &roots {
            ws = Explorer::with_workspace(&module, &config, &checkers, root, ws)
                .run()
                .1;
        }
        let filled: Vec<(usize, u64)> = ws
            .struct_fields
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, n)| n != UNCOUNTED)
            .collect();
        assert!(filled.len() > 5, "{} structs counted", filled.len());
        for (sid, n) in filled {
            assert_eq!(n, eager[sid], "struct {sid}");
        }
    }

    /// One workspace carried across every root of the diamond module:
    /// candidates and stats match fresh explorers root for root, and a
    /// reset leaves no variable placed, however many roots ran before.
    #[test]
    fn reused_workspace_matches_fresh_explorers_and_resets_clean() {
        let config = AnalysisConfig::default();
        let mut module = pata_cc::compile_one("d.c", DIAMOND_SRC).unwrap();
        let checkers: Vec<Box<dyn Checker>> =
            config.checkers.iter().map(|k| k.instantiate()).collect();
        let roots = crate::collector::mark_interfaces(&mut module);
        let mut ws = Workspace::default();
        for _ in 0..2 {
            for &root in &roots {
                let fresh = explore(&module, &config, &checkers, root);
                let (reused, back) =
                    Explorer::with_workspace(&module, &config, &checkers, root, ws).run();
                assert_eq!(
                    format!("{:?}", reused.candidates),
                    format!("{:?}", fresh.candidates)
                );
                assert_eq!(reused.stats, fresh.stats);
                ws = back;
            }
        }
        assert!(
            ws.graph.node_count() > 0,
            "the last root leaves its base path"
        );
        let capacity = ws.capacity();
        ws.reset();
        assert!(ws.capacity() >= capacity, "a reset frees no buffer");
        assert_eq!(ws.graph.node_count(), 0);
        for i in 0..module.var_count() {
            assert_eq!(ws.graph.node_of_var(VarId::from_index(i)), None);
        }
        assert!(ws.states.is_empty() && ws.syms.is_empty() && ws.trace.is_empty());
        assert!(ws.frames.is_empty() && !ws.spare_frames.is_empty());
    }

    /// The workspace's symbol and function-pointer maps against hash-map
    /// references, written and undone the way the explorer does (a write
    /// journals the old value, a rollback undoes to a journal length), over
    /// seeded sequences that mix dense and sparse nodes with variables.
    /// After every step each touched key reads the same and `len()`
    /// matches; a workspace reset leaves every dense slot empty, keeps its
    /// buffers, and [`Workspace::capacity`] counts them.
    #[test]
    fn workspace_key_maps_match_a_hash_map_model() {
        use crate::typestate::tests::model_key;
        type Model<V> = (FxHashMap<TrackKey, V>, Vec<(TrackKey, Option<V>)>);
        fn undo<V>(model: &mut Model<V>, len: usize) {
            for (k, old) in model.1.drain(len..).rev() {
                match old {
                    Some(v) => model.0.insert(k, v),
                    None => model.0.remove(&k),
                };
            }
        }
        for seed in 0..8u64 {
            let mut rng = pata_corpus::Prng::seed_from_u64(seed);
            let mut ws = Workspace::default();
            assert_eq!(ws.capacity(), 0, "a new workspace holds no buffer");
            let mut syms: Model<SymId> = Default::default();
            let mut fptrs: Model<FuncId> = Default::default();
            let mut marks: Vec<(usize, usize)> = Vec::new();
            let mut touched: Vec<TrackKey> = Vec::new();
            for step in 0..2_000u32 {
                let key = model_key(&mut rng);
                match rng.gen_range(0, 100) {
                    0..=34 => {
                        let s = SymId(step);
                        let old = ws.syms.insert(key, s);
                        ws.sym_journal.push((key, old));
                        syms.1.push((key, syms.0.insert(key, s)));
                        assert_eq!(old, syms.1.last().unwrap().1);
                    }
                    35..=54 => {
                        let f = FuncId::from_index(rng.gen_range(0, 9));
                        let old = ws.fptrs.insert(key, f);
                        ws.fptr_journal.push((key, old));
                        fptrs.1.push((key, fptrs.0.insert(key, f)));
                        assert_eq!(old, fptrs.1.last().unwrap().1);
                    }
                    55..=69 => {
                        assert_eq!(ws.syms.get(key), syms.0.get(&key).copied());
                        assert_eq!(ws.fptrs.get(key), fptrs.0.get(&key).copied());
                    }
                    70..=82 => marks.push((ws.sym_journal.len(), ws.fptr_journal.len())),
                    83..=96 => {
                        if !marks.is_empty() {
                            let i = rng.gen_range(0, marks.len());
                            let (s, f) = marks[i];
                            marks.truncate(i);
                            ws.syms.undo(&mut ws.sym_journal, s);
                            ws.fptrs.undo(&mut ws.fptr_journal, f);
                            undo(&mut syms, s);
                            undo(&mut fptrs, f);
                        }
                    }
                    _ => {
                        let capacity = ws.capacity();
                        ws.reset();
                        undo(&mut syms, 0);
                        undo(&mut fptrs, 0);
                        marks.clear();
                        assert!(ws.capacity() >= capacity, "a reset frees no buffer");
                        assert!(ws.syms.is_empty() && ws.fptrs.is_empty());
                        assert!(ws.syms.node_slots().iter().all(Option::is_none));
                        assert!(ws.fptrs.node_slots().iter().all(Option::is_none));
                    }
                }
                if !touched.contains(&key) {
                    touched.push(key);
                }
                for &k in &touched {
                    assert_eq!(ws.syms.get(k), syms.0.get(&k).copied(), "seed {seed}");
                    assert_eq!(ws.fptrs.get(k), fptrs.0.get(&k).copied(), "seed {seed}");
                }
                assert_eq!(ws.syms.len(), syms.0.len(), "seed {seed}, step {step}");
                assert_eq!(ws.fptrs.len(), fptrs.0.len(), "seed {seed}, step {step}");
            }
            assert!(ws.capacity() > 0, "the maps' buffers are counted");
        }
    }

    fn explore_all(config: &AnalysisConfig) -> (usize, u64, ForkStats) {
        let mut module = pata_cc::compile_one("d.c", DIAMOND_SRC).unwrap();
        let checkers: Vec<Box<dyn Checker>> =
            config.checkers.iter().map(|k| k.instantiate()).collect();
        let roots = crate::collector::mark_interfaces(&mut module);
        assert!(!roots.is_empty());
        let mut candidates = 0;
        let mut paths = 0;
        let mut forks = ForkStats::default();
        for root in roots {
            let result = explore(&module, config, &checkers, root);
            candidates += result.candidates.len();
            paths += result.stats.paths_explored;
            forks.merge(&result.fork_stats);
        }
        (candidates, paths, forks)
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
        let (c1, p1, f1) = explore_all(&cow);
        let (c2, p2, f2) = explore_all(&clone);
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
