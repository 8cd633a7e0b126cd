//! Alias-aware typestate tracking (paper §3.2).
//!
//! A typestate property is an FSM (Definition 2); *all variables in the same
//! alias set share one state* (Definition 3), which is the paper's key cost
//! reduction: `Sm : AS → S` is realized here as a state table keyed by
//! alias-graph node. In the PATA-NA sensitivity mode (Table 6) the key
//! degrades to the variable itself, reproducing traditional per-variable
//! typestate tracking.

use crate::alias::NodeId;
use crate::checkers::BugKind;
use crate::config::AliasMode;
use crate::fingerprint::FxHashMap;
use crate::report::PossibleBug;
use crate::stats::AnalysisStats;
use pata_ir::{InstId, VarId};

/// What a typestate (or SMT symbol) is attached to.
///
/// * [`TrackKey::Node`] — an alias set (one abstract object); the paper's
///   alias-aware mode.
/// * [`TrackKey::Var`] — a single variable; the PATA-NA baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrackKey {
    /// An alias-graph node (alias-aware).
    Node(NodeId),
    /// A plain variable (alias-unaware / PATA-NA).
    Var(VarId),
}

/// A state value within one checker's FSM. `0` is reserved for the initial
/// state `S0` and is represented by *absence* from the table.
pub type StateVal = u8;

/// One tracked state with provenance for bug reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateEntry {
    /// The checker-specific state value.
    pub state: StateVal,
    /// The instruction that established the state (e.g. the `if (!p)`
    /// branch).
    pub origin_id: InstId,
}

/// A map keyed by [`TrackKey`] with no hashing on the alias-aware path.
///
/// Alias-graph nodes are dense per-root indices, so [`TrackKey::Node`]
/// keys index a vector directly; [`TrackKey::Var`] keys (PATA-NA only)
/// are module-wide variable ids and stay in a hash map, so the vector is
/// never sized by the module. The vector only grows: a rollback writes
/// `None` back into the slots it undoes, so emptying the map costs what
/// was written, not the highest index ever used. `len` counts live
/// entries in both halves, so size estimates read what the path holds,
/// not the buffers kept for reuse.
#[derive(Debug, Clone)]
pub(crate) struct KeyMap<V> {
    nodes: Vec<Option<V>>,
    vars: FxHashMap<VarId, V>,
    len: usize,
}

impl<V> Default for KeyMap<V> {
    fn default() -> Self {
        KeyMap {
            nodes: Vec::new(),
            vars: FxHashMap::default(),
            len: 0,
        }
    }
}

impl<V: Copy> KeyMap<V> {
    /// The value at `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: TrackKey) -> Option<V> {
        match key {
            TrackKey::Node(n) => self.nodes.get(n.index()).copied().flatten(),
            TrackKey::Var(v) => self.vars.get(&v).copied(),
        }
    }

    /// Sets `key` to `value`, returning the previous value.
    #[inline]
    pub(crate) fn insert(&mut self, key: TrackKey, value: V) -> Option<V> {
        let old = match key {
            TrackKey::Node(n) => {
                let i = n.index();
                if i >= self.nodes.len() {
                    self.nodes.resize(i + 1, None);
                }
                self.nodes[i].replace(value)
            }
            TrackKey::Var(v) => self.vars.insert(v, value),
        };
        // A branch, not `+= usize::from(..)`: rustc 1.95.0 miscompiled
        // that shape in the lexer's release build.
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes `key`, returning its value.
    #[inline]
    pub(crate) fn remove(&mut self, key: TrackKey) -> Option<V> {
        let old = match key {
            TrackKey::Node(n) => self.nodes.get_mut(n.index()).and_then(Option::take),
            TrackKey::Var(v) => self.vars.remove(&v),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Pops `journal` back to `len`, putting each popped key's old value
    /// back (the undo half of a path-local map journal).
    pub(crate) fn undo(&mut self, journal: &mut Vec<(TrackKey, Option<V>)>, len: usize) {
        for (key, old) in journal.drain(len..).rev() {
            match old {
                Some(v) => self.insert(key, v),
                None => self.remove(key),
            };
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no key has a value.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements of buffer capacity held, live or not.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.nodes.capacity() + self.vars.capacity()
    }

    /// The dense node slots, for tests that check a reset left none set.
    #[cfg(test)]
    pub(crate) fn node_slots(&self) -> &[Option<V>] {
        &self.nodes
    }
}

/// Journal-backed state storage shared by all checkers.
///
/// Mirrors [`crate::alias::AliasGraph`]'s mark/rollback protocol so the path
/// explorer can backtrack states and alias information in lockstep. Each
/// checker id has its own [`KeyMap`], so a lookup is two vector indexings
/// in the alias-aware mode.
#[derive(Debug, Default, Clone)]
pub struct StateTable {
    /// Indexed by checker id ([`BugKind::id`] for the built-in checkers),
    /// grown on a checker's first write.
    maps: Vec<KeyMap<StateEntry>>,
    journal: Vec<StateOp>,
}

/// One journaled state mutation: the old value, for rollback.
#[derive(Debug, Clone, Copy)]
struct StateOp {
    checker: u8,
    key: TrackKey,
    old: Option<StateEntry>,
}

/// Rollback point for [`StateTable`].
#[derive(Debug, Clone, Copy)]
pub struct StateMark(usize);

impl StateTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state for `key` under `checker`, if any transition happened.
    #[inline]
    pub fn get(&self, checker: u8, key: TrackKey) -> Option<StateEntry> {
        self.maps.get(checker as usize)?.get(key)
    }

    /// The map for `checker`, created on first use.
    fn map_mut(&mut self, checker: u8) -> &mut KeyMap<StateEntry> {
        let i = checker as usize;
        if i >= self.maps.len() {
            self.maps.resize_with(i + 1, KeyMap::default);
        }
        &mut self.maps[i]
    }

    /// Sets the state, journaling the old value.
    pub fn set(&mut self, checker: u8, key: TrackKey, entry: StateEntry) {
        let old = self.map_mut(checker).insert(key, entry);
        self.journal.push(StateOp { checker, key, old });
    }

    /// Clears the state (used when a variable is redefined in PATA-NA mode).
    pub fn clear(&mut self, checker: u8, key: TrackKey) {
        let Some(map) = self.maps.get_mut(checker as usize) else {
            return;
        };
        if let Some(old) = map.remove(key) {
            self.journal.push(StateOp {
                checker,
                key,
                old: Some(old),
            });
        }
    }

    /// Number of live state entries.
    pub fn len(&self) -> usize {
        self.maps.iter().map(KeyMap::len).sum()
    }

    /// Journal length (undo depth since the table was created).
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// O(1) estimate of the heap bytes a deep clone of this table copies,
    /// at a hash-map entry's size per live state: what the path holds, not
    /// how the table stores it.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<((u8, TrackKey), StateEntry)>() as u64;
        let op = std::mem::size_of::<StateOp>() as u64;
        self.len() as u64 * entry + self.journal.len() as u64 * op
    }

    /// Whether no states are tracked.
    pub fn is_empty(&self) -> bool {
        self.maps.iter().all(KeyMap::is_empty)
    }

    /// Snapshots for rollback.
    pub fn mark(&self) -> StateMark {
        StateMark(self.journal.len())
    }

    /// Rolls back to `mark`.
    pub fn rollback(&mut self, mark: StateMark) {
        while self.journal.len() > mark.0 {
            let StateOp { checker, key, old } = self.journal.pop().unwrap();
            let map = &mut self.maps[checker as usize];
            match old {
                Some(entry) => map.insert(key, entry),
                None => map.remove(key),
            };
        }
    }

    /// Empties the table for the next root, keeping its buffers: a
    /// rollback to the creation mark, so it costs what the journal holds.
    pub(crate) fn reset(&mut self) {
        self.rollback(StateMark(0));
    }

    /// Elements of buffer capacity held across the per-checker maps and
    /// the journal.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.maps.iter().map(KeyMap::capacity).sum::<usize>() + self.journal.capacity()
    }

    /// The per-checker maps, for tests that inspect their slots.
    #[cfg(test)]
    pub(crate) fn maps(&self) -> &[KeyMap<StateEntry>] {
        &self.maps
    }
}

/// Introspection data describing a checker's FSM (Definition 2 / Table 2).
/// Purely documentary — transitions are implemented in checker code, which
/// is how the paper describes its 100-200-line checkers.
#[derive(Debug, Clone)]
pub struct FsmSpec {
    /// Human-readable state names, indexed by [`StateVal`]; index 0 is `S0`.
    pub states: Vec<&'static str>,
    /// The input alphabet Σ.
    pub events: Vec<&'static str>,
    /// Name of the accepting/bug state.
    pub bug_state: &'static str,
}

/// A resolved operand in a branch predicate.
#[derive(Debug, Clone, Copy)]
pub enum OperandKey {
    /// A variable with its current tracking key.
    Var(VarId, TrackKey),
    /// An integer constant (`NULL` is 0).
    Const(i64),
}

impl OperandKey {
    /// The key if this operand is a variable.
    pub fn key(&self) -> Option<TrackKey> {
        match self {
            OperandKey::Var(_, k) => Some(*k),
            OperandKey::Const(_) => None,
        }
    }

    /// The constant if this operand is one.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            OperandKey::Const(c) => Some(*c),
            OperandKey::Var(..) => None,
        }
    }
}

/// A taken branch with its effective (possibly negated) predicate.
#[derive(Debug, Clone, Copy)]
pub struct BranchEvent {
    /// The comparison that holds along the taken edge.
    pub op: pata_ir::CmpOp,
    /// Left operand with tracking key resolved at branch time.
    pub lhs: OperandKey,
    /// Right operand.
    pub rhs: OperandKey,
    /// Whether the left/right operand has pointer type (for null tests).
    pub lhs_is_pointer: bool,
    /// Identity of the branch terminator.
    pub inst_id: InstId,
}

/// Alias-resolution results for one instruction, handed to checkers after
/// the alias graph has been updated.
#[derive(Debug, Clone, Default)]
pub struct UpdateInfo {
    /// Tracking key of the defined variable after the update.
    pub dst_key: Option<TrackKey>,
    /// For `MOVE`: `(dst, src)` keys — PATA-NA copies states along these.
    pub move_pair: Option<(TrackKey, TrackKey)>,
    /// Key of a dereferenced pointer (`LOAD` addr / `STORE` addr / `GEP`
    /// base) — the NPD `deref` event target.
    pub deref_key: Option<TrackKey>,
    /// For `STORE`: key of the object `*addr` denoted *before* the store
    /// (the overwritten location — UVA initialization target).
    pub store_old_target: Option<TrackKey>,
    /// For `STORE` of a variable: key of the stored value (ML escape).
    pub stored_val_key: Option<TrackKey>,
    /// For `STORE` of a constant: key of the fresh constant object `*addr`
    /// now denotes, with the constant (NPD `ass_null` through memory).
    pub stored_const: Option<(TrackKey, pata_ir::ConstVal)>,
    /// Keys of value-read operands (UVA `use` events), with the variables.
    pub use_keys: Vec<(VarId, TrackKey)>,
    /// Key of the divisor if this is a division (division-by-zero checker).
    pub divisor_key: Option<TrackKey>,
    /// Constant divisor, when the divisor is immediate.
    pub divisor_const: Option<i64>,
    /// Key + constant view of an array index (underflow checker).
    pub index_key: Option<TrackKey>,
    /// Constant array index, when immediate.
    pub index_const: Option<i64>,
    /// Keys of pointer arguments passed to an opaque (external/indirect)
    /// call — conservative ML escape.
    pub escape_keys: Vec<TrackKey>,
    /// Key of the pointer in a `FREE` (no NPD `deref`: `free(NULL)` is ok).
    pub free_key: Option<TrackKey>,
    /// Key of the lock object in `LOCK`/`UNLOCK`.
    pub lock_key: Option<TrackKey>,
}

impl UpdateInfo {
    /// Resets all fields while keeping the `Vec` allocations, so the
    /// explorer can reuse one scratch `UpdateInfo` per step instead of
    /// allocating a fresh one per instruction.
    pub fn clear(&mut self) {
        self.dst_key = None;
        self.move_pair = None;
        self.deref_key = None;
        self.store_old_target = None;
        self.stored_val_key = None;
        self.stored_const = None;
        self.use_keys.clear();
        self.divisor_key = None;
        self.divisor_const = None;
        self.index_key = None;
        self.index_const = None;
        self.escape_keys.clear();
        self.free_key = None;
        self.lock_key = None;
    }
}

/// One heap allocation recorded in a function frame (for end-of-frame leak
/// detection).
#[derive(Debug, Clone, Copy)]
pub struct HeapObject {
    /// Key the `malloc` event targeted.
    pub key: TrackKey,
    /// Allocation instruction.
    pub inst_id: InstId,
}

/// Data for the frame-return hook (memory-leak finalization).
#[derive(Debug)]
pub struct FrameEndEvent<'a> {
    /// Heap objects allocated in the returning frame.
    pub heap_objects: &'a [HeapObject],
    /// Key of the returned value, if the function returns a variable.
    pub ret_val_key: Option<TrackKey>,
    /// Identity of the return terminator.
    pub inst_id: InstId,
}

/// Mutable context handed to checkers: state table, bug sink and counters.
pub struct TrackCtx<'a> {
    /// Shared state table.
    pub states: &'a mut StateTable,
    /// Alias mode (checkers use it for PATA-NA state copying on `MOVE`).
    pub mode: AliasMode,
    /// Candidate-bug sink; the explorer attaches path constraints.
    pub bugs: &'a mut Vec<PendingBug>,
    /// Statistics counters.
    pub stats: &'a mut AnalysisStats,
    /// Size of the alias set behind a key (1 in PATA-NA mode) — used for
    /// the paper's alias-aware vs. unaware typestate accounting (Table 5).
    pub set_size: &'a dyn Fn(TrackKey) -> usize,
    /// Identity of the instruction being tracked.
    pub inst_id: InstId,
}

impl TrackCtx<'_> {
    /// Reads the current state for `key` under `checker`.
    pub fn state(&self, checker: u8, key: TrackKey) -> Option<StateEntry> {
        self.states.get(checker, key)
    }

    /// Transitions `key` to `state`, keeping provenance from `origin` if
    /// given, else using the current instruction. Updates the Table 5
    /// typestate accounting.
    pub fn transition(
        &mut self,
        checker: u8,
        key: TrackKey,
        state: StateVal,
        origin: Option<StateEntry>,
    ) {
        let entry = match origin {
            Some(o) => StateEntry { state, ..o },
            None => StateEntry {
                state,
                origin_id: self.inst_id,
            },
        };
        self.stats.typestates_aware += 1;
        self.stats.typestates_unaware += (self.set_size)(key).max(1) as u64;
        self.states.set(checker, key, entry);
    }

    /// Copies the state of `src` onto `dst` — the per-variable state
    /// synchronization of traditional typestate tracking (paper Fig. 8a),
    /// used by checkers in PATA-NA mode on `MOVE` instructions.
    pub fn copy_state(&mut self, checker: u8, dst: TrackKey, src: TrackKey) {
        match self.states.get(checker, src) {
            Some(entry) => {
                self.stats.typestates_aware += 1;
                self.stats.typestates_unaware += 1;
                self.states.set(checker, dst, entry);
            }
            None => self.states.clear(checker, dst),
        }
    }

    /// Emits a candidate bug; the path explorer snapshots constraints and,
    /// for alias-aware keys, renders the offending alias set for the
    /// report.
    pub fn report(
        &mut self,
        kind: BugKind,
        key: TrackKey,
        origin: StateEntry,
        extra: Vec<pata_smt::Constraint>,
    ) {
        self.bugs.push(PendingBug {
            kind,
            key: Some(key),
            origin_id: origin.origin_id,
            site_id: self.inst_id,
            extra,
        });
    }

    /// Emits a candidate bug whose origin is the current instruction.
    pub fn report_here(&mut self, kind: BugKind, extra: Vec<pata_smt::Constraint>) {
        self.bugs.push(PendingBug {
            kind,
            key: None,
            origin_id: self.inst_id,
            site_id: self.inst_id,
            extra,
        });
    }
}

/// A candidate bug emitted by a checker during one instruction; the
/// explorer immediately turns it into a [`PossibleBug`] by snapshotting the
/// live constraint trace.
#[derive(Debug, Clone)]
pub struct PendingBug {
    /// Bug type.
    pub kind: BugKind,
    /// The alias set (or variable) the bug is about, for report rendering.
    pub key: Option<TrackKey>,
    /// Establishing instruction.
    pub origin_id: InstId,
    /// Manifesting instruction.
    pub site_id: InstId,
    /// Additional bug-condition constraints (e.g. `divisor == 0`).
    pub extra: Vec<pata_smt::Constraint>,
}

impl PendingBug {
    /// Builds a full possible bug by attaching a constraint snapshot and
    /// the rendered alias set.
    pub fn into_possible(
        self,
        constraints: Vec<pata_smt::Constraint>,
        alias_paths: Vec<String>,
        root: pata_ir::FuncId,
    ) -> PossibleBug {
        PossibleBug {
            kind: self.kind,
            origin_id: self.origin_id,
            site_id: self.site_id,
            constraints: constraints.into(),
            extra: self.extra.into(),
            alias_paths: alias_paths.into(),
            root,
        }
    }
}

/// A typestate checker: implements one FSM's transitions over instruction,
/// branch and frame-end events. Each built-in checker is 100-200 lines,
/// matching the paper's §5.1/§5.5 claims.
pub trait Checker: Send + Sync {
    /// The bug type this checker detects.
    fn kind(&self) -> BugKind;

    /// The FSM description (Definition 2, Table 2).
    fn fsm(&self) -> FsmSpec;

    /// Instruction hook (after alias-graph update).
    fn on_inst(&self, cx: &mut TrackCtx<'_>, inst: &pata_ir::InstKind, info: &UpdateInfo);

    /// Taken-branch hook with the resolved predicate.
    fn on_branch(&self, _cx: &mut TrackCtx<'_>, _ev: &BranchEvent) {}

    /// Frame-return hook.
    fn on_frame_end(&self, _cx: &mut TrackCtx<'_>, _ev: &FrameEndEvent<'_>) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn key(i: usize) -> TrackKey {
        TrackKey::Var(VarId::from_index(i))
    }

    fn entry(state: StateVal) -> StateEntry {
        StateEntry {
            state,
            origin_id: InstId {
                func: pata_ir::FuncId::from_index(0),
                block: pata_ir::BlockId::from_index(0),
                inst: 0,
            },
        }
    }

    #[test]
    fn set_get_clear() {
        let mut t = StateTable::new();
        assert!(t.get(0, key(1)).is_none());
        t.set(0, key(1), entry(2));
        assert_eq!(t.get(0, key(1)).unwrap().state, 2);
        // Checker namespaces are independent.
        assert!(t.get(1, key(1)).is_none());
        t.clear(0, key(1));
        assert!(t.get(0, key(1)).is_none());
    }

    #[test]
    fn rollback_restores_previous_states() {
        let mut t = StateTable::new();
        t.set(0, key(1), entry(1));
        let mark = t.mark();
        t.set(0, key(1), entry(2));
        t.set(0, key(2), entry(3));
        t.clear(0, key(1));
        t.rollback(mark);
        assert_eq!(t.get(0, key(1)).unwrap().state, 1);
        assert!(t.get(0, key(2)).is_none());
    }

    /// Keys the model tests draw from: dense low node indices, sparse
    /// high ones, and variables (PATA-NA keys) both small and far apart.
    pub(crate) fn model_key(rng: &mut pata_corpus::Prng) -> TrackKey {
        match rng.gen_range(0, 10) {
            0..=5 => TrackKey::Node(NodeId::from_index(rng.gen_range(0, 48))),
            6 => TrackKey::Node(NodeId::from_index(1_000 + 2_371 * rng.gen_range(0, 8))),
            7 | 8 => TrackKey::Var(VarId::from_index(rng.gen_range(0, 48))),
            _ => TrackKey::Var(VarId::from_index(100_000 + 487_903 * rng.gen_range(0, 8))),
        }
    }

    /// The table against a hash-map reference with the same journal
    /// discipline, over seeded sequences of set, clear, get, mark,
    /// rollback and reset across every built-in checker id (and one
    /// custom id past them): after every step each touched key reads the
    /// same, `len()` and `approx_bytes()` match the reference, and a reset
    /// leaves every dense slot empty.
    #[test]
    fn state_table_matches_a_hash_map_model() {
        type Key = (u8, TrackKey);
        let entry_size = std::mem::size_of::<((u8, TrackKey), StateEntry)>() as u64;
        let op_size = std::mem::size_of::<StateOp>() as u64;
        for seed in 0..8u64 {
            let mut rng = pata_corpus::Prng::seed_from_u64(seed);
            let mut t = StateTable::new();
            let mut model: FxHashMap<Key, StateEntry> = FxHashMap::default();
            let mut journal: Vec<(Key, Option<StateEntry>)> = Vec::new();
            let mut marks: Vec<(StateMark, usize)> = Vec::new();
            let mut touched: Vec<Key> = Vec::new();
            let undo = |model: &mut FxHashMap<Key, StateEntry>,
                        journal: &mut Vec<(Key, Option<StateEntry>)>,
                        len: usize| {
                for (k, old) in journal.drain(len..).rev() {
                    match old {
                        Some(e) => model.insert(k, e),
                        None => model.remove(&k),
                    };
                }
            };
            for step in 0..2_000usize {
                let checker = if rng.gen_range(0, 40) == 0 {
                    9
                } else {
                    rng.gen_range(0, 7) as u8
                };
                let key = model_key(&mut rng);
                match rng.gen_range(0, 100) {
                    0..=39 => {
                        let mut e = entry(rng.gen_range(1, 6) as StateVal);
                        e.origin_id.inst = step;
                        t.set(checker, key, e);
                        journal.push(((checker, key), model.insert((checker, key), e)));
                    }
                    40..=59 => {
                        t.clear(checker, key);
                        if let Some(old) = model.remove(&(checker, key)) {
                            journal.push(((checker, key), Some(old)));
                        }
                    }
                    60..=74 => {
                        assert_eq!(t.get(checker, key), model.get(&(checker, key)).copied());
                    }
                    75..=84 => marks.push((t.mark(), journal.len())),
                    85..=96 => {
                        if !marks.is_empty() {
                            let i = rng.gen_range(0, marks.len());
                            let (mark, len) = marks[i];
                            marks.truncate(i);
                            t.rollback(mark);
                            undo(&mut model, &mut journal, len);
                        }
                    }
                    _ => {
                        t.reset();
                        undo(&mut model, &mut journal, 0);
                        marks.clear();
                        assert!(t.is_empty());
                        for map in t.maps() {
                            assert!(map.is_empty());
                            assert!(map.node_slots().iter().all(Option::is_none));
                        }
                    }
                }
                if !touched.contains(&(checker, key)) {
                    touched.push((checker, key));
                }
                for &(c, k) in &touched {
                    assert_eq!(t.get(c, k), model.get(&(c, k)).copied(), "seed {seed}");
                }
                assert_eq!(t.len(), model.len(), "seed {seed}, step {step}");
                assert_eq!(t.is_empty(), model.is_empty());
                assert_eq!(
                    t.approx_bytes(),
                    model.len() as u64 * entry_size + journal.len() as u64 * op_size
                );
            }
            t.reset();
            for map in t.maps() {
                assert!(map.node_slots().iter().all(Option::is_none));
            }
            assert_eq!((t.len(), t.approx_bytes()), (0, 0));
        }
    }

    #[test]
    fn nested_rollbacks() {
        let mut t = StateTable::new();
        let m0 = t.mark();
        t.set(0, key(1), entry(1));
        let m1 = t.mark();
        t.set(0, key(1), entry(2));
        t.rollback(m1);
        assert_eq!(t.get(0, key(1)).unwrap().state, 1);
        t.rollback(m0);
        assert!(t.is_empty());
    }
}
