//! The path-based alias analysis' central data structure (paper §3.1).
//!
//! An [`AliasGraph`] is the paper's Definition 1: nodes are *alias classes*
//! (sets of variables denoting one abstract object) and edges are labeled
//! with struct fields or the dereference operator, describing how abstract
//! objects are reached from variables — i.e. *access paths*. Variables whose
//! access paths end at the same node are aliases.
//!
//! The graph supports the four update rules of Fig. 5 (`MOVE`, `STORE`,
//! `LOAD`, `GEP`) plus `&x` (address-of) and constant assignment, and an
//! **undo journal**: the path explorer snapshots a [`Mark`] before each
//! branch and rolls the graph back when backtracking, giving each
//! control-flow path its own alias graph without cloning (the paper's
//! "COPY" at branches, Fig. 7, implemented as copy-on-return).

use pata_ir::{Symbol, VarId};
use std::cell::Cell;
use std::fmt;

thread_local! {
    /// This thread's spare `var_node` index; every entry is `None`.
    static SPARE_INDEX: Cell<Vec<Option<NodeId>>> = const { Cell::new(Vec::new()) };
}

/// Frees the calling thread's spare variable index. The exploration
/// driver calls it before returning, so a long-lived thread (a `serve`
/// loop) holds no module-sized buffer between requests.
pub(crate) fn release_spare_index() {
    let _ = SPARE_INDEX.try_with(Cell::take);
}

/// A node in the alias graph — one alias class / abstract object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An edge label: a struct field, the dereference operator `*`, or an
/// array-element access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Pointer dereference.
    Deref,
    /// Struct-field access (field sensitivity, §3.2).
    Field(Symbol),
    /// Array element with a constant index (`a[0]`).
    ElemConst(i64),
    /// Array element indexed by a variable (`a[i]`). PATA is
    /// array-insensitive (§5.2): the label carries the index *variable*,
    /// so `a[i]` and `a[i]` alias but `a[i+1]` (a fresh temporary each
    /// occurrence) and `a[j]` do not — even when `j == i + 1`, the
    /// paper's documented false-positive source.
    ElemVar(u32),
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Deref => write!(f, "*"),
            Label::Field(s) => write!(f, ".{s}"),
            Label::ElemConst(c) => write!(f, "[{c}]"),
            Label::ElemVar(v) => write!(f, "[%{v}]"),
        }
    }
}

#[derive(Debug, Default, Clone)]
struct NodeData {
    vars: Vec<VarId>,
    out: Vec<(Label, NodeId)>,
}

/// Journal entries. Each entry carries enough to *reverse* the mutation
/// (rollback).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `v` was inserted into `to`; it previously resided in `from`.
    VarMoved {
        v: VarId,
        from: Option<NodeId>,
        to: NodeId,
    },
    /// An edge `n --label--> _` was added.
    EdgeAdded { n: NodeId, label: Label },
    /// The edge `n --label--> old` was removed.
    EdgeRemoved {
        n: NodeId,
        label: Label,
        old: NodeId,
    },
    /// A fresh node was pushed.
    NodeCreated,
}

/// A rollback point returned by [`AliasGraph::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark(usize);

/// The alias graph of Definition 1, with journal-based rollback.
///
/// # Example — the paper's Fig. 4
///
/// ```
/// use pata_core::alias::{AliasGraph, Label};
/// use pata_ir::VarId;
///
/// let mut g = AliasGraph::new();
/// let (x, y, p, q) = (VarId::from_index(0), VarId::from_index(1),
///                     VarId::from_index(2), VarId::from_index(3));
/// // p = &x->f; q = &y->g  (GEP rules) — then p and q made aliases via MOVE.
/// let mut interner = pata_ir::Interner::new();
/// let f = interner.intern("f");
/// let g_field = interner.intern("g");
/// g.handle_gep(p, x, f);
/// g.handle_move(q, p); // q joins p's node
/// // &y->g also reaches that node after updating y's edge:
/// g.handle_gep(q, y, g_field); // q moves … (illustrative)
/// assert!(g.node_of_var(p).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct AliasGraph {
    nodes: Vec<NodeData>,
    /// Variable → node placement, dense by `VarId::index()`. It sits on
    /// the hottest lookup path of the explorer (`node_of` per operand), so
    /// it is a flat vector, not a hash map. Its length follows module-wide
    /// numbering, but it is not allocated per graph: it is the thread's
    /// spare index, taken at creation and cleared on drop by walking
    /// `nodes[*].vars` — every `Some` entry is exactly one variable in its
    /// node's `vars` — so a graph costs what it placed, not the module size.
    var_node: Vec<Option<NodeId>>,
    /// How many variables are placed in some node: what the path touched,
    /// independent of `var_node`'s length. [`AliasGraph::approx_bytes`]
    /// uses it so a budget trip does not depend on where the root's
    /// variables fall in the module.
    placed: usize,
    journal: Vec<Op>,
}

/// What a `STORE` update changed — consumed by typestate tracking, which
/// needs the *previous* deref target (the object being overwritten).
#[derive(Debug, Clone, Copy)]
pub struct StoreInfo {
    /// Node of the stored value after the update (`*addr` aliases it now).
    pub new_target: NodeId,
    /// The node `*addr` referred to before the update, if any.
    pub old_target: Option<NodeId>,
    /// Node of the address operand.
    pub addr_node: NodeId,
}

impl Default for AliasGraph {
    /// An empty graph over this thread's spare variable index.
    fn default() -> Self {
        AliasGraph {
            nodes: Vec::new(),
            var_node: SPARE_INDEX.try_with(Cell::take).unwrap_or_default(),
            placed: 0,
            journal: Vec::new(),
        }
    }
}

impl Drop for AliasGraph {
    /// Clears the entries this graph placed — O(placed), not O(module) —
    /// and hands the all-`None` index back as the thread's spare, keeping
    /// the longer of the two if the thread already holds one. Runs on
    /// unwind too, so a root quarantined by a panic leaves a clean index.
    fn drop(&mut self) {
        self.clear_index();
        let index = std::mem::take(&mut self.var_node);
        let _ = SPARE_INDEX.try_with(|spare| {
            let held = spare.take();
            spare.set(if held.len() >= index.len() {
                held
            } else {
                index
            });
        });
    }
}

impl AliasGraph {
    /// Creates an empty graph. Per Fig. 6 the paper seeds one isolated node
    /// per program variable; we create nodes lazily on first touch, which is
    /// observationally equivalent (an untouched variable is trivially in a
    /// singleton alias class).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes ever created (including empty ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node a variable currently resides in, if it was ever touched.
    pub fn node_of_var(&self, v: VarId) -> Option<NodeId> {
        self.var_node.get(v.index()).copied().flatten()
    }

    /// An O(1) estimate of the live bytes this graph holds — what a
    /// clone-based branch fork would copy. Counts the nodes, the placed
    /// variables and the journal by element size; per-node `vars`/`out`
    /// spill is approximated by the journal (every placement and edge
    /// passed through it).
    pub(crate) fn approx_bytes(&self) -> u64 {
        (self.nodes.len() * std::mem::size_of::<NodeData>()
            + self.placed * std::mem::size_of::<Option<NodeId>>()
            + self.journal.len() * std::mem::size_of::<Op>()) as u64
    }

    /// Journal length — the undo depth a rollback to the graph's creation
    /// would walk. Exposed for fork telemetry.
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The variables residing in `n` — the length-0 access paths of the
    /// alias set `AliasSet(n)`.
    pub fn vars(&self, n: NodeId) -> &[VarId] {
        &self.nodes[n.index()].vars
    }

    /// Number of variables in the alias set of `n` (at least 1 for nodes
    /// a variable resides in; can drop to 0 after strong updates).
    pub fn alias_set_size(&self, n: NodeId) -> usize {
        self.nodes[n.index()].vars.len()
    }

    /// The target of the `label`-edge out of `n`, if present. Definition 1:
    /// at most one outgoing edge per label.
    pub fn out_edge(&self, n: NodeId, label: Label) -> Option<NodeId> {
        self.nodes[n.index()]
            .out
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, t)| *t)
    }

    /// All outgoing edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> &[(Label, NodeId)] {
        &self.nodes[n.index()].out
    }

    // --------------------------------------------------------------
    // Journaled primitive mutations
    // --------------------------------------------------------------

    fn new_node(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many alias nodes"));
        self.nodes.push(NodeData::default());
        self.journal.push(Op::NodeCreated);
        id
    }

    fn place_var(&mut self, v: VarId, to: NodeId) {
        let from = self.node_of_var(v);
        if from == Some(to) {
            return;
        }
        match from {
            Some(f) => self.nodes[f.index()].vars.retain(|&x| x != v),
            None => self.placed += 1,
        }
        self.nodes[to.index()].vars.push(v);
        if self.var_node.len() <= v.index() {
            self.var_node.resize(v.index() + 1, None);
        }
        self.var_node[v.index()] = Some(to);
        self.journal.push(Op::VarMoved { v, from, to });
    }

    fn add_edge(&mut self, n: NodeId, label: Label, target: NodeId) {
        debug_assert!(self.out_edge(n, label).is_none(), "duplicate label edge");
        self.nodes[n.index()].out.push((label, target));
        self.journal.push(Op::EdgeAdded { n, label });
    }

    fn remove_edge(&mut self, n: NodeId, label: Label) {
        let data = &mut self.nodes[n.index()];
        if let Some(pos) = data.out.iter().position(|(l, _)| *l == label) {
            let (_, old) = data.out.remove(pos);
            self.journal.push(Op::EdgeRemoved { n, label, old });
        }
    }

    /// The node for `v`, creating a fresh singleton lazily.
    pub fn node_of(&mut self, v: VarId) -> NodeId {
        if let Some(n) = self.node_of_var(v) {
            return n;
        }
        let n = self.new_node();
        self.place_var(v, n);
        n
    }

    /// Detaches `v` from its current alias class into a fresh singleton
    /// node — the strong update applied when `v` is redefined.
    pub fn detach_to_fresh(&mut self, v: VarId) -> NodeId {
        let n = self.new_node();
        self.place_var(v, n);
        n
    }

    // --------------------------------------------------------------
    // Fig. 5 rules
    // --------------------------------------------------------------

    /// `HandleMOVE(v1 = v2)`: `v1` leaves its node and joins `v2`'s; they
    /// become aliases. Returns the shared node.
    pub fn handle_move(&mut self, dst: VarId, src: VarId) -> NodeId {
        let n2 = self.node_of(src);
        self.place_var(dst, n2);
        n2
    }

    /// `HandleSTORE(*v2 = v1)`: the `*`-edge out of `v2`'s node is
    /// retargeted to `v1`'s node, so the access path `*v2` aliases `v1`.
    pub fn handle_store(&mut self, addr: VarId, val: VarId) -> StoreInfo {
        let n1 = self.node_of(val);
        let n2 = self.node_of(addr);
        let old = self.out_edge(n2, Label::Deref);
        if old.is_some() {
            self.remove_edge(n2, Label::Deref);
        }
        // Self-edge guard: *p = p collapses; keep the edge anyway (legal in
        // the graph, represents a self-referential object).
        if self.out_edge(n2, Label::Deref).is_none() {
            self.add_edge(n2, Label::Deref, n1);
        }
        StoreInfo {
            new_target: n1,
            old_target: old,
            addr_node: n2,
        }
    }

    /// Stores a constant through a pointer: `*v2 = c`. The target becomes a
    /// fresh node representing the constant object; the caller records the
    /// matching SMT constraint and (for `NULL`) the `ass_null` event.
    pub fn handle_store_const(&mut self, addr: VarId) -> StoreInfo {
        let n2 = self.node_of(addr);
        let old = self.out_edge(n2, Label::Deref);
        if old.is_some() {
            self.remove_edge(n2, Label::Deref);
        }
        let nc = self.new_node();
        self.add_edge(n2, Label::Deref, nc);
        StoreInfo {
            new_target: nc,
            old_target: old,
            addr_node: n2,
        }
    }

    /// `HandleLOAD(v1 = *v2)`: `v1` joins the `*`-target of `v2`'s node
    /// (creating the edge to a fresh node first if absent), so `v1` and
    /// `*v2` are aliases. Returns `v1`'s node.
    pub fn handle_load(&mut self, dst: VarId, addr: VarId) -> NodeId {
        let n2 = self.node_of(addr);
        match self.out_edge(n2, Label::Deref) {
            Some(nx) => {
                self.place_var(dst, nx);
                nx
            }
            None => {
                // Strong update: dst leaves its old class into a fresh node
                // that now also represents *addr (SSA-equivalent of the
                // paper's rule, which assumes a fresh temporary).
                let n1 = self.detach_to_fresh(dst);
                self.add_edge(n2, Label::Deref, n1);
                n1
            }
        }
    }

    /// `HandleGEP(v1 = &v2->f)`: like LOAD but along a field edge.
    pub fn handle_gep(&mut self, dst: VarId, base: VarId, field: Symbol) -> NodeId {
        let n2 = self.node_of(base);
        let label = Label::Field(field);
        match self.out_edge(n2, label) {
            Some(nx) => {
                self.place_var(dst, nx);
                nx
            }
            None => {
                let n1 = self.detach_to_fresh(dst);
                self.add_edge(n2, label, n1);
                n1
            }
        }
    }

    /// `v1 = &v2`: `v1` gets a fresh node with a `*`-edge to `v2`'s node,
    /// so `*v1` aliases `v2`.
    pub fn handle_addr_of(&mut self, dst: VarId, src: VarId) -> NodeId {
        let n_src = self.node_of(src);
        let n1 = self.detach_to_fresh(dst);
        self.add_edge(n1, Label::Deref, n_src);
        n1
    }

    /// `v = c`: `v` leaves its alias class for a fresh node representing
    /// the constant. Returns the fresh node.
    pub fn handle_const(&mut self, dst: VarId) -> NodeId {
        self.detach_to_fresh(dst)
    }

    /// `v1 = &v2[i]`: like GEP, but along an element label derived from
    /// the index *expression* — the paper's array-insensitivity (§5.2):
    /// syntactically identical indices alias, semantically equal but
    /// syntactically distinct ones do not.
    pub fn handle_index(&mut self, dst: VarId, base: VarId, label: Label) -> NodeId {
        let n2 = self.node_of(base);
        match self.out_edge(n2, label) {
            Some(nx) => {
                self.place_var(dst, nx);
                nx
            }
            None => {
                let n1 = self.detach_to_fresh(dst);
                self.add_edge(n2, label, n1);
                n1
            }
        }
    }

    // --------------------------------------------------------------
    // Rollback
    // --------------------------------------------------------------

    /// Snapshots the current state.
    pub fn mark(&self) -> Mark {
        Mark(self.journal.len())
    }

    /// Rolls back every mutation made after `mark`.
    pub fn rollback(&mut self, mark: Mark) {
        while self.journal.len() > mark.0 {
            match self.journal.pop().unwrap() {
                Op::VarMoved { v, from, to } => {
                    self.nodes[to.index()].vars.retain(|&x| x != v);
                    match from {
                        Some(f) => {
                            self.nodes[f.index()].vars.push(v);
                            self.var_node[v.index()] = Some(f);
                        }
                        None => {
                            self.var_node[v.index()] = None;
                            self.placed -= 1;
                        }
                    }
                }
                Op::EdgeAdded { n, label } => {
                    let data = &mut self.nodes[n.index()];
                    if let Some(pos) = data.out.iter().position(|(l, _)| *l == label) {
                        data.out.remove(pos);
                    }
                }
                Op::EdgeRemoved { n, label, old } => {
                    self.nodes[n.index()].out.push((label, old));
                }
                Op::NodeCreated => {
                    let node = self.nodes.pop().expect("journal/node mismatch");
                    debug_assert!(node.vars.is_empty(), "rollback order violated");
                }
            }
        }
    }

    /// Resets every `var_node` entry this graph placed to `None`; returns
    /// how many it reset. Runs from `Drop`, so it must not panic: an entry
    /// is looked up with `get_mut`, not indexed.
    fn clear_index(&mut self) -> usize {
        let mut cleared = 0;
        for node in &self.nodes {
            for &v in &node.vars {
                if let Some(slot) = self.var_node.get_mut(v.index()) {
                    *slot = None;
                    cleared += 1;
                }
            }
        }
        cleared
    }

    /// Enumerates the access paths of `AliasSet(n)` up to `max_len` labels —
    /// used for human-readable reports (Example 1 / Fig. 4 of the paper).
    pub fn access_paths(&self, n: NodeId, max_len: usize) -> Vec<AccessPath> {
        let mut out = Vec::new();
        // Length 0: variables residing in n.
        for &v in self.vars(n) {
            out.push(AccessPath {
                base: v,
                labels: Vec::new(),
            });
        }
        if max_len == 0 {
            return out;
        }
        // Longer paths: BFS backwards over incoming edges.
        let mut frontier: Vec<(NodeId, Vec<Label>)> = vec![(n, Vec::new())];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for (target, suffix) in &frontier {
                for (src_idx, data) in self.nodes.iter().enumerate() {
                    for (label, t) in &data.out {
                        if t == target {
                            let mut labels = vec![*label];
                            labels.extend(suffix.iter().copied());
                            let src = NodeId(src_idx as u32);
                            for &v in &self.nodes[src_idx].vars {
                                out.push(AccessPath {
                                    base: v,
                                    labels: labels.clone(),
                                });
                            }
                            next.push((src, labels));
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }
}

/// An access path: a base variable followed by edge labels (paper §3.1,
/// after Definition 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPath {
    /// The variable the path starts from.
    pub base: VarId,
    /// The labels walked from the base's node.
    pub labels: Vec<Label>,
}

impl AccessPath {
    /// Renders like `*(&x->f)` / `p` given a variable-name resolver. Index
    /// variables (`&(a)[i]`) go through the resolver too, so the text
    /// names no module-global variable id.
    pub fn render(
        &self,
        name_of: impl Fn(VarId) -> String,
        interner: &pata_ir::Interner,
    ) -> String {
        let mut s = name_of(self.base);
        for l in &self.labels {
            match l {
                Label::Deref => s = format!("*({s})"),
                Label::Field(f) => s = format!("&({s})->{}", interner.resolve(*f)),
                Label::ElemConst(c) => s = format!("&({s})[{c}]"),
                Label::ElemVar(v) => {
                    let index = name_of(VarId::from_index(*v as usize));
                    s = format!("&({s})[{index}]");
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn move_makes_aliases() {
        let mut g = AliasGraph::new();
        let n = g.handle_move(v(0), v(1));
        assert_eq!(g.node_of_var(v(0)), Some(n));
        assert_eq!(g.node_of_var(v(1)), Some(n));
        assert_eq!(g.alias_set_size(n), 2);
    }

    #[test]
    fn render_names_index_variables() {
        let mut interner = pata_ir::Interner::new();
        let f = interner.intern("buf");
        let ap = AccessPath {
            base: v(7),
            labels: vec![Label::Field(f), Label::ElemVar(9), Label::Deref],
        };
        let name_of = |x: VarId| format!("fn:v{}", x.index());
        assert_eq!(ap.render(name_of, &interner), "*(&(&(fn:v7)->buf)[fn:v9])");
    }

    #[test]
    fn gep_load_chain_matches_fig7() {
        // foo: r = &(p->s); t = *r  — after this, t and *(&p->s) alias.
        let mut g = AliasGraph::new();
        let mut interner = pata_ir::Interner::new();
        let s = interner.intern("s");
        let (p, r, t) = (v(0), v(1), v(2));
        let nr = g.handle_gep(r, p, s);
        let nt = g.handle_load(t, r);
        assert_eq!(g.node_of_var(r), Some(nr));
        assert_eq!(g.out_edge(nr, Label::Deref), Some(nt));
        // A second function's identical chain reaches the SAME nodes
        // (bar: r2 = &(p2->s) with p2 = p; t2 = *r2).
        let (p2, r2, t2) = (v(3), v(4), v(5));
        g.handle_move(p2, p);
        let nr2 = g.handle_gep(r2, p2, s);
        let nt2 = g.handle_load(t2, r2);
        assert_eq!(nr2, nr, "field edge is shared through the alias class");
        assert_eq!(nt2, nt, "t and t2 are aliases — the paper's key insight");
    }

    #[test]
    fn store_retargets_deref() {
        let mut g = AliasGraph::new();
        let (p, a, b, t) = (v(0), v(1), v(2), v(3));
        let info1 = g.handle_store(p, a);
        assert_eq!(info1.old_target, None);
        let info2 = g.handle_store(p, b);
        assert_eq!(info2.old_target, Some(g.node_of(a)));
        // Loading now sees b.
        let nt = g.handle_load(t, p);
        assert_eq!(nt, g.node_of(b));
    }

    #[test]
    fn load_without_edge_creates_fresh_target() {
        let mut g = AliasGraph::new();
        let (p, t) = (v(0), v(1));
        let nt = g.handle_load(t, p);
        let np = g.node_of(p);
        assert_eq!(g.out_edge(np, Label::Deref), Some(nt));
        // Second load through an alias sees the same node.
        let (q, u) = (v(2), v(3));
        g.handle_move(q, p);
        let nu = g.handle_load(u, q);
        assert_eq!(nu, nt);
    }

    #[test]
    fn addr_of_roundtrip() {
        let mut g = AliasGraph::new();
        let (x, p, y) = (v(0), v(1), v(2));
        g.handle_addr_of(p, x);
        let ny = g.handle_load(y, p); // y = *(&x) == x
        assert_eq!(ny, g.node_of(x));
    }

    #[test]
    fn const_detaches() {
        let mut g = AliasGraph::new();
        let (a, b) = (v(0), v(1));
        let shared = g.handle_move(a, b);
        let fresh = g.handle_const(a);
        assert_ne!(shared, fresh);
        assert_eq!(g.alias_set_size(shared), 1); // only b remains
    }

    #[test]
    fn one_edge_per_label_invariant() {
        let mut g = AliasGraph::new();
        let mut interner = pata_ir::Interner::new();
        let f = interner.intern("f");
        let (p, a, b) = (v(0), v(1), v(2));
        g.handle_gep(a, p, f);
        g.handle_gep(b, p, f);
        let n = g.node_of(p);
        let count = g
            .out_edges(n)
            .iter()
            .filter(|(l, _)| matches!(l, Label::Field(_)))
            .count();
        assert_eq!(count, 1);
        // And both a and b live at the single target.
        assert_eq!(g.node_of_var(a), g.node_of_var(b));
    }

    #[test]
    fn rollback_restores_everything() {
        let mut g = AliasGraph::new();
        let mut interner = pata_ir::Interner::new();
        let f = interner.intern("f");
        let (p, q, r) = (v(0), v(1), v(2));
        g.handle_move(q, p);
        let mark = g.mark();
        let nodes_before = g.node_count();
        let q_node = g.node_of_var(q);

        g.handle_gep(r, q, f);
        g.handle_const(q);
        g.handle_store(p, r);
        assert_ne!(g.node_of_var(q), q_node);

        g.rollback(mark);
        assert_eq!(g.node_count(), nodes_before);
        assert_eq!(g.node_of_var(q), q_node);
        assert_eq!(g.node_of_var(r), None);
        assert_eq!(g.out_edges(q_node.unwrap()).len(), 0);
    }

    #[test]
    fn rollback_to_empty() {
        let mut g = AliasGraph::new();
        let mark = g.mark();
        g.handle_move(v(0), v(1));
        g.handle_store(v(0), v(2));
        g.rollback(mark);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.node_of_var(v(0)), None);
    }

    #[test]
    fn dropped_graph_leaves_a_clean_index() {
        let far = v(100_000);
        let mut g = AliasGraph::new();
        g.handle_move(far, v(3));
        drop(g);
        let g = AliasGraph::new();
        assert!(g.var_node.len() > far.index(), "the spare index is reused");
        assert_eq!(g.node_of_var(far), None);
        assert_eq!(g.node_of_var(v(3)), None);
    }

    #[test]
    fn graph_dropped_by_a_panic_leaves_a_clean_index() {
        let far = v(100_000);
        let caught = std::panic::catch_unwind(|| {
            let mut g = AliasGraph::new();
            g.handle_store(far, v(5));
            panic!("mid-path fault");
        });
        assert!(caught.is_err());
        let g = AliasGraph::new();
        assert!(g.var_node.len() > far.index(), "the spare index is reused");
        assert_eq!(g.node_of_var(far), None);
        assert_eq!(g.node_of_var(v(5)), None);
    }

    #[test]
    fn released_spare_is_not_retained() {
        let mut g = AliasGraph::new();
        g.handle_const(v(100_000));
        drop(g);
        release_spare_index();
        assert!(AliasGraph::new().var_node.is_empty());
    }

    #[test]
    fn rollback_to_empty_leaves_nothing_to_clear() {
        let mut g = AliasGraph::new();
        let mark = g.mark();
        g.handle_gep(v(100_000), v(7), pata_ir::Interner::new().intern("f"));
        g.handle_move(v(8), v(7));
        g.rollback(mark);
        assert_eq!(g.clear_index(), 0);
        assert!(g.var_node.iter().all(Option::is_none));
    }

    #[test]
    fn access_paths_of_fig4() {
        // x --f--> n3 <-- p,q ; n3 --*--> n4 {s}
        let mut g = AliasGraph::new();
        let mut interner = pata_ir::Interner::new();
        let f = interner.intern("f");
        let (x, p, q, s) = (v(0), v(1), v(2), v(3));
        g.handle_gep(p, x, f);
        g.handle_move(q, p);
        g.handle_store(p, s);
        let n4 = g.node_of(s);
        let paths = g.access_paths(n4, 2);
        // s itself, *p, *q, *(&x->f)
        assert!(paths.iter().any(|ap| ap.base == s && ap.labels.is_empty()));
        assert!(paths
            .iter()
            .any(|ap| ap.base == p && ap.labels == vec![Label::Deref]));
        assert!(paths
            .iter()
            .any(|ap| ap.base == q && ap.labels == vec![Label::Deref]));
        assert!(paths
            .iter()
            .any(|ap| ap.base == x && ap.labels == vec![Label::Field(f), Label::Deref]));
    }

    #[test]
    fn store_self_reference() {
        let mut g = AliasGraph::new();
        let p = v(0);
        let info = g.handle_store(p, p); // *p = p
        let np = g.node_of(p);
        assert_eq!(info.new_target, np);
        assert_eq!(g.out_edge(np, Label::Deref), Some(np));
    }
}
