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
//!
//! Rollback frees nothing: a node popped by rollback is kept, emptied
//! but with its buffers, and the next node the path creates reuses it.
//! One graph serves every root a worker explores ([`AliasGraph::reset`]
//! between them), so steady-state exploration makes no allocator calls
//! for alias state at all.

use pata_ir::{Symbol, VarId};
use std::fmt;

/// A node in the alias graph — one alias class / abstract object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The node with raw index `i`, for tests that key tables by node
    /// without building a graph.
    #[cfg(test)]
    pub(crate) fn from_index(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("node index fits u32"))
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
#[derive(Debug, Default)]
pub struct AliasGraph {
    /// The live nodes, indexed by [`NodeId`].
    nodes: Vec<NodeData>,
    /// Nodes popped by rollback: empty, but with their `vars`/`out`
    /// buffers, so [`AliasGraph::new_node`] reuses them instead of
    /// allocating. Not part of the graph's value: a clone starts without.
    spare: Vec<NodeData>,
    /// Variable → node placement, dense by `VarId::index()`. It sits on
    /// the hottest lookup path of the explorer (`node_of` per operand), so
    /// it is a flat vector, not a hash map. Its length follows module-wide
    /// numbering, but it is not allocated per root: the graph is reused
    /// across a worker's roots, and [`AliasGraph::reset`] clears only the
    /// entries the journal placed, so a root costs what it placed, not the
    /// module size.
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

impl Clone for AliasGraph {
    /// Copies the graph's value; the spare nodes stay behind.
    fn clone(&self) -> Self {
        AliasGraph {
            nodes: self.nodes.clone(),
            spare: Vec::new(),
            var_node: self.var_node.clone(),
            placed: self.placed,
            journal: self.journal.clone(),
        }
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

    /// Number of live nodes (including empty ones): every node created
    /// since the graph was empty and not rolled back since.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node a variable currently resides in, if it was ever touched.
    pub fn node_of_var(&self, v: VarId) -> Option<NodeId> {
        self.var_node.get(v.index()).copied().flatten()
    }

    /// An O(1) estimate of the live bytes this graph holds — what a
    /// clone-based branch fork would copy. Counts the live nodes, the
    /// placed variables and the journal by element size; per-node
    /// `vars`/`out` spill is approximated by the journal (every placement
    /// and edge passed through it). Lengths only, never capacities: the
    /// buffers kept for reuse are not path state, and a budget trip must
    /// not depend on what earlier roots left behind.
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

    /// Pushes an empty node, reusing a spare one when rollback left any.
    fn new_node(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many alias nodes"));
        let node = self.spare.pop().unwrap_or_default();
        self.nodes.push(node);
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
                    // Every placement into the node and every edge out of
                    // it was journaled after its creation, so it is empty
                    // by now; keep it (and its buffers) for `new_node`.
                    let node = self.nodes.pop().expect("journal/node mismatch");
                    debug_assert!(
                        node.vars.is_empty() && node.out.is_empty(),
                        "rollback order violated"
                    );
                    self.spare.push(node);
                }
            }
        }
    }

    /// Empties the graph for the next root, keeping every buffer: a
    /// rollback to the creation mark, so it costs what the journal holds
    /// (what the last root touched), and every `var_node` entry is `None`
    /// again however high the placed variable ids were.
    pub(crate) fn reset(&mut self) {
        self.rollback(Mark(0));
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
    fn reset_leaves_a_clean_index() {
        let far = v(100_000);
        let mut g = AliasGraph::new();
        g.handle_gep(far, v(7), pata_ir::Interner::new().intern("f"));
        g.handle_move(v(8), v(7));
        g.handle_store(v(8), v(3));
        g.reset();
        assert!(g.var_node.len() > far.index(), "the index is kept");
        assert!(g.var_node.iter().all(Option::is_none));
        assert_eq!((g.node_count(), g.placed, g.journal.len()), (0, 0, 0));
        assert!(!g.spare.is_empty(), "the nodes are kept for reuse");
    }

    #[test]
    fn recycled_nodes_are_empty_and_behave_like_fresh_ones() {
        let mut interner = pata_ir::Interner::new();
        let f = interner.intern("f");
        // The same updates on a fresh graph and on one whose nodes all
        // come back from a rollback.
        let build = |g: &mut AliasGraph| {
            g.handle_gep(v(1), v(0), f);
            g.handle_move(v(2), v(1));
            g.handle_store(v(1), v(3));
            g.handle_load(v(4), v(2));
        };
        let mut fresh = AliasGraph::new();
        build(&mut fresh);
        let mut reused = AliasGraph::new();
        let mark = reused.mark();
        for i in 0..6 {
            reused.handle_gep(v(10 + i), v(0), f);
            reused.handle_store(v(10 + i), v(20 + i));
            reused.handle_move(v(30 + i), v(10 + i));
        }
        reused.rollback(mark);
        assert!(reused.spare.len() >= fresh.node_count());
        let spare_before = reused.spare.len();
        build(&mut reused);
        assert_eq!(reused.spare.len(), spare_before - fresh.node_count());
        assert_eq!(reused.node_count(), fresh.node_count());
        for i in 0..fresh.node_count() {
            let n = NodeId(i as u32);
            assert_eq!(reused.vars(n), fresh.vars(n));
            assert_eq!(reused.out_edges(n), fresh.out_edges(n));
            assert_eq!(reused.alias_set_size(n), fresh.alias_set_size(n));
            assert_eq!(reused.access_paths(n, 2), fresh.access_paths(n, 2));
        }
        // A node re-created after rollback starts with nothing in it.
        let mark = reused.mark();
        let n = reused.detach_to_fresh(v(5));
        reused.rollback(mark);
        let m = reused.node_of(v(6));
        assert_eq!(m, n);
        assert_eq!(reused.vars(m), &[v(6)]);
        assert!(reused.out_edges(m).is_empty());
    }

    #[test]
    fn clone_leaves_the_spare_nodes_behind() {
        let mut g = AliasGraph::new();
        let mark = g.mark();
        g.handle_store(v(0), v(1));
        g.rollback(mark);
        g.handle_move(v(2), v(3));
        let copy = g.clone();
        assert!(copy.spare.is_empty());
        assert_eq!(copy.node_count(), g.node_count());
        assert_eq!(copy.node_of_var(v(2)), g.node_of_var(v(3)));
    }

    #[test]
    fn rollback_to_empty_leaves_a_clean_index() {
        let mut g = AliasGraph::new();
        let mark = g.mark();
        g.handle_gep(v(100_000), v(7), pata_ir::Interner::new().intern("f"));
        g.handle_move(v(8), v(7));
        g.rollback(mark);
        assert_eq!(g.placed, 0);
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
