//! The conjunction solver: integer difference logic with a zero node,
//! plus disequality refutation and opaque-term congruence.
//!
//! ## Deciding difference logic
//!
//! Every asserted constraint is linearized and classified immediately, and
//! the difference graph maintains a feasible potential function
//! (`dist[v] <= dist[u] + w` for every edge `v - u <= w`) that is repaired
//! locally when an edge arrives — the standard incremental difference-logic
//! propagation of Cotton & Maler (DPLL(T) difference constraints). A
//! solver only grows: stage 2 builds a fresh one for each conjunction it
//! has to decide, and the conjunctions are small because every alias set
//! shares one symbol.
//!
//! [`Solver::check`] is cheap: the potential function already certifies
//! satisfiability of the difference fragment, so only the (rare)
//! disequalities need shortest-path queries — run as Dijkstra over
//! reduced costs, which the potentials keep non-negative.

use crate::linear::{linearize, LinExpr, OpaqueInterner, OpaqueKey};
use crate::term::{CmpOp, Constraint, SymId, Term};
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// The outcome of a satisfiability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// The conjunction is satisfiable within the decided fragment.
    Sat,
    /// The conjunction is definitely unsatisfiable — the code path is
    /// infeasible and the candidate bug is a false positive.
    Unsat,
    /// No contradiction found, but some constraints fell outside the decided
    /// fragment. PATA treats this as feasible (conservative towards keeping
    /// bugs), matching the paper's residual-false-positive behaviour (§5.2).
    Unknown,
}

impl fmt::Display for SatResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SatResult::Sat => "sat",
            SatResult::Unsat => "unsat",
            SatResult::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Counters describing one solver run; surfaced into PATA's Table 5
/// "SMT constraints" accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Constraints asserted.
    pub constraints: usize,
    /// Difference edges derived.
    pub edges: usize,
    /// Disequalities tracked.
    pub disequalities: usize,
    /// Constraints outside the decided fragment.
    pub unknown: usize,
    /// Cumulative interval-propagation steps (potential repairs plus
    /// shortest-path relaxations) over the solver's lifetime.
    pub propagations: u64,
}

/// One difference edge `v - u <= w`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    u: u32,
    v: u32,
    w: i64,
}

/// A conjunction solver over integer symbols.
///
/// Create symbols with [`Solver::fresh_symbol`], assert constraints with
/// [`Solver::assert_cmp`] / [`Solver::assert_constraint`], then call
/// [`Solver::check`]. Checking does not consume the conjunction: more
/// constraints may be asserted and checked again, but none can be retracted
/// — decide a different conjunction with a new solver.
///
/// # Example
///
/// ```
/// use pata_smt::{Solver, Term, CmpOp, SatResult};
///
/// let mut s = Solver::new();
/// let x = s.fresh_symbol();
/// let y = s.fresh_symbol();
/// s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::sym(y).add(Term::int(1)));
/// assert_eq!(s.check(), SatResult::Sat);
/// s.assert_cmp(CmpOp::Lt, Term::sym(x), Term::sym(y));
/// assert_eq!(s.check(), SatResult::Unsat); // x == y+1 contradicts x < y
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    next_sym: u32,
    opaque: HashMap<OpaqueKey, SymId>,
    constraints: Vec<Constraint>,

    edges: Vec<Edge>,
    /// Outgoing edge indices per node (node 0 is the zero vertex).
    adj: Vec<Vec<usize>>,
    /// Disequalities as (node_a, node_b, c): value(a) - value(b) != c.
    diseqs: Vec<(u32, u32, i64)>,
    /// Constraints outside the decided fragment.
    unknown: usize,
    /// Constant-false constraints asserted (e.g. `1 == 2`).
    contradictions: usize,

    /// Feasible potentials: `dist[v] <= dist[u] + w` for every edge.
    dist: Vec<i64>,
    /// A negative cycle was found; the difference fragment is unsat.
    neg_cycle: bool,
    /// Lifetime interval-propagation step count (see [`SolverStats`]).
    propagations: u64,
}

struct InternerView<'a> {
    next_sym: &'a mut u32,
    opaque: &'a mut HashMap<OpaqueKey, SymId>,
}

impl OpaqueInterner for InternerView<'_> {
    fn opaque_symbol(&mut self, key: OpaqueKey) -> SymId {
        if let Some(&s) = self.opaque.get(&key) {
            return s;
        }
        let s = SymId(*self.next_sym);
        *self.next_sym += 1;
        self.opaque.insert(key, s);
        s
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh symbol.
    pub fn fresh_symbol(&mut self) -> SymId {
        let s = SymId(self.next_sym);
        self.next_sym += 1;
        s
    }

    /// Makes sure symbols created elsewhere (e.g. by PATA's alias-set → X
    /// mapping) are known; call with the highest external id.
    pub fn reserve_symbols(&mut self, count: u32) {
        self.next_sym = self.next_sym.max(count);
    }

    /// Asserts `lhs op rhs`.
    pub fn assert_cmp(&mut self, op: CmpOp, lhs: Term, rhs: Term) {
        self.assert_constraint(Constraint::new(op, lhs, rhs));
    }

    /// Asserts a prebuilt constraint, incrementally updating the difference
    /// graph and its feasible potentials.
    pub fn assert_constraint(&mut self, c: Constraint) {
        let mut view = InternerView {
            next_sym: &mut self.next_sym,
            opaque: &mut self.opaque,
        };
        let l = linearize(&c.lhs, &mut view);
        let r = linearize(&c.rhs, &mut view);
        let diff = l.sub(&r); // constraint: diff op 0
        match classify(&diff, c.op) {
            Classified::True => {}
            Classified::False => {
                self.contradictions += 1;
            }
            Classified::Edges(es) => {
                for e in es {
                    self.add_edge(e);
                }
            }
            Classified::Diseq(a, b, k) => {
                self.ensure_node(a.max(b));
                self.diseqs.push((a, b, k));
            }
            Classified::Unknown => {
                self.unknown += 1;
            }
        }
        self.constraints.push(c);
    }

    /// Number of constraints asserted so far.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether no constraints are asserted.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    fn ensure_node(&mut self, node: u32) {
        let need = node as usize + 1;
        if self.dist.len() < need {
            self.dist.resize(need, 0);
            self.adj.resize(need, Vec::new());
        }
    }

    /// Inserts a difference edge and repairs the potential function. If the
    /// repair wraps around to the edge's source, the graph has a negative
    /// cycle and the conjunction is unsatisfiable.
    fn add_edge(&mut self, e: Edge) {
        self.ensure_node(e.u.max(e.v));
        self.edges.push(e);
        self.adj[e.u as usize].push(self.edges.len() - 1);
        if self.neg_cycle {
            return; // already unsat; potentials stay stale
        }
        if e.u == e.v {
            if e.w < 0 {
                self.neg_cycle = true;
            }
            return;
        }
        let cand = self.dist[e.u as usize].saturating_add(e.w);
        if cand >= self.dist[e.v as usize] {
            return; // potentials still feasible
        }
        self.dist[e.v as usize] = cand;
        // Local repair: propagate the decrease. Reaching the inserted
        // edge's source means the new edge closed a negative cycle.
        let mut queue: Vec<u32> = vec![e.v];
        while let Some(x) = queue.pop() {
            self.propagations += 1;
            let dx = self.dist[x as usize];
            for i in 0..self.adj[x as usize].len() {
                let out = self.edges[self.adj[x as usize][i]];
                let cand = dx.saturating_add(out.w);
                if cand < self.dist[out.v as usize] {
                    if out.v == e.u {
                        self.neg_cycle = true;
                        return;
                    }
                    self.dist[out.v as usize] = cand;
                    queue.push(out.v);
                }
            }
        }
    }

    /// Shortest path weight `from → to`, or `None` when unreachable.
    /// Dijkstra over reduced costs `w + dist[u] - dist[v]`, which the
    /// feasible potentials keep non-negative.
    fn shortest_path(&mut self, from: u32, to: u32) -> Option<i64> {
        let n = self.dist.len();
        if from as usize >= n || to as usize >= n {
            return if from == to { Some(0) } else { None };
        }
        const INF: i64 = i64::MAX / 4;
        let mut red = vec![INF; n];
        let mut heap: BinaryHeap<std::cmp::Reverse<(i64, u32)>> = BinaryHeap::new();
        red[from as usize] = 0;
        heap.push(std::cmp::Reverse((0, from)));
        while let Some(std::cmp::Reverse((d, x))) = heap.pop() {
            self.propagations += 1;
            if d > red[x as usize] {
                continue;
            }
            if x == to {
                break;
            }
            for &ei in &self.adj[x as usize] {
                let e = self.edges[ei];
                let rc =
                    e.w.saturating_add(self.dist[e.u as usize])
                        .saturating_sub(self.dist[e.v as usize]);
                debug_assert!(rc >= 0, "potentials must keep reduced costs non-negative");
                let cand = d.saturating_add(rc);
                if cand < red[e.v as usize] {
                    red[e.v as usize] = cand;
                    heap.push(std::cmp::Reverse((cand, e.v)));
                }
            }
        }
        if red[to as usize] >= INF {
            None
        } else {
            // Undo the reduction: sp = sp_red - dist[from] + dist[to].
            Some(
                red[to as usize]
                    .saturating_sub(self.dist[from as usize])
                    .saturating_add(self.dist[to as usize]),
            )
        }
    }

    /// Decides the conjunction. See [`SatResult`].
    pub fn check(&mut self) -> SatResult {
        self.check_with_stats().0
    }

    /// Decides the conjunction and reports solver statistics.
    pub fn check_with_stats(&mut self) -> (SatResult, SolverStats) {
        let result = self.decide();
        let stats = SolverStats {
            constraints: self.constraints.len(),
            edges: self.edges.len(),
            disequalities: self.diseqs.len(),
            unknown: self.unknown,
            propagations: self.propagations,
        };
        (result, stats)
    }

    /// Lifetime interval-propagation step count (see [`SolverStats`]).
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    fn decide(&mut self) -> SatResult {
        if self.contradictions > 0 || self.neg_cycle {
            return SatResult::Unsat;
        }
        for i in 0..self.diseqs.len() {
            let (a, b, k) = self.diseqs[i];
            // value(a) - value(b) != k is refuted when the graph pins
            // value(a) - value(b) to exactly k.
            let d_ab = self.shortest_path(b, a); // value(a)-value(b) <= d_ab
            let d_ba = self.shortest_path(a, b); // value(b)-value(a) <= d_ba
            if let (Some(up), Some(down)) = (d_ab, d_ba) {
                if up <= k && down <= -k {
                    return SatResult::Unsat;
                }
            }
        }
        if self.unknown > 0 {
            SatResult::Unknown
        } else {
            SatResult::Sat
        }
    }
}

fn node(s: SymId) -> u32 {
    s.0 + 1
}

enum Classified {
    True,
    False,
    Edges(Vec<Edge>),
    Diseq(u32, u32, i64),
    Unknown,
}

/// Turns `diff op 0` into difference edges / disequalities.
fn classify(diff: &LinExpr, op: CmpOp) -> Classified {
    // Pure constant.
    if let Some(v) = diff.as_const() {
        let holds = match op {
            CmpOp::Eq => v == 0,
            CmpOp::Ne => v != 0,
            CmpOp::Lt => v < 0,
            CmpOp::Le => v <= 0,
            CmpOp::Gt => v > 0,
            CmpOp::Ge => v >= 0,
        };
        return if holds {
            Classified::True
        } else {
            Classified::False
        };
    }

    // Reduce Gt/Ge to Lt/Le by negating the expression.
    let (expr, op) = match op {
        CmpOp::Gt => (LinExpr::zero().sub(diff), CmpOp::Lt),
        CmpOp::Ge => (LinExpr::zero().sub(diff), CmpOp::Le),
        _ => (diff.clone(), op),
    };
    // Strict to non-strict over the integers.
    let (expr, op) = match op {
        CmpOp::Lt => {
            let mut e = expr;
            e.konst += 1;
            (e, CmpOp::Le)
        }
        other => (expr, other),
    };

    // k·x + c op 0 for arbitrary k.
    if expr.coeffs.len() == 1 {
        let (&s, &k) = expr.coeffs.iter().next().unwrap();
        let c = expr.konst;
        let x = node(s);
        return match op {
            CmpOp::Le => {
                // k·x <= -c
                let bound = -c;
                if k > 0 {
                    Classified::Edges(vec![Edge {
                        u: 0,
                        v: x,
                        w: bound.div_euclid(k),
                    }])
                } else {
                    // x >= ceil(bound/k) → zero - x <= -ceil
                    let lo = ceil_div(bound, k);
                    Classified::Edges(vec![Edge { u: x, v: 0, w: -lo }])
                }
            }
            CmpOp::Eq => {
                if c % k == 0 {
                    let v = -c / k;
                    Classified::Edges(vec![Edge { u: 0, v: x, w: v }, Edge { u: x, v: 0, w: -v }])
                } else {
                    Classified::False
                }
            }
            CmpOp::Ne => {
                if c % k == 0 {
                    Classified::Diseq(x, 0, -c / k)
                } else {
                    Classified::True
                }
            }
            _ => unreachable!("normalized above"),
        };
    }

    // x - y + c op 0.
    if let Some((xs, ys, c)) = expr.as_difference() {
        let (x, y) = (node(xs), node(ys));
        return match op {
            // x - y <= -c  ⇒ edge y → x with weight -c.
            CmpOp::Le => Classified::Edges(vec![Edge { u: y, v: x, w: -c }]),
            CmpOp::Eq => {
                Classified::Edges(vec![Edge { u: y, v: x, w: -c }, Edge { u: x, v: y, w: c }])
            }
            CmpOp::Ne => Classified::Diseq(x, y, -c),
            _ => unreachable!("normalized above"),
        };
    }

    Classified::Unknown
}

/// Integer ceiling division for any nonzero divisor sign.
fn ceil_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    let r = a % b;
    if r != 0 && ((r > 0) == (b > 0)) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::OpaqueOp;

    fn two_syms(s: &mut Solver) -> (SymId, SymId) {
        (s.fresh_symbol(), s.fresh_symbol())
    }

    #[test]
    fn trivially_sat_empty() {
        let mut s = Solver::new();
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn constant_contradiction() {
        let mut s = Solver::new();
        s.assert_cmp(CmpOp::Eq, Term::int(1), Term::int(2));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn eq_then_ne_same_symbol_unsat() {
        let mut s = Solver::new();
        let x = s.fresh_symbol();
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::int(0));
        s.assert_cmp(CmpOp::Ne, Term::sym(x), Term::int(0));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn null_check_both_branches_infeasible() {
        // Paper Fig. 9: cfg == NULL (line 2) and cfg->frnd path needs
        // cfg != NULL — modeled as x == 0 && x != 0.
        let mut s = Solver::new();
        let x = s.fresh_symbol();
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::int(0));
        s.assert_cmp(CmpOp::Gt, Term::sym(x), Term::int(0));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn chain_of_equalities_propagates() {
        let mut s = Solver::new();
        let (x, y) = two_syms(&mut s);
        let z = s.fresh_symbol();
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::sym(y));
        s.assert_cmp(CmpOp::Eq, Term::sym(y), Term::sym(z));
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::int(3));
        s.assert_cmp(CmpOp::Eq, Term::sym(z), Term::int(4));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn offset_equalities() {
        let mut s = Solver::new();
        let (x, y) = two_syms(&mut s);
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::sym(y).add(Term::int(1)));
        s.assert_cmp(CmpOp::Lt, Term::sym(x), Term::sym(y));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn satisfiable_interval() {
        let mut s = Solver::new();
        let x = s.fresh_symbol();
        s.assert_cmp(CmpOp::Ge, Term::sym(x), Term::int(0));
        s.assert_cmp(CmpOp::Lt, Term::sym(x), Term::int(10));
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn empty_interval_unsat() {
        let mut s = Solver::new();
        let x = s.fresh_symbol();
        s.assert_cmp(CmpOp::Gt, Term::sym(x), Term::int(5));
        s.assert_cmp(CmpOp::Lt, Term::sym(x), Term::int(6));
        assert_eq!(s.check(), SatResult::Unsat); // no integer in (5,6)
    }

    #[test]
    fn diseq_on_pinned_difference() {
        let mut s = Solver::new();
        let (x, y) = two_syms(&mut s);
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::sym(y).add(Term::int(2)));
        s.assert_cmp(CmpOp::Ne, Term::sym(x).sub(Term::sym(y)), Term::int(2));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn diseq_with_slack_sat() {
        let mut s = Solver::new();
        let (x, y) = two_syms(&mut s);
        s.assert_cmp(CmpOp::Le, Term::sym(x), Term::sym(y));
        s.assert_cmp(CmpOp::Ne, Term::sym(x), Term::sym(y));
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn scaled_coefficient_eq_divisibility() {
        let mut s = Solver::new();
        let x = s.fresh_symbol();
        // 2x == 5 has no integer solution.
        s.assert_cmp(CmpOp::Eq, Term::sym(x).mul(Term::int(2)), Term::int(5));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn scaled_coefficient_bound() {
        let mut s = Solver::new();
        let x = s.fresh_symbol();
        // 2x <= 5 ⇒ x <= 2; x >= 3 contradicts.
        s.assert_cmp(CmpOp::Le, Term::sym(x).mul(Term::int(2)), Term::int(5));
        s.assert_cmp(CmpOp::Ge, Term::sym(x), Term::int(3));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn opaque_congruence_refutes_self_diseq() {
        let mut s = Solver::new();
        let (x, y) = two_syms(&mut s);
        let t1 = Term::opaque(OpaqueOp::Div, Term::sym(x), Term::sym(y));
        let t2 = Term::opaque(OpaqueOp::Div, Term::sym(x), Term::sym(y));
        s.assert_cmp(CmpOp::Ne, t1, t2);
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn opaque_distinct_args_unknown_not_unsat() {
        let mut s = Solver::new();
        let (x, y) = two_syms(&mut s);
        let t1 = Term::opaque(OpaqueOp::Div, Term::sym(x), Term::int(2));
        let t2 = Term::opaque(OpaqueOp::Div, Term::sym(y), Term::int(2));
        s.assert_cmp(CmpOp::Ne, t1, t2);
        assert_ne!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn nonlinear_is_unknown() {
        let mut s = Solver::new();
        let (x, y) = two_syms(&mut s);
        let z = s.fresh_symbol();
        // x*y + z > 0 with three symbols — outside the fragment.
        s.assert_cmp(
            CmpOp::Gt,
            Term::sym(x)
                .mul(Term::sym(y))
                .add(Term::sym(z))
                .add(Term::sym(x)),
            Term::int(0),
        );
        assert_eq!(s.check(), SatResult::Unknown);
    }

    #[test]
    fn transitive_difference_cycle_unsat() {
        let mut s = Solver::new();
        let (x, y) = two_syms(&mut s);
        let z = s.fresh_symbol();
        s.assert_cmp(CmpOp::Lt, Term::sym(x), Term::sym(y));
        s.assert_cmp(CmpOp::Lt, Term::sym(y), Term::sym(z));
        s.assert_cmp(CmpOp::Lt, Term::sym(z), Term::sym(x));
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn stats_reported() {
        let mut s = Solver::new();
        let x = s.fresh_symbol();
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::int(1));
        s.assert_cmp(CmpOp::Ne, Term::sym(x), Term::int(2));
        let (res, stats) = s.check_with_stats();
        assert_eq!(res, SatResult::Sat);
        assert_eq!(stats.constraints, 2);
        assert!(stats.edges >= 2);
        assert_eq!(stats.disequalities, 1);
    }

    #[test]
    fn propagations_count_work_monotonically() {
        let mut s = Solver::new();
        let (x, y) = two_syms(&mut s);
        assert_eq!(s.propagations(), 0);
        s.assert_cmp(CmpOp::Lt, Term::sym(x), Term::sym(y));
        s.assert_cmp(CmpOp::Lt, Term::sym(y), Term::int(0));
        let after_assert = s.propagations();
        s.assert_cmp(CmpOp::Ne, Term::sym(x), Term::sym(y));
        let (_, stats) = s.check_with_stats();
        assert!(
            stats.propagations > after_assert,
            "check must count Dijkstra pops"
        );
        assert_eq!(s.propagations(), stats.propagations);
    }

    #[test]
    fn check_is_repeatable() {
        let mut s = Solver::new();
        let x = s.fresh_symbol();
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::int(1));
        assert_eq!(s.check(), SatResult::Sat);
        assert_eq!(s.check(), SatResult::Sat);
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::int(2));
        assert_eq!(s.check(), SatResult::Unsat);
    }
}
