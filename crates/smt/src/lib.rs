//! # pata-smt — a conjunction-only SMT solver for PATA path validation
//!
//! PATA's alias-aware path-validation method (§3.3 of the paper) translates
//! the instructions of a candidate bug's code path into SMT constraints
//! (Table 3) and asks a solver whether their *conjunction* is satisfiable.
//! The paper uses Z3; this crate implements the decision procedure the
//! validation workload actually needs:
//!
//! * **Equalities and difference constraints** over integer symbols
//!   (`x == y + 3`, `x - y <= c`, `x < 7`) are decided exactly over a
//!   difference-constraint graph with a virtual zero node (integer
//!   difference logic, IDL): a feasible potential function is repaired as
//!   each edge arrives, and a repair that reaches the new edge's source is
//!   a negative cycle.
//! * **Disequalities** (`x != y + c`) refute when the difference graph pins
//!   `x - y` to exactly `c`.
//! * **Non-linear or otherwise unsupported terms** (e.g. `a * b`, `a / b`)
//!   are *hash-consed into opaque symbols* (EUF-lite congruence: two
//!   structurally identical applications of the same operator map to the
//!   same symbol), so `t != t` still refutes while `a*b > 0` is treated as
//!   satisfiable-unless-contradicted.
//!
//! The solver is deliberately **conservative towards SAT**: an `Unknown`
//! fragment never refutes a path. For bug filtering this errs exactly the
//! way the paper's implementation does (§5.2: residual false positives from
//! "complex arithmetic conditions"), and never drops a real bug on account
//! of solver incompleteness.
//!
//! A [`Solver`] holds one conjunction and only grows; there are no
//! assertion scopes. Validation systems are small (every alias set shares
//! one symbol), so a caller decides each conjunction with a fresh solver.
//!
//! # Example
//!
//! ```
//! use pata_smt::{Solver, Term, CmpOp, SatResult};
//!
//! // Paper Fig. 9: R(p->f)==0 together with R(t->f)!=0 where t->f and
//! // p->f share one symbol — infeasible.
//! let mut solver = Solver::new();
//! let pf = solver.fresh_symbol();            // shared symbol for {t->f, p->f}
//! solver.assert_cmp(CmpOp::Eq, Term::sym(pf), Term::int(0));
//! solver.assert_cmp(CmpOp::Ne, Term::sym(pf), Term::int(0));
//! assert_eq!(solver.check(), SatResult::Unsat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod linear;
mod solver;
mod term;

pub use linear::LinExpr;
pub use solver::{SatResult, Solver, SolverStats};
pub use term::{CmpOp, Constraint, OpaqueOp, SymId, Term};
