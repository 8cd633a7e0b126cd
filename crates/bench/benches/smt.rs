//! Micro-benchmarks for the conjunction solver: the workload of the
//! paper's Stage-2 path validation (one small constraint system per
//! candidate bug), plus a batch of systems that share a long prefix.

use pata_bench::harness::{bench, hold};
use pata_smt::{CmpOp, SatResult, Solver, Term};

fn main() {
    bench("smt/feasible_chain_50", || {
        let mut s = Solver::new();
        let syms: Vec<_> = (0..50).map(|_| s.fresh_symbol()).collect();
        for w in syms.windows(2) {
            s.assert_cmp(CmpOp::Le, Term::sym(w[0]), Term::sym(w[1]));
        }
        hold(s.check())
    });

    bench("smt/infeasible_cycle_50", || {
        let mut s = Solver::new();
        let syms: Vec<_> = (0..50).map(|_| s.fresh_symbol()).collect();
        for w in syms.windows(2) {
            s.assert_cmp(CmpOp::Lt, Term::sym(w[0]), Term::sym(w[1]));
        }
        s.assert_cmp(CmpOp::Lt, Term::sym(syms[49]), Term::sym(syms[0]));
        hold(s.check())
    });

    bench("smt/null_check_pattern", || {
        // The shape Stage 2 solves for a typical NPD candidate.
        let mut s = Solver::new();
        let p = s.fresh_symbol();
        let f = s.fresh_symbol();
        let n = s.fresh_symbol();
        s.assert_cmp(CmpOp::Eq, Term::sym(p), Term::int(0));
        s.assert_cmp(CmpOp::Eq, Term::sym(f), Term::sym(n).add(Term::int(4)));
        s.assert_cmp(CmpOp::Gt, Term::sym(n), Term::int(0));
        hold(s.check())
    });

    bench("smt/diseq_refutation", || {
        let mut s = Solver::new();
        let x = s.fresh_symbol();
        let y = s.fresh_symbol();
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::sym(y).add(Term::int(2)));
        s.assert_cmp(CmpOp::Ne, Term::sym(x).sub(Term::sym(y)), Term::int(2));
        hold(s.check())
    });

    // Shared-prefix workload: a 50-constraint prefix plus 8 different two-
    // constraint suffixes, each system decided by a fresh solver.
    bench("smt/shared_prefix_batch", || {
        let mut total = 0usize;
        for suffix in 0..8i64 {
            let mut s = Solver::new();
            let syms: Vec<_> = (0..50).map(|_| s.fresh_symbol()).collect();
            for w in syms.windows(2) {
                s.assert_cmp(CmpOp::Le, Term::sym(w[0]), Term::sym(w[1]));
            }
            s.assert_cmp(CmpOp::Ge, Term::sym(syms[49]), Term::int(suffix));
            s.assert_cmp(CmpOp::Le, Term::sym(syms[0]), Term::int(suffix));
            total += (s.check() == SatResult::Unsat) as usize;
        }
        hold(total)
    });
}
