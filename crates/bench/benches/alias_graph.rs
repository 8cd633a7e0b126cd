//! Micro-benchmarks for the alias graph: the Fig. 5 update rules and the
//! journal rollback that gives each path its own graph.
//!
//! The `per_graph` pair builds and drops a small graph (one root's worth
//! of state) whose variable ids sit near 0 and near 1,000,000. A graph
//! must cost what it places, not the size of the id space, so the bench
//! exits 1 when the high-id graph costs over 2x the low-id one.

use pata_bench::harness::{bench, hold};
use pata_core::alias::AliasGraph;
use pata_ir::{Interner, Symbol, VarId};

/// Largest allowed high-id / low-id per-graph time.
const MAX_ID_COST_RATIO: f64 = 2.0;

/// Builds and drops a 32-variable graph over ids `base..base + 32`.
fn small_graph(base: usize, fields: &[Symbol]) -> usize {
    let mut g = AliasGraph::new();
    for i in 1..16usize {
        g.handle_move(VarId::from_index(base + i), VarId::from_index(base));
    }
    for i in 16..32usize {
        g.handle_gep(
            VarId::from_index(base + i),
            VarId::from_index(base + i % 4),
            fields[i % fields.len()],
        );
    }
    g.node_count()
}

fn main() {
    let mut interner = Interner::new();
    let fields: Vec<_> = (0..8).map(|i| interner.intern(&format!("f{i}"))).collect();

    bench("alias_graph/move_chain_100", || {
        let mut g = AliasGraph::new();
        for i in 1..100usize {
            g.handle_move(VarId::from_index(i), VarId::from_index(i - 1));
        }
        hold(g.node_count())
    });

    bench("alias_graph/gep_load_tree_100", || {
        let mut g = AliasGraph::new();
        for i in 0..100usize {
            let base = VarId::from_index(i % 10);
            let t = VarId::from_index(100 + i);
            let r = VarId::from_index(300 + i);
            g.handle_gep(t, base, fields[i % fields.len()]);
            g.handle_load(r, t);
        }
        hold(g.node_count())
    });

    {
        let mut g = AliasGraph::new();
        for i in 1..40usize {
            g.handle_move(VarId::from_index(i), VarId::from_index(i - 1));
        }
        bench("alias_graph/mark_rollback_50ops", || {
            let mark = g.mark();
            for i in 0..50usize {
                g.handle_gep(
                    VarId::from_index(200 + i),
                    VarId::from_index(i % 40),
                    fields[i % fields.len()],
                );
            }
            g.rollback(mark);
            hold(g.node_count())
        });
    }

    {
        let mut g = AliasGraph::new();
        for i in 1..20usize {
            g.handle_move(VarId::from_index(i), VarId::from_index(0));
        }
        let t = VarId::from_index(50);
        let n = g.handle_gep(t, VarId::from_index(0), fields[0]);
        bench("alias_graph/access_paths", || {
            hold(g.access_paths(n, 2).len())
        });
    }

    let low = bench("alias_graph/per_graph_ids_near_0", || {
        hold(small_graph(0, &fields))
    });
    let high = bench("alias_graph/per_graph_ids_near_1m", || {
        hold(small_graph(1_000_000, &fields))
    });
    let ratio = high.best_ns / low.best_ns.max(1e-9);
    if ratio > MAX_ID_COST_RATIO {
        println!(
            "FAIL: a graph over ids near 1,000,000 costs {ratio:.1}x one over ids near 0 \
             (target ≤{MAX_ID_COST_RATIO}x)"
        );
        std::process::exit(1);
    }
    println!(
        "PASS: per-graph cost is independent of id size ({ratio:.2}x, target ≤{MAX_ID_COST_RATIO}x)"
    );
}
