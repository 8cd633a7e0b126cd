//! The information collector (paper §4, phase P1).
//!
//! Scans the module's call graph and marks *module interface functions* —
//! functions with no explicit caller in the OS code. These arise from the
//! multi-module, application-driven structure of OSes: driver callbacks are
//! registered through function-pointer struct fields (`.probe =
//! s5p_mfc_probe`, Fig. 1) and are never called directly. They are the
//! roots of PATA's top-down analysis, and the reason points-to analyses
//! miss aliases there (their parameters have empty points-to sets — the
//! paper's difficulty D1).

use pata_ir::{Callee, FuncId, InstKind, Module};

/// The module's direct-call graph.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// `callees[f]` = functions directly called by `f`.
    pub callees: Vec<Vec<FuncId>>,
    /// `callers[f]` = functions directly calling `f`.
    pub callers: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the direct-call graph of `module`.
    pub fn build(module: &Module) -> Self {
        let n = module.functions().len();
        let mut callees = vec![Vec::new(); n];
        let mut callers = vec![Vec::new(); n];
        for func in module.functions() {
            for block in func.blocks() {
                for inst in &block.insts {
                    if let InstKind::Call {
                        callee: Callee::Direct(target),
                        ..
                    } = &inst.kind
                    {
                        let from = func.id().index();
                        if !callees[from].contains(target) {
                            callees[from].push(*target);
                        }
                        if !callers[target.index()].contains(&func.id()) {
                            callers[target.index()].push(func.id());
                        }
                    }
                }
            }
        }
        CallGraph { callees, callers }
    }

    /// Total number of direct-call edges (deduplicated per caller/callee
    /// pair) — surfaced as the `collect.call_edges` telemetry counter.
    pub fn edge_count(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }

    /// Functions with no direct caller — the analysis roots. A function
    /// whose only caller is *itself* (direct recursion) still counts: no
    /// other code reaches it, so it must be analyzed from its own entry.
    pub fn interface_functions(&self) -> Vec<FuncId> {
        self.callers
            .iter()
            .enumerate()
            .filter(|(i, cs)| cs.iter().all(|c| c.index() == *i))
            .map(|(i, _)| FuncId::from_index(i))
            .collect()
    }
}

/// Builds the call graph and marks interface functions on the module:
/// every function's flag is set, to `true` for a root and `false`
/// otherwise, so a module kept across requests never carries a stale flag.
/// Returns the analysis roots.
pub fn mark_interfaces(module: &mut Module) -> Vec<FuncId> {
    mark_interfaces_with_graph(module).0
}

/// Like [`mark_interfaces`], but also returns the call graph so callers
/// (the driver's telemetry, external tooling) can inspect its size without
/// rebuilding it.
pub fn mark_interfaces_with_graph(module: &mut Module) -> (Vec<FuncId>, CallGraph) {
    let cg = CallGraph::build(module);
    let roots = cg.interface_functions();
    let mut next_root = roots.iter().peekable();
    for i in 0..module.functions().len() {
        let id = FuncId::from_index(i);
        let is_root = next_root.next_if_eq(&&id).is_some();
        module.function_mut(id).set_interface(is_root);
    }
    (roots, cg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        pata_cc::compile_one("cg.c", src).unwrap()
    }

    #[test]
    fn marking_clears_a_stale_interface_flag() {
        let mut m = compile(
            r#"
            static int helper(int x) { return x + 1; }
            static int entry(void) { return helper(2); }
            "#,
        );
        let helper = m.function_by_name("helper").unwrap();
        m.function_mut(helper).set_interface(true);
        let roots = mark_interfaces(&mut m);
        assert_eq!(roots, vec![m.function_by_name("entry").unwrap()]);
        assert!(!m.function(helper).is_interface());
        assert!(m.function(roots[0]).is_interface());
    }

    #[test]
    fn registered_probe_is_interface() {
        let mut m = compile(
            r#"
            struct pdev { int id; };
            static int my_probe(struct pdev *p) { return p->id; }
            static int helper(int x) { return x + 1; }
            static int my_init(void) { return helper(2); }
            static struct drv my_driver = { .probe = my_probe, .init = my_init };
            "#,
        );
        let roots = mark_interfaces(&mut m);
        let names: Vec<&str> = roots.iter().map(|&r| m.function(r).name()).collect();
        assert!(names.contains(&"my_probe"));
        assert!(names.contains(&"my_init"));
        assert!(!names.contains(&"helper"), "helper has an explicit caller");
        assert!(m
            .function(m.function_by_name("my_probe").unwrap())
            .is_interface());
        assert!(!m
            .function(m.function_by_name("helper").unwrap())
            .is_interface());
    }

    #[test]
    fn call_graph_edges() {
        let m = compile(
            r#"
            int leaf(int x) { return x; }
            int mid(int x) { return leaf(x) + leaf(x + 1); }
            int top(void) { return mid(3); }
            "#,
        );
        let cg = CallGraph::build(&m);
        let top = m.function_by_name("top").unwrap();
        let mid = m.function_by_name("mid").unwrap();
        let leaf = m.function_by_name("leaf").unwrap();
        assert_eq!(cg.callees[top.index()], vec![mid]);
        assert_eq!(cg.callees[mid.index()], vec![leaf]); // deduplicated
        assert_eq!(cg.callers[leaf.index()], vec![mid]);
        assert_eq!(cg.interface_functions(), vec![top]);
    }

    #[test]
    fn mutual_recursion_has_no_interface() {
        let m = compile(
            r#"
            int pong(int x);
            int ping(int x) { if (x > 0) { return pong(x - 1); } return 0; }
            int pong(int x) { if (x > 0) { return ping(x - 1); } return 1; }
            "#,
        );
        let cg = CallGraph::build(&m);
        assert!(cg.interface_functions().is_empty());
    }
}
