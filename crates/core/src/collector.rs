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

use pata_ir::{Callee, FuncId, Function, InstKind, Module};

/// The module's direct-call graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallGraph {
    /// `callees[f]` = functions directly called by `f`, in the order of
    /// their first call in `f`'s blocks.
    pub callees: Vec<Vec<FuncId>>,
    /// `callers[f]` = functions directly calling `f`, by ascending id.
    pub callers: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the direct-call graph of `module`.
    pub fn build(module: &Module) -> Self {
        let callees: Vec<Vec<FuncId>> = module.functions().iter().map(callees_of).collect();
        let mut callers = vec![Vec::new(); callees.len()];
        for (from, targets) in callees.iter().enumerate() {
            for target in targets {
                callers[target.index()].push(FuncId::from_index(from));
            }
        }
        CallGraph { callees, callers }
    }

    /// Replaces the callee edges of `funcs`, which were lowered again in
    /// place into `module`, and the caller edges that mirror them, so the
    /// graph equals [`CallGraph::build`] of `module`. Returns the functions
    /// whose caller sets changed, ascending.
    pub(crate) fn update(&mut self, module: &Module, funcs: &[FuncId]) -> Vec<FuncId> {
        let mut touched = Vec::new();
        for &f in funcs {
            let new = callees_of(module.function(f));
            let old = std::mem::replace(&mut self.callees[f.index()], new);
            let new = &self.callees[f.index()];
            for &gone in old.iter().filter(|t| !new.contains(t)) {
                let callers = &mut self.callers[gone.index()];
                if let Ok(at) = callers.binary_search(&f) {
                    callers.remove(at);
                }
                touched.push(gone);
            }
            for &added in new.iter().filter(|t| !old.contains(t)) {
                let callers = &mut self.callers[added.index()];
                if let Err(at) = callers.binary_search(&f) {
                    callers.insert(at, f);
                }
                touched.push(added);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Whether `f` is an interface function: no caller other than itself.
    fn is_interface(&self, f: FuncId) -> bool {
        self.callers[f.index()].iter().all(|&c| c == f)
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
        (0..self.callers.len())
            .map(FuncId::from_index)
            .filter(|&f| self.is_interface(f))
            .collect()
    }
}

/// The direct callees of `func`, deduplicated, in first-call order.
fn callees_of(func: &Function) -> Vec<FuncId> {
    let mut callees = Vec::new();
    for block in func.blocks() {
        for inst in &block.insts {
            if let InstKind::Call {
                callee: Callee::Direct(target),
                ..
            } = &inst.kind
            {
                if !callees.contains(target) {
                    callees.push(*target);
                }
            }
        }
    }
    callees
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

/// [`mark_interfaces_with_graph`] for a module whose functions `funcs`
/// were lowered again in place since `graph` and `roots` were built for
/// it: updates the graph's edges for those functions, the roots (ascending)
/// and the interface flags of every function lowered again or whose
/// callers changed, so all three equal what a full marking gives.
pub(crate) fn remark_interfaces(
    module: &mut Module,
    graph: &mut CallGraph,
    roots: &mut Vec<FuncId>,
    funcs: &[FuncId],
) {
    let mut marked = graph.update(module, funcs);
    marked.extend_from_slice(funcs);
    marked.sort_unstable();
    marked.dedup();
    for f in marked {
        let is_root = graph.is_interface(f);
        match (roots.binary_search(&f), is_root) {
            (Err(at), true) => roots.insert(at, f),
            (Ok(at), false) => {
                roots.remove(at);
            }
            _ => {}
        }
        module.function_mut(f).set_interface(is_root);
    }
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

    /// Updating the graph for the functions whose calls changed gives what
    /// building it over the new module gives: callers stay ordered by id,
    /// and roots and interface flags follow the changed caller sets.
    #[test]
    fn update_equals_a_rebuild() {
        let before = compile(
            r#"
            int a(int x) { return x; }
            int b(int x) { return leaf(x); }
            int c(int x) { return leaf(x) + a(x); }
            int leaf(int x) { return x; }
            int d(int x) { return c(x); }
            "#,
        );
        let mut after = compile(
            r#"
            int a(int x) { return leaf(x); }
            int b(int x) { return leaf(x); }
            int c(int x) { return x; }
            int leaf(int x) { return x; }
            int d(int x) { return c(x) + d(x); }
            "#,
        );
        let mut graph = CallGraph::build(&before);
        let mut kept = before.clone();
        let mut roots = mark_interfaces(&mut kept);
        let changed: Vec<FuncId> = ["a", "c", "d"]
            .iter()
            .map(|n| after.function_by_name(n).unwrap())
            .collect();
        // Functions lowered again come unmarked; the others keep their flag.
        for f in kept
            .functions()
            .iter()
            .filter(|f| !changed.contains(&f.id()))
        {
            after.function_mut(f.id()).set_interface(f.is_interface());
        }
        remark_interfaces(&mut after, &mut graph, &mut roots, &changed);
        let mut rebuilt = after.clone();
        let (cold_roots, cold_graph) = mark_interfaces_with_graph(&mut rebuilt);
        assert_eq!(graph, cold_graph);
        let leaf = after.function_by_name("leaf").unwrap();
        assert_eq!(graph.callers[leaf.index()].len(), 2);
        assert_eq!(roots, cold_roots);
        let flags =
            |m: &Module| -> Vec<bool> { m.functions().iter().map(|f| f.is_interface()).collect() };
        assert_eq!(flags(&after), flags(&rebuilt));
        // `a` lost its only caller.
        let a = after.function_by_name("a").unwrap();
        assert!(roots.contains(&a) && !kept.function(a).is_interface());
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
