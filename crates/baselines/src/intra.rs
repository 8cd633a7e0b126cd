//! Intraprocedural, alias-blind pattern checking — the mechanism of the
//! Cppcheck / Smatch / Coccinelle tool family (paper §6/§8.1: "due to
//! lacking inter-procedural analysis or alias analysis, Cppcheck,
//! Coccinelle and Smatch miss complex bugs involving multiple functions or
//! alias relationships … and report many false bugs caused by infeasible
//! code paths").
//!
//! Because source-level tools match on expression *text*, this analyzer
//! reconstructs a syntactic key for every lowered temporary (`d->res`,
//! `*p`, `buf[i]`) by walking PIR def chains, and then matches patterns on
//! those keys:
//!
//! * **NPD**: a `p == NULL` test whose null branch can reach a dereference
//!   of the same expression; and the classic *dereference-before-check*.
//! * **UVA**: a local read before any syntactic assignment.
//! * **ML**: a `malloc` whose pointer is never freed / returned / stored
//!   anywhere in the same function.

use crate::svf_null::{deref_sites, null_evidence, reachable_from};
use crate::Analyzer;
use pata_core::{BugKind, BugReport};
use pata_ir::{
    Cfg, Function, InstKind, Module, Operand, ReversePostorder, Terminator, VarId, VarKind,
};
use std::collections::{HashMap, HashSet};

/// The intraprocedural pattern analyzer.
#[derive(Debug, Default)]
pub struct IntraPatternAnalyzer;

/// Reconstructs source-like expression strings for each variable of `func`
/// (temporaries resolve through their defining instruction).
pub(crate) fn expr_keys(module: &Module, func: &Function) -> HashMap<VarId, String> {
    let mut keys: HashMap<VarId, String> = HashMap::new();
    for &p in func.params() {
        keys.insert(p, module.var(p).name.to_string());
    }
    // Seed named locals and globals on the fly; temps resolve via defs in
    // program order (defs dominate uses in the lowering).
    let resolve = |keys: &HashMap<VarId, String>, v: VarId, module: &Module| -> String {
        if let Some(k) = keys.get(&v) {
            return k.clone();
        }
        module.var(v).name.to_string()
    };
    for block in func.blocks() {
        for inst in &block.insts {
            match &inst.kind {
                InstKind::Move { dst, src } => {
                    let k = resolve(&keys, *src, module);
                    keys.insert(*dst, k);
                }
                InstKind::Gep { dst, base, field } => {
                    let b = resolve(&keys, *base, module);
                    keys.insert(*dst, format!("{b}->{}", module.interner.resolve(*field)));
                }
                InstKind::Load { dst, addr } => {
                    let a = resolve(&keys, *addr, module);
                    // Loading a GEP result reads the field value: keep the
                    // field path itself, the way source tools see `d->res`.
                    let k = if a.contains("->") || a.ends_with(']') {
                        a
                    } else {
                        format!("*{a}")
                    };
                    keys.insert(*dst, k);
                }
                InstKind::AddrOf { dst, src } => {
                    let s = resolve(&keys, *src, module);
                    keys.insert(*dst, format!("&{s}"));
                }
                InstKind::Index { dst, base, index } => {
                    let b = resolve(&keys, *base, module);
                    let i = match index {
                        Operand::Var(v) => resolve(&keys, *v, module),
                        Operand::Const(c) => c.to_string(),
                    };
                    keys.insert(*dst, format!("{b}[{i}]"));
                }
                _ => {
                    if let Some(d) = inst.kind.def() {
                        keys.entry(d)
                            .or_insert_with(|| module.var(d).name.to_string());
                    }
                }
            }
        }
    }
    keys
}

impl IntraPatternAnalyzer {
    fn check_npd(&self, module: &Module, func: &Function, reports: &mut Vec<BugReport>) {
        let cfg = Cfg::new(func);
        let keys = expr_keys(module, func);
        let evidence = null_evidence(func);
        let derefs = deref_sites(module, func);
        let mut seen = HashSet::new();
        for &(ev_var, ev_block, ev_line) in &evidence {
            let ev_key = keys.get(&ev_var).cloned().unwrap_or_default();
            if ev_key.is_empty() {
                continue;
            }
            let reach = reachable_from(&cfg, ev_block);
            for &(ptr, db, line) in &derefs {
                if !reach[db.index()] || line <= ev_line {
                    continue;
                }
                let pk = keys.get(&ptr).cloned().unwrap_or_default();
                if pk != ev_key {
                    continue;
                }
                if seen.insert((func.id(), ev_line, line)) {
                    reports.push(BugReport {
                        kind: BugKind::NullPointerDeref,
                        file: module.file(func.file()).name.clone(),
                        function: func.name().to_owned(),
                        origin_line: ev_line,
                        site_line: line,
                        category: func.category(),
                        alias_paths: Vec::new(),
                        message: format!(
                            "`{ev_key}` checked against NULL at line {ev_line} and dereferenced at line {line}"
                        ),
                    });
                }
            }
        }
    }

    fn check_uva(&self, module: &Module, func: &Function, reports: &mut Vec<BugReport>) {
        // Linear RPO scan: a read of a local before any write along the
        // scan order. Writes through pointers (`*out = …` in a callee) are
        // invisible — the documented FP source of this tool family.
        let rpo = ReversePostorder::new(func);
        let mut written: HashSet<VarId> = HashSet::new();
        let mut declared: HashMap<VarId, u32> = HashMap::new();
        let mut reported: HashSet<VarId> = HashSet::new();
        for &b in rpo.order() {
            for inst in &func.block(b).insts {
                if let InstKind::Alloca {
                    dst,
                    storage: false,
                } = &inst.kind
                {
                    declared.insert(*dst, inst.loc.line);
                    continue;
                }
                for u in inst.kind.uses() {
                    if module.var(u).kind == VarKind::Local
                        && declared.contains_key(&u)
                        && !written.contains(&u)
                        && reported.insert(u)
                    {
                        reports.push(BugReport {
                            kind: BugKind::UninitVarAccess,
                            file: module.file(func.file()).name.clone(),
                            function: func.name().to_owned(),
                            origin_line: declared[&u],
                            site_line: inst.loc.line,
                            category: func.category(),
                            alias_paths: Vec::new(),
                            message: format!("`{}` may be used uninitialized", module.var(u).name),
                        });
                    }
                }
                if let Some(d) = inst.kind.def() {
                    written.insert(d);
                }
            }
            if let Terminator::Ret(Some(Operand::Var(v))) = &func.block(b).term {
                if module.var(*v).kind == VarKind::Local
                    && declared.contains_key(v)
                    && !written.contains(v)
                    && reported.insert(*v)
                {
                    reports.push(BugReport {
                        kind: BugKind::UninitVarAccess,
                        file: module.file(func.file()).name.clone(),
                        function: func.name().to_owned(),
                        origin_line: declared[v],
                        site_line: func.block(b).term_loc.line,
                        category: func.category(),
                        alias_paths: Vec::new(),
                        message: format!("`{}` may be returned uninitialized", module.var(*v).name),
                    });
                }
            }
        }
    }

    fn check_ml(&self, module: &Module, func: &Function, reports: &mut Vec<BugReport>) {
        let keys = expr_keys(module, func);
        // malloc'd expressions, and every expression freed/returned/stored.
        let mut mallocs: Vec<(String, u32)> = Vec::new();
        let mut released: HashSet<String> = HashSet::new();
        for block in func.blocks() {
            for inst in &block.insts {
                match &inst.kind {
                    InstKind::Malloc { dst } => {
                        // The malloc result is usually moved into a named
                        // local right after; resolve through later moves by
                        // scanning for the final key.
                        mallocs.push((keys.get(dst).cloned().unwrap_or_default(), inst.loc.line));
                    }
                    InstKind::Free { ptr } => {
                        released.insert(keys.get(ptr).cloned().unwrap_or_default());
                    }
                    InstKind::Store {
                        val: Operand::Var(v),
                        ..
                    } => {
                        released.insert(keys.get(v).cloned().unwrap_or_default());
                    }
                    InstKind::Call { args, .. } => {
                        for a in args {
                            if let Operand::Var(v) = a {
                                if module.var(*v).ty.is_pointer() {
                                    released.insert(keys.get(v).cloned().unwrap_or_default());
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            if let Terminator::Ret(Some(Operand::Var(v))) = &block.term {
                released.insert(keys.get(v).cloned().unwrap_or_default());
            }
        }
        // A malloc'd pointer also "releases" every variable it was moved
        // into; expr_keys already collapses moves onto one key.
        for (key, line) in mallocs {
            if key.is_empty() || released.contains(&key) {
                continue;
            }
            reports.push(BugReport {
                kind: BugKind::MemoryLeak,
                file: module.file(func.file()).name.clone(),
                function: func.name().to_owned(),
                origin_line: line,
                site_line: line,
                category: func.category(),
                alias_paths: Vec::new(),
                message: format!("allocation `{key}` is never freed in `{}`", func.name()),
            });
        }
    }
}

impl Analyzer for IntraPatternAnalyzer {
    fn name(&self) -> &'static str {
        "IntraPattern"
    }

    fn run(&self, module: &Module) -> Vec<BugReport> {
        let mut reports = Vec::new();
        for func in module.functions() {
            self.check_npd(module, func, &mut reports);
            self.check_uva(module, func, &mut reports);
            self.check_ml(module, func, &mut reports);
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<BugReport> {
        let m = pata_cc::compile_one("i.c", src).unwrap();
        IntraPatternAnalyzer.run(&m)
    }

    fn kinds(reports: &[BugReport]) -> Vec<BugKind> {
        reports.iter().map(|r| r.kind).collect()
    }

    #[test]
    fn npd_field_check_then_deref_same_function() {
        let reports = run(r#"
            struct dev { int *res; };
            int f(struct dev *d) {
                if (d->res == NULL) { }
                return *d->res;
            }
            "#);
        assert!(
            kinds(&reports).contains(&BugKind::NullPointerDeref),
            "{reports:?}"
        );
    }

    #[test]
    fn npd_misses_cross_function_bug() {
        let reports = run(r#"
            struct cfg_t { int frnd; };
            struct model_t { struct cfg_t *user_data; };
            void send_status(struct model_t *model) {
                struct cfg_t *cfg = model->user_data;
                int x = cfg->frnd;
            }
            void friend_set(struct model_t *model) {
                struct cfg_t *cfg = model->user_data;
                if (!cfg) {
                    send_status(model);
                }
            }
            "#);
        assert!(
            !kinds(&reports).contains(&BugKind::NullPointerDeref),
            "intraprocedural tools miss the Fig. 3 bug: {reports:?}"
        );
    }

    #[test]
    fn uva_simple_found() {
        let reports = run("int f(void) { int x; return x; }");
        assert!(kinds(&reports).contains(&BugKind::UninitVarAccess));
    }

    #[test]
    fn uva_out_param_is_false_positive() {
        // The init happens through &v in the callee — invisible without
        // alias analysis, so this tool family reports a false positive.
        let reports = run(r#"
            void fill(int *out) { *out = 5; }
            int f(void) {
                int v;
                fill(&v);
                return v;
            }
            "#);
        assert!(
            kinds(&reports).contains(&BugKind::UninitVarAccess),
            "{reports:?}"
        );
    }

    #[test]
    fn ml_never_freed_found() {
        let reports = run(r#"
            void f(void) {
                int *p = malloc(8);
                *p = 1;
            }
            "#);
        assert!(
            kinds(&reports).contains(&BugKind::MemoryLeak),
            "{reports:?}"
        );
    }

    #[test]
    fn ml_error_path_leak_missed() {
        // Free exists on the happy path — the path-insensitive scan sees
        // "freed somewhere" and misses the error-path leak PATA finds.
        let reports = run(r#"
            int f(int n) {
                int *p = malloc(8);
                if (n < 0) { return -1; }
                free(p);
                return 0;
            }
            "#);
        assert!(
            !kinds(&reports).contains(&BugKind::MemoryLeak),
            "{reports:?}"
        );
    }

    #[test]
    fn ml_returned_not_reported() {
        let reports = run("int *f(void) { int *p = malloc(8); return p; }");
        assert!(
            !kinds(&reports).contains(&BugKind::MemoryLeak),
            "{reports:?}"
        );
    }
}
