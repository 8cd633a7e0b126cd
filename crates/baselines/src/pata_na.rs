//! PATA-NA — the alias-unaware variant of PATA used in the paper's
//! sensitivity study (Table 6, §5.4).
//!
//! PATA-NA "does not compute alias relationships in typestate analysis":
//! each variable carries its own typestate (synchronized only across direct
//! assignments) and its own SMT symbol (so the implicit field-equality
//! constraints of Fig. 9 are lost). The paper reports that PATA-NA finds a
//! strict subset of PATA's real bugs with a much higher false-positive rate
//! (69% vs 28%) despite running faster.

use crate::Analyzer;
use pata_core::{AnalysisConfig, AnalysisSession, BugReport, CheckerRegistry};
use pata_ir::Module;

/// The PATA-NA analyzer.
///
/// Checkers are instantiated through a [`CheckerRegistry`] — the same open
/// extension point [`AnalysisSession`] uses — so plugin checkers registered
/// via [`PataNaAnalyzer::with_registry`] run in the alias-unaware variant
/// too.
#[derive(Debug, Default)]
pub struct PataNaAnalyzer {
    /// Optional configuration override (checkers, budgets).
    pub config: Option<AnalysisConfig>,
    registry: CheckerRegistry,
}

impl PataNaAnalyzer {
    /// Creates PATA-NA with a custom base configuration; the alias mode is
    /// forced off regardless.
    pub fn with_config(config: AnalysisConfig) -> Self {
        PataNaAnalyzer {
            config: Some(config),
            registry: CheckerRegistry::with_builtins(),
        }
    }

    /// Creates PATA-NA with a custom checker registry (and optionally a
    /// base configuration).
    pub fn with_registry(config: Option<AnalysisConfig>, registry: CheckerRegistry) -> Self {
        PataNaAnalyzer { config, registry }
    }
}

impl Analyzer for PataNaAnalyzer {
    fn name(&self) -> &'static str {
        "PATA-NA"
    }

    fn run(&self, module: &Module) -> Vec<BugReport> {
        let mut config = self.config.clone().unwrap_or_default();
        config.alias_mode = pata_core::AliasMode::None;
        let checkers = self.registry.instantiate_for(&config.checkers);
        let outcome = AnalysisSession::new(config).analyze_module_with(module.clone(), &checkers);
        outcome.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_core::BugKind;

    #[test]
    fn na_reports_fig9_false_positive_that_pata_drops() {
        // Paper Fig. 9: infeasible q-deref path. PATA's shared symbols
        // refute it; PATA-NA's per-variable symbols cannot.
        let src = r#"
            struct s { int f; };
            void func(struct s *p, int *q) {
                struct s *t;
                if (q == NULL) {
                    p->f = 0;
                }
                t = p;
                if (t->f != 0) {
                    int v = *q;
                }
            }
        "#;
        let module = pata_cc::compile_one("fig9.c", src).unwrap();

        let na = PataNaAnalyzer::default().run(&module);
        assert!(
            na.iter().any(|r| r.kind == BugKind::NullPointerDeref),
            "PATA-NA should report the Fig. 9 false positive: {na:?}"
        );

        let pata = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module.clone());
        assert!(
            !pata
                .reports
                .iter()
                .any(|r| r.kind == BugKind::NullPointerDeref),
            "PATA should drop it: {:?}",
            pata.reports
        );
    }

    #[test]
    fn na_false_leak_through_callee_free() {
        // free() through a callee parameter: PATA's alias graph sees the
        // parameter and the caller pointer as one alias set; PATA-NA keeps
        // separate per-variable states and reports a false leak.
        let src = r#"
            void release(int *buf) { free(buf); }
            void user(void) {
                int *p = malloc(32);
                release(p);
            }
        "#;
        let module = pata_cc::compile_one("leak.c", src).unwrap();

        let na = PataNaAnalyzer::default().run(&module);
        assert!(
            na.iter().any(|r| r.kind == BugKind::MemoryLeak),
            "PATA-NA reports a false leak: {na:?}"
        );

        let pata = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module.clone());
        assert!(
            !pata.reports.iter().any(|r| r.kind == BugKind::MemoryLeak),
            "PATA sees the free through the alias set: {:?}",
            pata.reports
        );
    }
}
