//! Analysis configuration: checker selection, path budgets, and the
//! alias-awareness switch used for the paper's sensitivity study (Table 6).
//!
//! Construct configurations through [`AnalysisConfig::builder`], which
//! validates the result ([`AnalysisConfigBuilder::build`] rejects empty
//! checker sets and zero budgets).

use crate::checkers::BugKind;
use crate::faultinject::FaultPlan;
use std::fmt;
use std::sync::Arc;

/// How alias relationships are computed during typestate analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AliasMode {
    /// The paper's path-based alias analysis (§3.1): one state and one SMT
    /// symbol per alias set.
    #[default]
    PathBased,
    /// *PATA-NA* (Table 6): no alias relationships — one state and one SMT
    /// symbol per variable, memory operations are opaque. Used to measure
    /// how much alias awareness contributes.
    None,
}

/// Caps that keep path enumeration tractable on large modules.
///
/// The paper mitigates path explosion by combining path information at
/// function returns (§4 P2) and by unrolling loops/recursion once (§3.1);
/// these budgets additionally bound the total work per analysis root, the
/// way any production static analyzer must.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathBudget {
    /// Maximum completed paths explored per root function.
    pub max_paths: usize,
    /// Maximum instructions processed per root function.
    pub max_insts: usize,
    /// Maximum inlining (call) depth.
    pub max_call_depth: usize,
    /// How many times a loop body may execute along one path. The paper
    /// unrolls once (§3.1); §7 lists richer loop handling as future work —
    /// raising this explores k-iteration paths at a path-count cost.
    pub loop_iterations: usize,
}

impl Default for PathBudget {
    fn default() -> Self {
        PathBudget {
            max_paths: 4096,
            max_insts: 400_000,
            max_call_depth: 24,
            loop_iterations: 1,
        }
    }
}

/// Full analysis configuration.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Which checkers run. Defaults to the paper's three main bug types
    /// (NPD, UVA, ML — §5.1).
    pub checkers: Vec<BugKind>,
    /// Alias-awareness mode (Table 6 sensitivity switch).
    pub alias_mode: AliasMode,
    /// Per-root exploration budgets.
    pub budget: PathBudget,
    /// Whether stage 2 validates path feasibility with the SMT solver and
    /// drops unsatisfiable candidates (§3.3). Disabling reproduces a
    /// "no-path-validation" ablation.
    pub validate_paths: bool,
    /// Whether stage 2 memoizes conjunction verdicts in the analyzer's
    /// shared [`crate::validate::ValidationCache`] (canonicalized keys, so
    /// α-equivalent constraint systems are solved once across candidates
    /// and runs). Verdict-neutral: only timing and the hit/miss counters
    /// change. Disable to measure the benefit (a differential oracle for
    /// the equivalence tests and benches; there is no CLI flag).
    pub validation_cache: bool,
    /// Number of worker threads for root-level parallelism (0 = all cores).
    pub threads: usize,
    /// Resolve indirect calls whose target is pinned by the alias graph
    /// (a `FuncAddr` stored along the current path). The paper's PATA does
    /// not handle function-pointer calls and names this as future work
    /// (§7); off by default to match the paper.
    pub resolve_fptrs: bool,
    /// Whether the [`crate::telemetry`] subsystem records counters, span
    /// timers and histograms during the run. Off by default: disabled
    /// telemetry costs one branch per record site (`--stats-json` /
    /// `--profile` turn it on in the CLI).
    pub telemetry: bool,
    /// Copy-on-write path state (DESIGN.md "Copy-on-write path state"):
    /// branch forks take a fixed-size mark and sibling arms restore by
    /// undo-journal rollback, costing O(changed). Disabling falls back to
    /// the paper's literal per-successor COPY (deep-cloning the alias
    /// graph, typestate table, path-local maps, frames and constraint
    /// trace at every fork) — observationally identical, and useful as a
    /// differential oracle and as the baseline for the
    /// `driver.explore.fork.*` cost telemetry (set by the equivalence tests
    /// and benches; there is no CLI flag).
    pub cow_state: bool,
    /// Per-root wall-clock deadline in milliseconds, checked at branch fork
    /// points. `0` disables the deadline. A root that exceeds it is demoted
    /// to a bounded re-run and, failing that, quarantined into
    /// the report's `degraded` section (DESIGN.md "Fault containment").
    /// Wall-clock trips are inherently environment-dependent; the
    /// byte-identity contract covers injected `deadline` faults.
    pub root_deadline_ms: u64,
    /// Per-root ceiling on the live path-state size estimate in bytes
    /// (the PR 5 `driver.explore.fork.live_bytes` gauge), checked at branch
    /// fork points. `0` disables the ceiling. Exceeding it follows the same
    /// demote-then-quarantine ladder as the deadline. The estimate depends
    /// on the copy-on-write mode, so real trips are config-dependent; the
    /// byte-identity contract covers injected `live_bytes` faults.
    pub max_live_bytes: u64,
    /// Deterministic fault-injection plan for tests and benches
    /// ([`crate::faultinject`]). `None` — the default and the production
    /// path — injects nothing and costs one pointer check per site.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            checkers: vec![
                BugKind::NullPointerDeref,
                BugKind::UninitVarAccess,
                BugKind::MemoryLeak,
            ],
            alias_mode: AliasMode::PathBased,
            budget: PathBudget::default(),
            validate_paths: true,
            validation_cache: true,
            threads: 0,
            resolve_fptrs: false,
            telemetry: false,
            cow_state: true,
            root_deadline_ms: 0,
            max_live_bytes: 0,
            fault_plan: None,
        }
    }
}

impl AnalysisConfig {
    /// A configuration running every built-in checker (Tables 5 + 7).
    pub fn all_checkers() -> Self {
        AnalysisConfig {
            checkers: BugKind::ALL.to_vec(),
            ..AnalysisConfig::default()
        }
    }

    /// The PATA-NA configuration used in the sensitivity study (Table 6).
    pub fn without_alias() -> Self {
        AnalysisConfig {
            alias_mode: AliasMode::None,
            ..AnalysisConfig::default()
        }
    }

    /// Starts a validating [`AnalysisConfigBuilder`] from the defaults.
    pub fn builder() -> AnalysisConfigBuilder {
        AnalysisConfigBuilder {
            config: AnalysisConfig::default(),
        }
    }
}

/// Why [`AnalysisConfigBuilder::build`] refused a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// No checkers selected — the analysis would trivially report nothing.
    EmptyCheckerSet,
    /// The same checker appears twice; its typestate namespace would be
    /// updated twice per event.
    DuplicateChecker(BugKind),
    /// A [`PathBudget`] field is zero; names the offending field.
    ZeroBudget(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyCheckerSet => f.write_str("checker set is empty"),
            ConfigError::DuplicateChecker(kind) => {
                write!(f, "checker `{kind}` selected more than once")
            }
            ConfigError::ZeroBudget(field) => {
                write!(f, "path budget field `{field}` must be non-zero")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`AnalysisConfig`].
///
/// ```
/// use pata_core::{AnalysisConfig, BugKind};
///
/// let config = AnalysisConfig::builder()
///     .checkers(BugKind::ALL.to_vec())
///     .threads(2)
///     .telemetry(true)
///     .build()
///     .unwrap();
/// assert_eq!(config.checkers.len(), 7);
///
/// let err = AnalysisConfig::builder().checkers(vec![]).build().unwrap_err();
/// assert_eq!(err.to_string(), "checker set is empty");
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisConfigBuilder {
    config: AnalysisConfig,
}

impl AnalysisConfigBuilder {
    /// Selects the checkers to run.
    pub fn checkers(mut self, checkers: Vec<BugKind>) -> Self {
        self.config.checkers = checkers;
        self
    }

    /// Sets the alias-awareness mode (Table 6 sensitivity switch).
    pub fn alias_mode(mut self, mode: AliasMode) -> Self {
        self.config.alias_mode = mode;
        self
    }

    /// Replaces the whole path budget.
    pub fn budget(mut self, budget: PathBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Caps completed paths per root.
    pub fn max_paths(mut self, n: usize) -> Self {
        self.config.budget.max_paths = n;
        self
    }

    /// Caps instructions processed per root.
    pub fn max_insts(mut self, n: usize) -> Self {
        self.config.budget.max_insts = n;
        self
    }

    /// Caps the inlining (call) depth.
    pub fn max_call_depth(mut self, n: usize) -> Self {
        self.config.budget.max_call_depth = n;
        self
    }

    /// Sets how many times a loop body may run along one path.
    pub fn loop_iterations(mut self, n: usize) -> Self {
        self.config.budget.loop_iterations = n;
        self
    }

    /// Enables or disables stage-2 SMT path validation.
    pub fn validate_paths(mut self, on: bool) -> Self {
        self.config.validate_paths = on;
        self
    }

    /// Enables or disables the stage-2 validation cache.
    pub fn validation_cache(mut self, on: bool) -> Self {
        self.config.validation_cache = on;
        self
    }

    /// Sets the worker-thread count (0 = all cores).
    pub fn threads(mut self, n: usize) -> Self {
        self.config.threads = n;
        self
    }

    /// Enables resolution of alias-pinned function-pointer calls.
    pub fn resolve_fptrs(mut self, on: bool) -> Self {
        self.config.resolve_fptrs = on;
        self
    }

    /// Enables telemetry recording for the run.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.config.telemetry = on;
        self
    }

    /// Does nothing: stage 1 has no subsumption table. Kept so the
    /// benchmark harness compiles until its next revision (ROADMAP "For
    /// the benchmark's next revision").
    #[deprecated(note = "stage 1 has no subsumption table; this is a no-op")]
    pub fn exploration_cache(self, _on: bool) -> Self {
        self
    }

    /// Does nothing: stage 1 has no callee memo. Kept so the benchmark
    /// harness compiles until its next revision (ROADMAP "For the
    /// benchmark's next revision").
    #[deprecated(note = "stage 1 has no callee memo; this is a no-op")]
    pub fn callee_memo(self, _on: bool) -> Self {
        self
    }

    /// Enables or disables copy-on-write path state (off = the paper's
    /// literal clone-per-branch COPY semantics; verdict-neutral).
    pub fn cow_state(mut self, on: bool) -> Self {
        self.config.cow_state = on;
        self
    }

    /// Sets the per-root wall-clock deadline in milliseconds (0 = off).
    pub fn root_deadline_ms(mut self, ms: u64) -> Self {
        self.config.root_deadline_ms = ms;
        self
    }

    /// Sets the per-root live-bytes ceiling (0 = off).
    pub fn max_live_bytes(mut self, bytes: u64) -> Self {
        self.config.max_live_bytes = bytes;
        self
    }

    /// Installs a deterministic fault-injection plan for the run.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<AnalysisConfig, ConfigError> {
        let c = &self.config;
        if c.checkers.is_empty() {
            return Err(ConfigError::EmptyCheckerSet);
        }
        let mut seen = std::collections::HashSet::new();
        for kind in &c.checkers {
            if !seen.insert(*kind) {
                return Err(ConfigError::DuplicateChecker(*kind));
            }
        }
        for (field, value) in [
            ("max_paths", c.budget.max_paths),
            ("max_insts", c.budget.max_insts),
            ("max_call_depth", c.budget.max_call_depth),
            ("loop_iterations", c.budget.loop_iterations),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroBudget(field));
            }
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runs_three_paper_checkers() {
        let c = AnalysisConfig::default();
        assert_eq!(c.checkers.len(), 3);
        assert_eq!(c.alias_mode, AliasMode::PathBased);
        assert!(c.validate_paths);
    }

    #[test]
    fn all_checkers_covers_seven() {
        assert_eq!(AnalysisConfig::all_checkers().checkers.len(), 7);
    }

    #[test]
    fn without_alias_is_na_mode() {
        assert_eq!(AnalysisConfig::without_alias().alias_mode, AliasMode::None);
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = AnalysisConfig::builder().build().unwrap();
        let default = AnalysisConfig::default();
        assert_eq!(built.checkers, default.checkers);
        assert_eq!(built.budget, default.budget);
        assert_eq!(built.threads, default.threads);
        assert!(!built.telemetry);
    }

    #[test]
    fn builder_rejects_empty_checker_set() {
        let err = AnalysisConfig::builder()
            .checkers(vec![])
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyCheckerSet);
    }

    #[test]
    fn builder_rejects_duplicate_checker() {
        let err = AnalysisConfig::builder()
            .checkers(vec![BugKind::MemoryLeak, BugKind::MemoryLeak])
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::DuplicateChecker(BugKind::MemoryLeak));
    }

    #[test]
    fn builder_rejects_zero_budgets() {
        let err = AnalysisConfig::builder().max_paths(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroBudget("max_paths"));
        let err = AnalysisConfig::builder()
            .loop_iterations(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroBudget("loop_iterations"));
    }

    #[test]
    fn builder_setters_apply() {
        let c = AnalysisConfig::builder()
            .alias_mode(AliasMode::None)
            .max_insts(10)
            .threads(4)
            .validate_paths(false)
            .validation_cache(false)
            .resolve_fptrs(true)
            .telemetry(true)
            .build()
            .unwrap();
        assert_eq!(c.alias_mode, AliasMode::None);
        assert_eq!(c.budget.max_insts, 10);
        assert_eq!(c.threads, 4);
        assert!(!c.validate_paths);
        assert!(!c.validation_cache);
        assert!(c.resolve_fptrs);
        assert!(c.telemetry);
    }

    #[test]
    fn builder_fault_containment_knobs_apply() {
        let plan = Arc::new(FaultPlan::parse("explore:probe_a@1").unwrap());
        let c = AnalysisConfig::builder()
            .root_deadline_ms(250)
            .max_live_bytes(1 << 20)
            .fault_plan(Arc::clone(&plan))
            .build()
            .unwrap();
        assert_eq!(c.root_deadline_ms, 250);
        assert_eq!(c.max_live_bytes, 1 << 20);
        assert_eq!(c.fault_plan.unwrap().spec(), "explore:probe_a@1");
        let d = AnalysisConfig::default();
        assert_eq!(d.root_deadline_ms, 0);
        assert_eq!(d.max_live_bytes, 0);
        assert!(d.fault_plan.is_none());
    }
}
