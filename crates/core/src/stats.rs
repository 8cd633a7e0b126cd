//! Analysis statistics — the counters behind Table 5 of the paper
//! (typestates alias-aware vs. unaware, SMT constraints alias-aware vs.
//! unaware, dropped repeated/false bugs, analyzed files/LOC, time).

use std::ops::AddAssign;
use std::time::Duration;

/// Counters accumulated across the whole analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Source files in the analyzed module.
    pub files_analyzed: u64,
    /// Lines of code in the analyzed module.
    pub loc_analyzed: u64,
    /// Analysis roots (module interface functions).
    pub roots: u64,
    /// Completed control-flow paths explored.
    pub paths_explored: u64,
    /// Instructions processed (path-sensitively, counting revisits).
    pub insts_processed: u64,
    /// Typestate transitions with alias-aware sharing (one per alias set) —
    /// Table 5 "Typestates (alias-aware)".
    pub typestates_aware: u64,
    /// What the same transitions would cost per-variable — Table 5
    /// "Typestates (unaware)".
    pub typestates_unaware: u64,
    /// SMT constraints emitted with one symbol per alias set — Table 5
    /// "SMT constraints (alias-aware)".
    pub constraints_aware: u64,
    /// What the same paths would emit with one symbol per variable,
    /// including the explicit copy equalities and implicit field-equality
    /// constraints of §3.3/Fig. 9 — Table 5 "SMT constraints (unaware)".
    pub constraints_unaware: u64,
    /// Candidate bugs dropped because their problematic instructions match
    /// an already-recorded candidate (§4 P3 "repeated bugs").
    pub repeated_bugs_dropped: u64,
    /// Candidates whose path constraints were unsatisfiable (§3.3).
    pub false_bugs_dropped: u64,
    /// Candidates surviving dedup (input to validation).
    pub candidates: u64,
    /// Final reported bugs.
    pub reported: u64,
    /// Roots whose exploration hit a budget cap.
    pub budget_exhausted_roots: u64,
    /// Stage-2 conjunctions answered from the validation cache.
    pub validation_cache_hits: u64,
    /// Stage-2 conjunctions solved and inserted into the validation cache.
    pub validation_cache_misses: u64,
    /// Always 0: stage 2 solves each cache miss with a fresh solver, so no
    /// constraints are reused across solves. Kept so the benchmark harness
    /// compiles until its next revision (ROADMAP "For the benchmark's next
    /// revision").
    #[deprecated(note = "stage 2 has no solver scopes; always 0")]
    pub validation_scope_reuse: u64,
    /// Always 0: stage 1 has no subsumption table. Kept so the benchmark
    /// harness compiles until its next revision (ROADMAP "For the
    /// benchmark's next revision").
    #[deprecated(note = "stage 1 has no subsumption table; always 0")]
    pub exploration_cache_hits: u64,
    /// Always 0: stage 1 has no callee memo. Kept so the benchmark harness
    /// compiles until its next revision (ROADMAP "For the benchmark's next
    /// revision").
    #[deprecated(note = "stage 1 has no callee memo; always 0")]
    pub callee_memo_hits: u64,
    /// Wall-clock analysis time.
    pub time: Duration,
}

impl AnalysisStats {
    /// Fraction of typestates saved by alias-aware sharing (paper §5.1
    /// reports 49.8% dropped).
    pub fn typestates_dropped_ratio(&self) -> f64 {
        if self.typestates_unaware == 0 {
            return 0.0;
        }
        1.0 - (self.typestates_aware as f64 / self.typestates_unaware as f64)
    }

    /// Fraction of SMT constraints saved by alias-aware symbol merging
    /// (paper §5.1 reports 87.3% dropped).
    pub fn constraints_dropped_ratio(&self) -> f64 {
        if self.constraints_unaware == 0 {
            return 0.0;
        }
        1.0 - (self.constraints_aware as f64 / self.constraints_unaware as f64)
    }

    /// Stage-1 DFS steps: every step is live, so this is
    /// [`AnalysisStats::insts_processed`]. Kept so the benchmark harness
    /// compiles until its next revision (ROADMAP "For the benchmark's next
    /// revision").
    #[deprecated(note = "every step is live; use `insts_processed`")]
    pub fn live_steps(&self) -> u64 {
        self.insts_processed
    }
}

/// One root that hit an exploration budget — the per-root detail behind the
/// aggregate [`AnalysisStats::budget_exhausted_roots`] counter, surfaced in
/// `--profile` and the report envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetNote {
    /// Root function name.
    pub root: String,
    /// Which budget tripped first: `"max_insts"`, `"max_paths"`,
    /// `"deadline"` or `"live_bytes"`.
    pub reason: String,
}

impl AddAssign<&AnalysisStats> for AnalysisStats {
    fn add_assign(&mut self, rhs: &AnalysisStats) {
        self.files_analyzed += rhs.files_analyzed;
        self.loc_analyzed += rhs.loc_analyzed;
        self.roots += rhs.roots;
        self.paths_explored += rhs.paths_explored;
        self.insts_processed += rhs.insts_processed;
        self.typestates_aware += rhs.typestates_aware;
        self.typestates_unaware += rhs.typestates_unaware;
        self.constraints_aware += rhs.constraints_aware;
        self.constraints_unaware += rhs.constraints_unaware;
        self.repeated_bugs_dropped += rhs.repeated_bugs_dropped;
        self.false_bugs_dropped += rhs.false_bugs_dropped;
        self.candidates += rhs.candidates;
        self.reported += rhs.reported;
        self.budget_exhausted_roots += rhs.budget_exhausted_roots;
        self.validation_cache_hits += rhs.validation_cache_hits;
        self.validation_cache_misses += rhs.validation_cache_misses;
        self.time += rhs.time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = AnalysisStats {
            typestates_aware: 50,
            typestates_unaware: 100,
            constraints_aware: 10,
            constraints_unaware: 80,
            ..AnalysisStats::default()
        };
        assert!((s.typestates_dropped_ratio() - 0.5).abs() < 1e-9);
        assert!((s.constraints_dropped_ratio() - 0.875).abs() < 1e-9);
    }

    #[test]
    fn ratios_zero_safe() {
        let s = AnalysisStats::default();
        assert_eq!(s.typestates_dropped_ratio(), 0.0);
        assert_eq!(s.constraints_dropped_ratio(), 0.0);
    }

    #[test]
    fn accumulate() {
        let mut a = AnalysisStats {
            paths_explored: 1,
            ..AnalysisStats::default()
        };
        let b = AnalysisStats {
            paths_explored: 2,
            reported: 3,
            ..AnalysisStats::default()
        };
        a += &b;
        assert_eq!(a.paths_explored, 3);
        assert_eq!(a.reported, 3);
    }
}
