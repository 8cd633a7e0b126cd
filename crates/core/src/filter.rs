//! The bug filter (paper §4, phase P3): cross-root deduplication of
//! repeated bugs, then alias-aware path validation.

use crate::faultinject::{self, FaultPlan};
use crate::report::{BugReport, DegradedRoot, PossibleBug};
use crate::stats::AnalysisStats;
use crate::telemetry::Telemetry;
use crate::validate::{Feasibility, PathValidator, ValidationCache};
use pata_ir::Module;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Output of filtering.
#[derive(Debug)]
pub struct FilterResult {
    /// Validated, rendered reports.
    pub reports: Vec<BugReport>,
    /// The surviving candidates (same order as `reports`).
    pub real_bugs: Vec<PossibleBug>,
    /// Bug groups whose validation panicked (stage `"validate"`): the group
    /// is quarantined — not reported, not counted as a dropped false bug —
    /// and later groups validate normally.
    pub failures: Vec<DegradedRoot>,
}

/// Deduplicates candidates by problematic-instruction pair and validates
/// each survivor's path feasibility, updating `stats` (dropped repeated /
/// false bugs, reported count, validation-cache counters).
///
/// Validation runs through one [`PathValidator`], which solves each
/// conjunction with a fresh solver. When `cache` is given, whole
/// conjunctions are memoized by canonical key across groups and runs.
pub fn filter(
    module: &Module,
    candidates: Vec<PossibleBug>,
    validate_paths: bool,
    cache: Option<&ValidationCache>,
    telemetry: Option<&Telemetry>,
    stats: &mut AnalysisStats,
) -> FilterResult {
    filter_with_faults(
        module,
        candidates,
        validate_paths,
        cache,
        telemetry,
        stats,
        None,
    )
}

/// [`filter`] with an active fault plan: the `validate` injection site
/// fires per candidate, labeled with the candidate's root name.
#[allow(clippy::too_many_arguments)]
pub(crate) fn filter_with_faults(
    module: &Module,
    candidates: Vec<PossibleBug>,
    validate_paths: bool,
    cache: Option<&ValidationCache>,
    telemetry: Option<&Telemetry>,
    stats: &mut AnalysisStats,
    fault: Option<&FaultPlan>,
) -> FilterResult {
    let tel_enabled = telemetry.is_some_and(Telemetry::is_enabled);
    let (base_reported, base_repeated, base_false) = (
        stats.reported,
        stats.repeated_bugs_dropped,
        stats.false_bugs_dropped,
    );
    // Group path snapshots by problematic-instruction pair (§4 P3): two
    // candidates with identical instructions are the same bug reached along
    // different paths (possibly from different analysis roots). The bug is
    // real if *any* of its paths is feasible.
    let mut order: Vec<(crate::checkers::BugKind, pata_ir::InstId, pata_ir::InstId)> = Vec::new();
    let mut groups: HashMap<_, Vec<PossibleBug>> = HashMap::new();
    for bug in candidates {
        let key = bug.dedup_key();
        let entry = groups.entry(key).or_default();
        if entry.is_empty() {
            order.push(key);
        } else {
            stats.repeated_bugs_dropped += 1;
        }
        entry.push(bug);
    }

    let mut validator = PathValidator::with_telemetry(cache, tel_enabled);
    let mut reports = Vec::new();
    let mut real = Vec::new();
    let mut failures: Vec<DegradedRoot> = Vec::new();
    'groups: for key in order {
        let paths = groups.remove(&key).expect("grouped");
        let witness = if validate_paths {
            let mut witness = None;
            for bug in paths {
                // Per-candidate quarantine: a panicking validation (SMT
                // bug, injected fault) drops this group only. The validator
                // keeps no solver between candidates, so it carries on.
                let verdict = catch_unwind(AssertUnwindSafe(|| {
                    faultinject::maybe_panic(fault, "validate", module.function(bug.root).name());
                    validator.validate(&bug)
                }));
                match verdict {
                    Ok(Feasibility::Feasible) => {
                        witness = Some(bug);
                        break;
                    }
                    Ok(_) => {}
                    Err(payload) => {
                        failures.push(DegradedRoot {
                            root: module.function(bug.root).name().to_string(),
                            stage: "validate".to_string(),
                            reason: crate::driver::panic_reason(payload.as_ref()),
                            action: "quarantined".to_string(),
                        });
                        if let Some(tel) = telemetry {
                            tel.record_direct(|sink| {
                                sink.add("driver.recover.quarantined", 1);
                            });
                        }
                        // Neither reported nor a counted false drop: the
                        // verdict is unknown, which is exactly what the
                        // degraded section communicates.
                        continue 'groups;
                    }
                }
            }
            witness
        } else {
            paths.into_iter().next()
        };
        match witness {
            Some(bug) => {
                stats.reported += 1;
                reports.push(BugReport::from_possible(&bug, module));
                real.push(bug);
            }
            None => {
                stats.false_bugs_dropped += 1;
            }
        }
    }
    let vstats = validator.stats();
    stats.validation_cache_hits += vstats.cache_hits;
    stats.validation_cache_misses += vstats.cache_misses;
    if let Some(tel) = telemetry {
        tel.merge(validator.take_telemetry());
        tel.record_direct(|sink| {
            sink.add(
                "filter.groups",
                (stats.reported - base_reported) + (stats.false_bugs_dropped - base_false),
            );
            sink.add(
                "filter.repeated_dropped",
                stats.repeated_bugs_dropped - base_repeated,
            );
            sink.add(
                "filter.false_dropped",
                stats.false_bugs_dropped - base_false,
            );
        });
    }
    FilterResult {
        reports,
        real_bugs: real,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::BugKind;
    use pata_ir::{BlockId, FuncId, InstId, Loc};
    use pata_smt::{CmpOp, Constraint, SymId, Term};

    fn module_with_one_fn() -> Module {
        pata_cc::compile_one("f.c", "void f(void) { }").unwrap()
    }

    fn bug(site: usize, constraints: Vec<Constraint>) -> PossibleBug {
        PossibleBug {
            kind: BugKind::NullPointerDeref,
            origin_loc: Loc::default(),
            origin_id: InstId {
                func: FuncId::from_index(0),
                block: BlockId::from_index(0),
                inst: 0,
            },
            site_loc: Loc::default(),
            site_id: InstId {
                func: FuncId::from_index(0),
                block: BlockId::from_index(0),
                inst: site,
            },
            constraints,
            extra: vec![],
            alias_paths: vec![],
            root: FuncId::from_index(0),
        }
    }

    fn contradiction() -> Vec<Constraint> {
        vec![
            Constraint::new(CmpOp::Eq, Term::sym(SymId(0)), Term::int(0)),
            Constraint::new(CmpOp::Ne, Term::sym(SymId(0)), Term::int(0)),
        ]
    }

    #[test]
    fn dedup_drops_repeats() {
        let m = module_with_one_fn();
        let mut stats = AnalysisStats::default();
        let out = filter(
            &m,
            vec![bug(1, vec![]), bug(1, vec![]), bug(2, vec![])],
            true,
            None,
            None,
            &mut stats,
        );
        assert_eq!(out.reports.len(), 2);
        assert_eq!(stats.repeated_bugs_dropped, 1);
    }

    #[test]
    fn infeasible_candidates_dropped() {
        let m = module_with_one_fn();
        let mut stats = AnalysisStats::default();
        let out = filter(
            &m,
            vec![bug(1, contradiction()), bug(2, vec![])],
            true,
            None,
            None,
            &mut stats,
        );
        assert_eq!(out.reports.len(), 1);
        assert_eq!(stats.false_bugs_dropped, 1);
        assert_eq!(stats.reported, 1);
    }

    #[test]
    fn validation_can_be_disabled() {
        let m = module_with_one_fn();
        let mut stats = AnalysisStats::default();
        let out = filter(
            &m,
            vec![bug(1, contradiction())],
            false,
            None,
            None,
            &mut stats,
        );
        assert_eq!(out.reports.len(), 1);
        assert_eq!(stats.false_bugs_dropped, 0);
    }

    #[test]
    fn cache_counters_flow_into_stats() {
        let m = module_with_one_fn();
        let cache = ValidationCache::new();
        let mut stats = AnalysisStats::default();
        // Two distinct bugs with identical (α-equivalent) constraint sets:
        // the second validation hits the cache.
        let out = filter(
            &m,
            vec![bug(1, contradiction()), bug(2, contradiction())],
            true,
            Some(&cache),
            None,
            &mut stats,
        );
        assert_eq!(out.reports.len(), 0);
        assert_eq!(stats.false_bugs_dropped, 2);
        assert_eq!(stats.validation_cache_misses, 1);
        assert_eq!(stats.validation_cache_hits, 1);
    }

    #[test]
    fn cache_on_and_off_agree() {
        let m = module_with_one_fn();
        let mk = || {
            vec![
                bug(1, contradiction()),
                bug(2, vec![]),
                bug(3, contradiction()),
            ]
        };
        let mut s_off = AnalysisStats::default();
        let off = filter(&m, mk(), true, None, None, &mut s_off);
        let cache = ValidationCache::new();
        let mut s_on = AnalysisStats::default();
        let on = filter(&m, mk(), true, Some(&cache), None, &mut s_on);
        assert_eq!(off.reports.len(), on.reports.len());
        assert_eq!(s_off.false_bugs_dropped, s_on.false_bugs_dropped);
        assert_eq!(
            s_off.validation_cache_hits + s_off.validation_cache_misses,
            0
        );
    }
}
