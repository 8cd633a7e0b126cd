//! The bug filter (paper §4, phase P3): cross-root deduplication of
//! repeated bugs, then alias-aware path validation.
//!
//! [`filter_roots`] is the one implementation of P3 behind every entry
//! point: it groups a per-root candidate stream by problematic-instruction
//! pair and settles each group. A session that serves edits passes its
//! kept groups ([`KeptGroups`]): a group's members, how many validations
//! it took, and whether it was reported. On the next request a group whose
//! members are the same candidates of clean roots takes its verdict from
//! there instead of validating again, counting exactly what validating it
//! again through the same cache would count: the cache only grows, so
//! every verdict the group recorded would be a hit.

use crate::checkers::BugKind;
use crate::faultinject::{self, FaultPlan};
use crate::fingerprint::FxHashMap;
use crate::persist::function_space;
use crate::report::{BugReport, DegradedRoot, PossibleBug};
use crate::stats::AnalysisStats;
use crate::telemetry::Telemetry;
use crate::validate::{Feasibility, PathValidator, ValidationCache};
use pata_ir::{FuncId, InstId, Module};
use std::collections::hash_map::Entry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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
    let stream = [RootCandidates {
        candidates: &candidates,
        dirty: true,
    }];
    let (witnesses, failures) = filter_roots(
        &function_space(module),
        &stream,
        None,
        validate_paths,
        cache,
        telemetry,
        stats,
        None,
    );
    let real_bugs: Vec<PossibleBug> = witnesses
        .into_iter()
        .map(|(_, i)| candidates[i].clone())
        .collect();
    FilterResult {
        reports: real_bugs
            .iter()
            .map(|bug| BugReport::from_possible(bug, module))
            .collect(),
        real_bugs,
        failures,
    }
}

/// P3 over `stream`, the candidates of every root in root order: groups
/// them, settles each group and returns the reported groups' witnesses in
/// group order, each as its root's index in the stream and its own among
/// that root's candidates, with the quarantined groups. `names` is the
/// function space the candidates' ids belong to. With an active fault
/// plan the `validate` injection site fires per validation, labeled with
/// the candidate's root name.
///
/// `kept` is `Some` only for a request whose groups the session keeps. A
/// group whose members are the kept ones, none of them from a dirty root,
/// replays its kept verdicts; that needs the same module ids as the
/// request that kept them and, when validating, the cache they went
/// through. This request's groups then replace the kept ones. With `None`
/// nothing is replayed and nothing is recorded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn filter_roots(
    names: &[Arc<str>],
    stream: &[RootCandidates<'_>],
    mut kept: Option<&mut KeptGroups>,
    validate_paths: bool,
    cache: Option<&ValidationCache>,
    telemetry: Option<&Telemetry>,
    stats: &mut AnalysisStats,
    fault: Option<&FaultPlan>,
) -> (Vec<Member>, Vec<DegradedRoot>) {
    let mut prev = match kept.as_deref_mut() {
        Some(kept) => {
            #[cfg(test)]
            {
                kept.replayed = 0;
                kept.rendered = 0;
            }
            std::mem::take(&mut kept.groups)
        }
        None => FxHashMap::default(),
    };
    let mut run = Run::new(names, validate_paths, cache, telemetry, fault, stats);
    let current = groups(stream, stats);
    if let Some(kept) = kept.as_deref_mut() {
        kept.groups.reserve(current.len());
    }
    let mut witnesses = Vec::with_capacity(current.len());
    let member_id = |&(r, i): &Member| (stream[r].candidates[i].root, i);
    for group in current {
        let replay = prev.remove(&group.key).filter(|old| {
            old.members.len() == group.members.len()
                && group.members.iter().all(|&(r, _)| !stream[r].dirty)
                && old
                    .members
                    .iter()
                    .copied()
                    .eq(group.members.iter().map(member_id))
        });
        let (outcome, calls) = run.settle(stream, &group.members, replay.as_ref(), stats);
        let reported = match outcome {
            Outcome::Quarantined => continue,
            Outcome::False => false,
            Outcome::Reported(member) => {
                witnesses.push(member);
                true
            }
        };
        let Some(kept) = kept.as_deref_mut() else {
            continue;
        };
        let (members, json) = match replay {
            Some(replay) => {
                #[cfg(test)]
                {
                    kept.replayed += 1;
                }
                (replay.members, replay.json)
            }
            None => (group.members.iter().map(member_id).collect(), None),
        };
        kept.groups.insert(
            group.key,
            KeptGroup {
                members,
                calls,
                reported,
                json,
            },
        );
    }
    (witnesses, run.finish(stats))
}

/// One root's stage-1 candidates, in exploration order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RootCandidates<'c> {
    pub(crate) candidates: &'c [PossibleBug],
    /// Whether the root was explored for this request. Its groups are
    /// validated again even when their members look the same.
    pub(crate) dirty: bool,
}

/// A P3 group's identity: its problematic-instruction pair.
pub(crate) type GroupKey = (BugKind, InstId, InstId);

/// A group member: the index of its root in the stream and of the
/// candidate among that root's.
pub(crate) type Member = (usize, usize);

/// Candidates with one problematic-instruction pair, in stream order.
struct Group {
    key: GroupKey,
    members: Vec<Member>,
}

/// Groups the stream by problematic-instruction pair (§4 P3): two
/// candidates with identical instructions are the same bug reached along
/// different paths (possibly from different analysis roots). The bug is
/// real if *any* of its paths is feasible. Groups come in the order of
/// their first member; every later member counts as a repeated bug.
fn groups(stream: &[RootCandidates<'_>], stats: &mut AnalysisStats) -> Vec<Group> {
    let candidates = stream.iter().map(|root| root.candidates.len()).sum();
    let mut at: FxHashMap<GroupKey, usize> =
        FxHashMap::with_capacity_and_hasher(candidates, Default::default());
    let mut groups: Vec<Group> = Vec::new();
    for (r, root) in stream.iter().enumerate() {
        for (i, bug) in root.candidates.iter().enumerate() {
            match at.entry(bug.dedup_key()) {
                Entry::Occupied(e) => {
                    stats.repeated_bugs_dropped += 1;
                    groups[*e.get()].members.push((r, i));
                }
                Entry::Vacant(e) => {
                    groups.push(Group {
                        key: *e.key(),
                        members: vec![(r, i)],
                    });
                    e.insert(groups.len() - 1);
                }
            }
        }
    }
    groups
}

/// What P3 decided for one group.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// The member whose path is feasible, reported.
    Reported(Member),
    /// Every path was infeasible: a dropped false bug.
    False,
    /// A validation panicked: neither reported nor a counted false drop.
    Quarantined,
}

/// The validation state of one filter run.
struct Run<'a> {
    names: &'a [Arc<str>],
    validator: PathValidator<'a>,
    validate_paths: bool,
    telemetry: Option<&'a Telemetry>,
    fault: Option<&'a FaultPlan>,
    failures: Vec<DegradedRoot>,
    /// `stats`' reported, repeated and false counts before the run.
    base: (u64, u64, u64),
}

impl<'a> Run<'a> {
    fn new(
        names: &'a [Arc<str>],
        validate_paths: bool,
        cache: Option<&'a ValidationCache>,
        telemetry: Option<&'a Telemetry>,
        fault: Option<&'a FaultPlan>,
        stats: &AnalysisStats,
    ) -> Self {
        let tel_enabled = telemetry.is_some_and(Telemetry::is_enabled);
        Run {
            names,
            validator: PathValidator::with_telemetry(cache, tel_enabled),
            validate_paths,
            telemetry,
            fault,
            failures: Vec::new(),
            base: (
                stats.reported,
                stats.repeated_bugs_dropped,
                stats.false_bugs_dropped,
            ),
        }
    }

    /// Validates `members` in order until one is feasible, or replays the
    /// verdicts of `kept`, the group as the previous request left it: its
    /// first `calls - 1` members were infeasible, and the last one it
    /// validated was feasible when it was reported. Counts the outcome in
    /// `stats` and returns it with the number of validations it took. The
    /// `validate` fault site fires before each validation, replayed or
    /// not, so a fault plan sees the same hits either way.
    fn settle(
        &mut self,
        stream: &[RootCandidates<'_>],
        members: &[Member],
        kept: Option<&KeptGroup>,
        stats: &mut AnalysisStats,
    ) -> (Outcome, usize) {
        let calls = kept.map_or(members.len(), |k| k.calls);
        let (outcome, calls) = 'decided: {
            if !self.validate_paths {
                break 'decided (Outcome::Reported(members[0]), 0);
            }
            for (k, &(r, i)) in members[..calls].iter().enumerate() {
                let bug = &stream[r].candidates[i];
                let root = &*self.names[bug.root.index()];
                let (validator, fault) = (&mut self.validator, self.fault);
                // Per-candidate quarantine: a panicking validation (SMT bug,
                // injected fault) drops this group only. The validator keeps
                // no solver between candidates, so it carries on.
                let verdict = catch_unwind(AssertUnwindSafe(|| {
                    faultinject::maybe_panic(fault, "validate", root);
                    match kept {
                        Some(kept) => {
                            validator.count_kept_verdict();
                            kept.reported && k + 1 == kept.calls
                        }
                        None => validator.validate(bug) == Feasibility::Feasible,
                    }
                }));
                match verdict {
                    Ok(true) => break 'decided (Outcome::Reported((r, i)), k + 1),
                    Ok(false) => {}
                    Err(payload) => {
                        self.failures.push(DegradedRoot {
                            root: root.to_string(),
                            stage: "validate".to_string(),
                            reason: crate::driver::panic_reason(payload.as_ref()),
                            action: "quarantined".to_string(),
                        });
                        if let Some(tel) = self.telemetry {
                            tel.record_direct(|sink| {
                                sink.add("driver.recover.quarantined", 1);
                            });
                        }
                        // Neither reported nor a counted false drop: the
                        // verdict is unknown, which is exactly what the
                        // degraded section communicates.
                        break 'decided (Outcome::Quarantined, k + 1);
                    }
                }
            }
            (Outcome::False, calls)
        };
        match outcome {
            Outcome::Reported(_) => stats.reported += 1,
            Outcome::False => stats.false_bugs_dropped += 1,
            Outcome::Quarantined => {}
        }
        (outcome, calls)
    }

    /// Adds the validator's counters to `stats` and the telemetry, and
    /// returns the quarantined groups.
    fn finish(mut self, stats: &mut AnalysisStats) -> Vec<DegradedRoot> {
        let vstats = self.validator.stats();
        stats.validation_cache_hits += vstats.cache_hits;
        stats.validation_cache_misses += vstats.cache_misses;
        if let Some(tel) = self.telemetry {
            let (base_reported, base_repeated, base_false) = self.base;
            tel.merge(self.validator.take_telemetry());
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
        self.failures
    }
}

/// One group as a request left it.
#[derive(Debug)]
struct KeptGroup {
    /// Per member: the root that found it and its index among that root's
    /// candidates.
    members: Vec<(FuncId, usize)>,
    /// Validations the group took.
    calls: usize,
    /// Whether it was reported; a false bug otherwise.
    reported: bool,
    /// A reported group's finding as the serve path last rendered it (see
    /// [`KeptGroups::fragment`]). A replayed group keeps it; any other
    /// group starts without one.
    json: Option<Box<str>>,
}

/// The P3 groups of a session's previous request, by problematic
/// instruction pair (see [`filter_roots`]). A quarantined group is not
/// kept, so it is validated again.
#[derive(Debug, Default)]
pub(crate) struct KeptGroups {
    groups: FxHashMap<GroupKey, KeptGroup>,
    /// How many groups the last [`filter_roots`] replayed and kept again.
    #[cfg(test)]
    pub(crate) replayed: usize,
    /// How many fragments the serve path rendered anew since the last
    /// [`filter_roots`].
    #[cfg(test)]
    pub(crate) rendered: usize,
}

impl KeptGroups {
    /// The rendered finding of the reported group `key` of the last
    /// [`filter_roots`]. Whoever writes it keeps it true of the module:
    /// the same witness renders the same object until its site or origin
    /// function is lowered again.
    pub(crate) fn fragment(&mut self, key: GroupKey) -> &mut Option<Box<str>> {
        &mut self
            .groups
            .get_mut(&key)
            .expect("a reported group is kept")
            .json
    }
}

/// A kept group in comparable form (see [`KeptGroups::dump`]).
#[cfg(test)]
pub(crate) type GroupDump = (GroupKey, Vec<(FuncId, usize)>, usize, bool);

#[cfg(test)]
impl KeptGroups {
    /// Every kept group, by key.
    pub(crate) fn dump(&self) -> Vec<GroupDump> {
        let mut groups: Vec<GroupDump> = self
            .groups
            .iter()
            .map(|(key, g)| (*key, g.members.clone(), g.calls, g.reported))
            .collect();
        groups.sort_by_key(|g| g.0);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::BugKind;
    use pata_ir::{BlockId, FuncId, InstId};
    use pata_smt::{CmpOp, Constraint, SymId, Term};
    use std::sync::Arc;

    /// One function whose entry block holds the instructions `bug` names.
    fn module_with_one_fn() -> Module {
        let m = pata_cc::compile_one("f.c", "void f(int x) { x = 1; x = 2; x = 3; }").unwrap();
        assert!(m.function(FuncId::from_index(0)).blocks()[0].insts.len() >= 3);
        m
    }

    fn bug(site: usize, constraints: Vec<Constraint>) -> PossibleBug {
        PossibleBug {
            kind: BugKind::NullPointerDeref,
            origin_id: InstId {
                func: FuncId::from_index(0),
                block: BlockId::from_index(0),
                inst: 0,
            },
            site_id: InstId {
                func: FuncId::from_index(0),
                block: BlockId::from_index(0),
                inst: site,
            },
            constraints: constraints.into(),
            extra: Arc::new([]),
            alias_paths: Arc::new([]),
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

    /// P3 groups across the whole stream: the same candidates give the
    /// same reports, statistics and telemetry as one flat entry, split per
    /// root, and split per root while recording groups.
    #[test]
    fn a_flat_and_a_per_root_stream_agree() {
        let corpus =
            pata_corpus::Corpus::generate(&pata_corpus::OsProfile::linux().with_scale(0.3));
        let mut cc = pata_cc::Compiler::new();
        for f in &corpus.files {
            cc.add_source(&f.path, &f.text);
        }
        let session = crate::AnalysisSession::new(crate::AnalysisConfig::default());
        let (module, candidates, _) = session.collect_candidates(cc.compile().unwrap());
        let stream: Vec<RootCandidates<'_>> = candidates
            .chunk_by(|a, b| a.root == b.root)
            .map(|candidates| RootCandidates {
                candidates,
                dirty: true,
            })
            .collect();
        let run = |split: bool, record: bool| {
            let (cache, tel) = (ValidationCache::new(), Telemetry::new(true));
            let mut stats = AnalysisStats::default();
            let (reports, real_bugs) = if split {
                let mut groups = KeptGroups::default();
                let (witnesses, _) = filter_roots(
                    &function_space(&module),
                    &stream,
                    record.then_some(&mut groups),
                    true,
                    Some(&cache),
                    Some(&tel),
                    &mut stats,
                    None,
                );
                let witnesses: Vec<&PossibleBug> = witnesses
                    .iter()
                    .map(|&(r, i)| &stream[r].candidates[i])
                    .collect();
                let reports: Vec<BugReport> = witnesses
                    .iter()
                    .map(|bug| BugReport::from_possible(bug, &module))
                    .collect();
                (reports, format!("{witnesses:?}"))
            } else {
                let out = filter(
                    &module,
                    candidates.clone(),
                    true,
                    Some(&cache),
                    Some(&tel),
                    &mut stats,
                );
                (
                    out.reports,
                    format!("{:?}", out.real_bugs.iter().collect::<Vec<_>>()),
                )
            };
            let snapshot = tel.snapshot();
            let counters: Vec<(String, u64)> = snapshot
                .counters()
                .into_iter()
                .filter(|(name, _)| name.starts_with("filter.") || name.starts_with("validate."))
                .map(|(name, value)| (name.to_owned(), value))
                .collect();
            (reports, real_bugs, stats, counters)
        };
        let flat = run(false, false);
        assert!(stream.len() > 1, "candidates from several roots");
        assert!(flat.2.repeated_bugs_dropped > 0 && flat.2.false_bugs_dropped > 0);
        assert!(!flat.0.is_empty() && !flat.3.is_empty());
        assert!(run(true, false) == flat, "split per root");
        assert!(run(true, true) == flat, "split per root, recording groups");
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
