//! Alias-aware path validation (paper §3.3).
//!
//! Stage 1 reports possible bugs without checking code-path feasibility;
//! stage 2 translates each candidate's path to SMT constraints and asks the
//! solver whether their conjunction is satisfiable. Because stage 1 already
//! mapped every alias set to a single symbol (Def. 4/5), the constraint
//! systems are small: copy equalities and implicit field equalities
//! (Fig. 9b) never appear — they hold by symbol identity (Fig. 9c).
//!
//! An `Unsat` verdict means the path cannot execute, so the candidate is a
//! false bug and is dropped. `Sat`/`Unknown` keep the candidate (the paper
//! keeps candidates its Z3 encoding cannot refute, §5.2).
//!
//! ## Validation performance
//!
//! One layer makes stage 2 cheap (see DESIGN.md "Performance
//! architecture"): [`ValidationCache`] memoizes whole conjunctions by a
//! canonical (order- and symbol-rename-independent) key, so identical
//! constraint systems — across candidates, roots, or whole runs — are
//! solved once. α-renaming and reordering preserve satisfiability, so a
//! shared key is always sound; imperfect canonicalization only costs extra
//! misses. A miss is decided by a fresh solver ([`validate_constraints`]
//! and [`PathValidator`] share one solving function): the systems are
//! small, so there is no solver state worth keeping between candidates.

use crate::report::PossibleBug;
use crate::telemetry::TelemetrySink;
use pata_smt::{Constraint, SatResult, Solver, SolverStats, Term};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The verdict for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// The path (plus bug condition) is satisfiable — a real report.
    Feasible,
    /// The conjunction is unsatisfiable — a false bug, dropped.
    Infeasible,
}

fn to_feasibility(result: SatResult) -> Feasibility {
    match result {
        SatResult::Unsat => Feasibility::Infeasible,
        SatResult::Sat | SatResult::Unknown => Feasibility::Feasible,
    }
}

/// Validates one candidate bug's code path with a fresh solver.
///
/// # Example
///
/// ```
/// use pata_core::validate::{validate_constraints, Feasibility};
/// use pata_smt::{Constraint, CmpOp, Term, SymId};
///
/// // x == 0 together with x != 0 — infeasible path.
/// let cs = vec![
///     Constraint::new(CmpOp::Eq, Term::sym(SymId(0)), Term::int(0)),
///     Constraint::new(CmpOp::Ne, Term::sym(SymId(0)), Term::int(0)),
/// ];
/// let (verdict, _) = validate_constraints(&cs, &[]);
/// assert_eq!(verdict, Feasibility::Infeasible);
/// ```
pub fn validate_constraints(
    path: &[Constraint],
    extra: &[Constraint],
) -> (Feasibility, SolverStats) {
    let conj: Vec<&Constraint> = path.iter().chain(extra).collect();
    let (result, stats) = solve(&conj);
    (to_feasibility(result), stats)
}

/// Decides a conjunction with a fresh solver — the one solving function of
/// stage 2.
fn solve(conj: &[&Constraint]) -> (SatResult, SolverStats) {
    let mut solver = Solver::new();
    // Reserve ids at least as high as any symbol mentioned.
    let max_sym = conj
        .iter()
        .map(|c| max_sym_in(&c.lhs).max(max_sym_in(&c.rhs)))
        .max()
        .unwrap_or(0);
    solver.reserve_symbols(max_sym + 1);
    for c in conj {
        solver.assert_constraint((*c).clone());
    }
    solver.check_with_stats()
}

fn max_sym_in(t: &Term) -> u32 {
    use pata_smt::Term::*;
    match t {
        Const(_) => 0,
        Sym(s) => s.0,
        Add(a, b) | Sub(a, b) | Mul(a, b) | Opaque(_, a, b) => max_sym_in(a).max(max_sym_in(b)),
        Neg(a) => max_sym_in(a),
    }
}

/// Validates a candidate bug with a fresh solver.
pub fn validate(bug: &PossibleBug) -> Feasibility {
    validate_constraints(&bug.constraints, &bug.extra).0
}

// --------------------------------------------------------------------
// Canonical conjunction keys
// --------------------------------------------------------------------

/// Builds a canonical byte key for a conjunction: constraints are sorted by
/// a symbol-independent structural skeleton, then symbols are renamed in
/// first-occurrence order and the renamed set is serialized. Conjunctions
/// that differ only by constraint order or by a symbol renaming map to the
/// same key.
///
/// The encoding is a compact byte stream (operator tags plus little-endian
/// constants) rather than text — key construction runs on every validated
/// conjunction, so it has to be cheaper than solving the (tiny) system.
fn canonical_key(conj: &[&Constraint]) -> Vec<u8> {
    // Pass 1: symbol-masked skeletons into one scratch buffer; `ranges`
    // remembers each constraint's slice.
    let mut skel = Vec::with_capacity(conj.len() * 24);
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(conj.len());
    for c in conj {
        let start = skel.len();
        encode_constraint(c, None, &mut skel);
        ranges.push((start, skel.len()));
    }
    // Skeleton ties keep input order: deterministic, and ambiguity only
    // costs cache misses, never wrong hits (the key holds the full set).
    let mut order: Vec<u32> = (0..conj.len() as u32).collect();
    order.sort_by(|&a, &b| {
        let (sa, ea) = ranges[a as usize];
        let (sb, eb) = ranges[b as usize];
        skel[sa..ea].cmp(&skel[sb..eb]).then(a.cmp(&b))
    });
    // Pass 2: re-encode in canonical order with symbols renamed in
    // first-occurrence order (index into `rename` = canonical id).
    let mut rename: Vec<pata_smt::SymId> = Vec::new();
    let mut key = Vec::with_capacity(skel.len() + 4 * conj.len());
    for i in order {
        encode_constraint(conj[i as usize], Some(&mut rename), &mut key);
        key.push(b';');
    }
    key
}

fn encode_constraint(
    c: &Constraint,
    mut rename: Option<&mut Vec<pata_smt::SymId>>,
    out: &mut Vec<u8>,
) {
    out.push(c.op as u8);
    encode_term(&c.lhs, rename.as_deref_mut(), out);
    encode_term(&c.rhs, rename, out);
}

// Term tags; CmpOp occupies 0..=5 but streams never interleave ambiguously
// (every position's interpretation is fixed by the grammar).
const TAG_CONST: u8 = 0x10;
const TAG_SYM: u8 = 0x11;
const TAG_SYM_MASKED: u8 = 0x12;
const TAG_ADD: u8 = 0x13;
const TAG_SUB: u8 = 0x14;
const TAG_MUL: u8 = 0x15;
const TAG_NEG: u8 = 0x16;
const TAG_OPAQUE: u8 = 0x17;

fn encode_term(t: &Term, mut rename: Option<&mut Vec<pata_smt::SymId>>, out: &mut Vec<u8>) {
    match t {
        Term::Const(v) => {
            out.push(TAG_CONST);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Term::Sym(s) => match rename {
            Some(map) => {
                // Linear scan: conjunctions mention a handful of symbols.
                let id = map.iter().position(|m| m == s).unwrap_or_else(|| {
                    map.push(*s);
                    map.len() - 1
                }) as u32;
                out.push(TAG_SYM);
                out.extend_from_slice(&id.to_le_bytes());
            }
            None => out.push(TAG_SYM_MASKED),
        },
        Term::Add(a, b) => {
            out.push(TAG_ADD);
            encode_term(a, rename.as_deref_mut(), out);
            encode_term(b, rename, out);
        }
        Term::Sub(a, b) => {
            out.push(TAG_SUB);
            encode_term(a, rename.as_deref_mut(), out);
            encode_term(b, rename, out);
        }
        Term::Mul(a, b) => {
            out.push(TAG_MUL);
            encode_term(a, rename.as_deref_mut(), out);
            encode_term(b, rename, out);
        }
        Term::Neg(a) => {
            out.push(TAG_NEG);
            encode_term(a, rename, out);
        }
        Term::Opaque(op, a, b) => {
            out.push(TAG_OPAQUE);
            out.push(*op as u8);
            encode_term(a, rename.as_deref_mut(), out);
            encode_term(b, rename, out);
        }
    }
}

// --------------------------------------------------------------------
// The shared validation cache
// --------------------------------------------------------------------

/// A map from canonical conjunction keys to solver verdicts, shared across
/// candidates and analysis runs (PATA keeps one per session so repeated
/// runs — e.g. benchmark iterations or re-analysis after small edits —
/// reuse earlier verdicts). It is `Sync` behind one lock, which is enough:
/// stage 2 runs on one thread per request.
///
/// The cache only grows: no verdict is ever dropped. A session relies on
/// that twice. A kept P3 group replays its verdicts as cache hits, which
/// they still are; and the verdicts recorded since a mark are exactly the
/// ones a store written at that mark lacks.
#[derive(Debug, Default)]
pub struct ValidationCache {
    verdicts: Mutex<Verdicts>,
}

/// The cache's map. Each verdict carries the number of the insertion that
/// recorded it, so a save can find the verdicts recorded since the last
/// one without copying the rest.
#[derive(Debug, Default)]
struct Verdicts {
    map: HashMap<Vec<u8>, (SatResult, u64)>,
    /// Insertions so far.
    inserted: u64,
}

impl Verdicts {
    fn insert(&mut self, key: Vec<u8>, result: SatResult) {
        self.map.insert(key, (result, self.inserted));
        self.inserted += 1;
    }
}

impl ValidationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn verdicts(&self) -> MutexGuard<'_, Verdicts> {
        self.verdicts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a canonical key.
    fn get(&self, key: &[u8]) -> Option<SatResult> {
        self.verdicts().map.get(key).map(|&(result, _)| result)
    }

    /// Records a verdict.
    fn insert(&self, key: Vec<u8>, result: SatResult) {
        self.verdicts().insert(key, result);
    }

    /// Number of cached conjunctions.
    pub fn len(&self) -> usize {
        self.verdicts().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots every cached verdict, sorted by key — the deterministic
    /// order the persistence layer serializes (identical caches produce
    /// identical store bytes).
    pub fn export(&self) -> Vec<(Vec<u8>, SatResult)> {
        self.export_since(0)
    }

    /// A mark for [`ValidationCache::export_since`]: the number of
    /// insertions so far.
    pub(crate) fn mark(&self) -> u64 {
        self.verdicts().inserted
    }

    /// The cached verdicts recorded at or after `mark`, sorted by key.
    pub(crate) fn export_since(&self, mark: u64) -> Vec<(Vec<u8>, SatResult)> {
        let mut entries: Vec<(Vec<u8>, SatResult)> = self
            .verdicts()
            .map
            .iter()
            .filter(|(_, &(_, at))| at >= mark)
            .map(|(k, &(v, _))| (k.clone(), v))
            .collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries
    }

    /// Bulk-loads verdicts (from a persisted store). Existing entries for
    /// the same key are overwritten; a cached verdict is always safe to
    /// adopt because keys canonically identify the conjunction they answer.
    pub fn import(&self, entries: Vec<(Vec<u8>, SatResult)>) {
        let mut verdicts = self.verdicts();
        for (key, result) in entries {
            verdicts.insert(key, result);
        }
    }
}

/// Counters for one validator's lifetime, merged into
/// [`crate::AnalysisStats`] by the filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Conjunctions answered from the cache without solving.
    pub cache_hits: u64,
    /// Conjunctions solved and inserted into the cache.
    pub cache_misses: u64,
    /// Conjunctions validated (with or without a cache).
    pub validated: u64,
}

// --------------------------------------------------------------------
// The path validator
// --------------------------------------------------------------------

/// Validates a stream of candidate conjunctions, answering repeats from an
/// optional [`ValidationCache`] and solving each miss with a fresh solver.
///
/// # Example
///
/// ```
/// use pata_core::validate::{Feasibility, PathValidator, ValidationCache};
/// use pata_smt::{CmpOp, Constraint, SymId, Term};
///
/// let cache = ValidationCache::new();
/// let mut v = PathValidator::new(Some(&cache));
/// let guard = Constraint::new(CmpOp::Eq, Term::sym(SymId(0)), Term::int(0));
/// let deref = Constraint::new(CmpOp::Ne, Term::sym(SymId(0)), Term::int(0));
/// assert_eq!(v.feasibility(&[guard.clone(), deref.clone()], &[]), Feasibility::Infeasible);
/// // The same system with its constraints reordered is a cache hit.
/// assert_eq!(v.feasibility(&[deref, guard], &[]), Feasibility::Infeasible);
/// assert_eq!((v.stats().cache_hits, v.stats().cache_misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct PathValidator<'a> {
    cache: Option<&'a ValidationCache>,
    stats: ValidationStats,
    /// Telemetry gate, checked once per record site (a plain bool: the
    /// validator is single-threaded, the atomic gate lives on
    /// [`crate::telemetry::Telemetry`]).
    tel_enabled: bool,
    sink: TelemetrySink,
    solve_calls: u64,
    propagations: u64,
}

impl<'a> PathValidator<'a> {
    /// Creates a validator, optionally backed by a shared cache.
    pub fn new(cache: Option<&'a ValidationCache>) -> Self {
        Self::with_telemetry(cache, false)
    }

    /// Creates a validator that records solver telemetry when `telemetry`
    /// is true (drain it with [`PathValidator::take_telemetry`]).
    pub fn with_telemetry(cache: Option<&'a ValidationCache>, telemetry: bool) -> Self {
        PathValidator {
            cache,
            stats: ValidationStats::default(),
            tel_enabled: telemetry,
            sink: TelemetrySink::new(),
            solve_calls: 0,
            propagations: 0,
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ValidationStats {
        self.stats
    }

    /// Drains the recorded telemetry: `validate.*` counters, the
    /// `validate.solve` histogram, and the `smt.*` solver-traffic metrics.
    /// Empty when telemetry was disabled.
    pub fn take_telemetry(&mut self) -> TelemetrySink {
        if !self.tel_enabled {
            return TelemetrySink::new();
        }
        let mut sink = std::mem::take(&mut self.sink);
        sink.add("validate.conjunctions", self.stats.validated);
        sink.add("validate.cache_hit", self.stats.cache_hits);
        sink.add("validate.cache_miss", self.stats.cache_misses);
        sink.add("smt.solve_calls", self.solve_calls);
        sink.add("smt.propagations", self.propagations);
        sink
    }

    /// Counts one conjunction whose verdict the caller kept from an
    /// earlier validation through the same cache: what validating it again
    /// would count, a cache hit.
    pub(crate) fn count_kept_verdict(&mut self) {
        self.stats.validated += 1;
        if self.cache.is_some() {
            self.stats.cache_hits += 1;
        }
    }

    /// Validates one candidate bug.
    pub fn validate(&mut self, bug: &PossibleBug) -> Feasibility {
        self.feasibility(&bug.constraints, &bug.extra)
    }

    /// Decides feasibility of `path ∧ extra`.
    pub fn feasibility(&mut self, path: &[Constraint], extra: &[Constraint]) -> Feasibility {
        self.stats.validated += 1;
        let conj: Vec<&Constraint> = path.iter().chain(extra).collect();
        if let Some(cache) = self.cache {
            let key = canonical_key(&conj);
            if let Some(result) = cache.get(&key) {
                self.stats.cache_hits += 1;
                return to_feasibility(result);
            }
            let result = self.solve(&conj);
            self.stats.cache_misses += 1;
            cache.insert(key, result);
            to_feasibility(result)
        } else {
            to_feasibility(self.solve(&conj))
        }
    }

    fn solve(&mut self, conj: &[&Constraint]) -> SatResult {
        if !self.tel_enabled {
            return solve(conj).0;
        }
        let started = Instant::now();
        let (result, stats) = solve(conj);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sink.record_ns("validate.solve", ns);
        self.solve_calls += 1;
        self.propagations += stats.propagations;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_smt::{CmpOp, Constraint, SymId, Term};

    fn eq0(s: u32) -> Constraint {
        Constraint::new(CmpOp::Eq, Term::sym(SymId(s)), Term::int(0))
    }

    fn ne0(s: u32) -> Constraint {
        Constraint::new(CmpOp::Ne, Term::sym(SymId(s)), Term::int(0))
    }

    #[test]
    fn feasible_when_unconstrained() {
        let (v, _) = validate_constraints(&[], &[]);
        assert_eq!(v, Feasibility::Feasible);
    }

    #[test]
    fn fig9_alias_merged_symbols_refute() {
        // R(p->f)==0 (line 3) and R(t->f)!=0 (line 6) where p->f and t->f
        // share one symbol because p and t alias — paper Fig. 9c.
        let cs = vec![eq0(0), ne0(0)];
        assert_eq!(validate_constraints(&cs, &[]).0, Feasibility::Infeasible);
    }

    #[test]
    fn fig9_unaware_symbols_do_not_refute() {
        // The alias-unaware encoding gives p->f and t->f distinct symbols
        // with no connecting constraint — the false bug survives (PATA-NA's
        // higher false-positive rate, Table 6).
        let cs = vec![eq0(0), ne0(1)];
        assert_eq!(validate_constraints(&cs, &[]).0, Feasibility::Feasible);
    }

    #[test]
    fn extra_bug_condition_participates() {
        // Path says d > 0; bug condition says d == 0 — infeasible.
        let d = SymId(3);
        let path = vec![Constraint::new(CmpOp::Gt, Term::sym(d), Term::int(0))];
        let extra = vec![Constraint::new(CmpOp::Eq, Term::sym(d), Term::int(0))];
        assert_eq!(
            validate_constraints(&path, &extra).0,
            Feasibility::Infeasible
        );
    }

    #[test]
    fn validator_matches_fresh_on_mixed_stream() {
        // Candidates sharing prefixes of different lengths, mixing verdicts.
        let streams: Vec<Vec<Constraint>> = vec![
            vec![eq0(0), eq0(1)],
            vec![eq0(0), eq0(1), ne0(0)],         // infeasible suffix
            vec![eq0(0), eq0(1), ne0(2)],         // feasible again
            vec![ne0(0)],                         // no shared prefix
            vec![eq0(0), eq0(1), ne0(2), ne0(0)], // deep infeasible
            vec![eq0(0), eq0(1), ne0(2)],         // repeat
        ];
        let cache = ValidationCache::new();
        for cache in [None, Some(&cache)] {
            let mut v = PathValidator::new(cache);
            for cs in &streams {
                let fresh = validate_constraints(cs, &[]).0;
                assert_eq!(v.feasibility(cs, &[]), fresh, "{cs:?}");
            }
        }
    }

    #[test]
    fn cache_hits_skip_solving_and_agree() {
        let cache = ValidationCache::new();
        let mut v = PathValidator::new(Some(&cache));
        let cs = vec![eq0(0), ne0(0)];
        assert_eq!(v.feasibility(&cs, &[]), Feasibility::Infeasible);
        assert_eq!(v.feasibility(&cs, &[]), Feasibility::Infeasible);
        assert_eq!(v.stats().cache_hits, 1);
        assert_eq!(v.stats().cache_misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_key_ignores_order_and_renaming() {
        let a = vec![eq0(4), ne0(4)];
        let b = vec![ne0(9), eq0(9)]; // reordered + renamed
        let ka = canonical_key(&a.iter().collect::<Vec<_>>());
        let kb = canonical_key(&b.iter().collect::<Vec<_>>());
        assert_eq!(ka, kb);

        let cache = ValidationCache::new();
        let mut v = PathValidator::new(Some(&cache));
        assert_eq!(v.feasibility(&a, &[]), Feasibility::Infeasible);
        assert_eq!(v.feasibility(&b, &[]), Feasibility::Infeasible);
        assert_eq!(v.stats().cache_hits, 1, "α-equivalent conjunction must hit");
    }

    #[test]
    fn cache_key_distinguishes_different_structure() {
        let a = vec![eq0(0), ne0(0)]; // same symbol: unsat
        let b = vec![eq0(0), ne0(1)]; // different symbols: sat
        let ka = canonical_key(&a.iter().collect::<Vec<_>>());
        let kb = canonical_key(&b.iter().collect::<Vec<_>>());
        assert_ne!(ka, kb);
    }

    #[test]
    fn huge_symbol_ids_fall_back_to_fresh_solving() {
        let big = (1 << 16) + 7;
        let cs = vec![eq0(big), ne0(big)];
        let mut v = PathValidator::new(None);
        assert_eq!(v.feasibility(&cs, &[]), Feasibility::Infeasible);
        let sat = vec![eq0(big), ne0(big + 1)];
        assert_eq!(v.feasibility(&sat, &[]), Feasibility::Feasible);
    }

    #[test]
    fn telemetry_reflects_solver_traffic() {
        let cache = ValidationCache::new();
        let mut v = PathValidator::with_telemetry(Some(&cache), true);
        v.feasibility(&[eq0(0), eq0(1)], &[]);
        v.feasibility(&[eq0(0), eq0(1), ne0(0)], &[]);
        v.feasibility(&[eq0(0), eq0(1)], &[]); // repeat: cache hit, no solve
        let sink = v.take_telemetry();
        let tel = crate::telemetry::Telemetry::new(true);
        tel.merge(sink);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("validate.conjunctions"), 3);
        assert_eq!(snap.counter("validate.cache_hit"), 1);
        assert_eq!(snap.counter("validate.cache_miss"), 2);
        assert_eq!(snap.counter("smt.solve_calls"), 2);
        // The two solves' propagation steps add up (the disequality's
        // shortest-path search makes the sum positive).
        let fresh: u64 = [vec![eq0(0), eq0(1)], vec![eq0(0), eq0(1), ne0(0)]]
            .iter()
            .map(|cs| validate_constraints(cs, &[]).1.propagations)
            .sum();
        assert!(fresh > 0);
        assert_eq!(snap.counter("smt.propagations"), fresh);
        assert_eq!(snap.histogram("validate.solve").unwrap().count, 2);
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let mut v = PathValidator::new(None);
        v.feasibility(&[eq0(0), ne0(0)], &[]);
        assert!(v.take_telemetry().is_empty());
    }

    #[test]
    fn cache_is_shared_across_validators() {
        let cache = ValidationCache::new();
        {
            let mut v = PathValidator::new(Some(&cache));
            v.feasibility(&[eq0(0), ne0(0)], &[]);
        }
        let mut v2 = PathValidator::new(Some(&cache));
        assert_eq!(
            v2.feasibility(&[eq0(0), ne0(0)], &[]),
            Feasibility::Infeasible
        );
        assert_eq!(v2.stats().cache_hits, 1);
    }
}
