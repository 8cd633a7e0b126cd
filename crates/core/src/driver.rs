//! The per-root exploration scheduler behind [`crate::AnalysisSession`]
//! (paper Fig. 10, phase P2): roots are explored by a work-stealing
//! scheduler, each under the fault-containment ladder, and their results
//! are merged back in root order.

use crate::config::AnalysisConfig;
use crate::path::{ExploreResult, Explorer, ForkStats};
use crate::report::{DegradedRoot, PossibleBug};
use crate::stats::{AnalysisStats, BudgetNote};
use crate::telemetry::{Span, Telemetry, TelemetrySink};
use crate::typestate::Checker;
use pata_ir::{FuncId, Module};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// A root the fault-containment ladder could not complete normally: the
/// structured record of a quarantine (panic caught) or demotion (resource
/// budget tripped, bounded re-run kept). Stats from a quarantined attempt
/// are dropped entirely — partial progress varies with the cache and
/// thread configuration, while the failure record itself is deterministic.
#[derive(Debug, Clone)]
pub(crate) struct RootFailure {
    /// Root function name.
    pub(crate) root: String,
    /// Pipeline stage where the fault hit (`"explore"`).
    pub(crate) stage: &'static str,
    /// The panic payload (quarantine) or tripped budget (demotion).
    pub(crate) reason: String,
    /// `"quarantined"` or `"demoted"`.
    pub(crate) action: &'static str,
}

impl RootFailure {
    pub(crate) fn to_degraded(&self) -> DegradedRoot {
        DegradedRoot {
            root: self.root.clone(),
            stage: self.stage.to_string(),
            reason: self.reason.clone(),
            action: self.action.to_string(),
        }
    }
}

/// One root's exploration result — the per-root granularity the session
/// layer caches and persists (candidates, exploration stats and budget note
/// for exactly one interface function).
#[derive(Debug)]
pub(crate) struct RootRun {
    /// Index into the explored root slice (merge key: results are combined
    /// in root order regardless of scheduling).
    pub(crate) index: usize,
    /// Raw stage-1 candidates from this root.
    pub(crate) candidates: Vec<PossibleBug>,
    /// Exploration stats accumulated by this root alone.
    pub(crate) stats: AnalysisStats,
    /// Budget-exhaustion note, if the root was truncated.
    pub(crate) note: Option<BudgetNote>,
    /// Set when the fault-containment ladder intervened: `"quarantined"`
    /// (candidates empty, verdicts absent) or `"demoted"` (candidates from
    /// the bounded re-run).
    pub(crate) failure: Option<RootFailure>,
}

/// Explores `roots` (any subset of the module's interface functions) and
/// returns each root's result separately, in root order. The session
/// passes every root for a one-shot run, and only the *dirty* roots for an
/// incremental one. Every root's counters are merged into `stats`.
///
/// Root-level parallelism uses work stealing: roots are dealt round-robin
/// into per-worker deques; a worker pops from its own queue's front and,
/// when empty, steals from the back of another worker's queue. Root costs
/// are wildly uneven (one hot root can dominate a static split), so idle
/// workers pull the remaining work instead of waiting. The task set is
/// static — no queue ever grows — so one full empty scan means the phase is
/// done. A single worker runs inline on the calling thread.
pub(crate) fn explore_roots(
    module: &Module,
    config: &AnalysisConfig,
    checkers: &[Box<dyn Checker>],
    roots: &[FuncId],
    telemetry: &Telemetry,
    stats: &mut AnalysisStats,
) -> Vec<RootRun> {
    let hw_threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.threads
    };
    let threads = hw_threads.min(roots.len().max(1));
    let tel_on = telemetry.is_enabled();

    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..roots.len()).step_by(threads).collect()))
        .collect();
    let steals = AtomicU64::new(0);
    let collected: Mutex<Vec<RootRun>> = Mutex::new(Vec::with_capacity(roots.len()));
    let worker = |w: usize| {
        // Per-worker telemetry shard: lock-free while the worker runs,
        // merged into the shared registry once at exit.
        let mut sink = TelemetrySink::new();
        let mut alias_ops = [0u64; 7];
        let mut fork_total = ForkStats::default();
        while let Some(i) = next_task(&queues, w, &steals) {
            let root = roots[i];
            let span = Span::start(tel_on, "explore.root");
            let (result, failure) = run_one_root(module, config, checkers, root, &mut sink, tel_on);
            if tel_on {
                let name = module.function(root).name();
                span.finish_labeled(&mut sink, Some(name.into()));
                for (acc, n) in alias_ops.iter_mut().zip(result.alias_ops) {
                    *acc += n;
                }
                flush_root_fork_stats(&mut sink, name, &result.fork_stats);
                fork_total.merge(&result.fork_stats);
            }
            lock_ok(collected.lock()).push(RootRun {
                index: i,
                candidates: result.candidates,
                stats: result.stats,
                note: result.budget_note,
                failure,
            });
        }
        if tel_on {
            flush_alias_ops(&mut sink, &alias_ops);
            flush_fork_totals(&mut sink, &fork_total);
            telemetry.merge(sink);
        }
    };
    if threads == 1 {
        worker(0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..threads {
                let worker = &worker;
                scope.spawn(move || worker(w));
            }
        });
    }

    let mut runs = collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    // Merge in root order regardless of which worker ran what — the
    // candidate stream (and so the final report set) is identical to a
    // single-threaded run.
    runs.sort_by_key(|run| run.index);
    let base = stats.clone();
    for run in &runs {
        *stats += &run.stats;
    }
    let stolen = steals.into_inner();
    stats.work_steals += stolen;
    if tel_on {
        telemetry.record_direct(|sink| {
            sink.gauge_max("driver.threads", threads as i64);
            sink.add("driver.work_steals", stolen);
        });
        record_exploration_counters(telemetry, stats, &base);
    }
    runs
}

/// The next root index for worker `w`: the front of its own queue, else
/// the back of the first non-empty other queue (counted as a steal).
fn next_task(queues: &[Mutex<VecDeque<usize>>], w: usize, steals: &AtomicU64) -> Option<usize> {
    let own = lock_ok(queues[w].lock()).pop_front();
    own.or_else(|| {
        let stolen = (1..queues.len())
            .find_map(|off| lock_ok(queues[(w + off) % queues.len()].lock()).pop_back());
        if stolen.is_some() {
            steals.fetch_add(1, Ordering::Relaxed);
        }
        stolen
    })
}

/// Explores one root under the fault-containment ladder (DESIGN.md
/// "Fault containment & degraded reports"):
///
/// 1. Full-budget attempt under `catch_unwind`. A panic — a misbehaving
///    checker, an injected fault — **quarantines** the root: its partial
///    results are dropped entirely (partial progress varies with the
///    cache/thread configuration; a fixed empty result keeps reports and
///    stats byte-identical) and a [`RootFailure`] records the payload.
/// 2. A `deadline` / `live_bytes` budget trip **demotes** the root to a
///    bounded cache-free re-run (path/instruction budgets clamped) whose
///    verdicts are kept, flagged `"demoted"`. The bounded budgets make the
///    re-run deterministic and finite even though the original trip was
///    time- or memory-driven.
/// 3. A demoted run that panics or trips a resource budget again is
///    quarantined.
///
/// Recovery telemetry (`driver.recover.*`) lands in the caller's worker
/// sink; the counters are exact across thread counts for a fixed fault
/// plan, like every other counter.
fn run_one_root(
    module: &Module,
    config: &AnalysisConfig,
    checkers: &[Box<dyn Checker>],
    root: FuncId,
    sink: &mut TelemetrySink,
    tel_on: bool,
) -> (ExploreResult, Option<RootFailure>) {
    let attempt = |config: &AnalysisConfig| {
        catch_unwind(AssertUnwindSafe(|| {
            Explorer::new(module, config, checkers, root).explore()
        }))
        .map_err(|payload| panic_reason(payload.as_ref()))
    };
    let (result, action, reason) = match attempt(config) {
        Err(panic) => (quarantined_result(), "quarantined", panic),
        Ok(result) => {
            let Some(reason) = resource_trip(&result) else {
                return (result, None);
            };
            if tel_on {
                let counter = if reason == "deadline" {
                    "driver.recover.deadline_hits"
                } else {
                    "driver.recover.live_bytes_hits"
                };
                sink.add(counter, 1);
            }
            // Demotion: bounded cache-free re-run. Budgets are clamped so
            // the re-run terminates quickly even for the pathological root
            // that burned the full deadline; caches/memo stay off (the
            // cache-free truncation contract of `Explorer::explore`), and
            // the deadline and ceiling stay armed so a root that cannot
            // finish even degraded is caught again.
            let mut demoted = config.clone();
            demoted.exploration_cache = false;
            demoted.callee_memo = false;
            demoted.budget.max_paths = demoted.budget.max_paths.min(DEMOTED_MAX_PATHS);
            demoted.budget.max_insts = demoted.budget.max_insts.min(DEMOTED_MAX_INSTS);
            let retry = Instant::now();
            let rerun = attempt(&demoted);
            if tel_on {
                sink.record_ns(
                    "driver.recover.retry_ns",
                    Some("explore".into()),
                    retry.elapsed().as_nanos() as u64,
                );
            }
            match rerun {
                Ok(result) if resource_trip(&result).is_none() => (result, "demoted", reason),
                Ok(_) => (quarantined_result(), "quarantined", reason),
                Err(panic) => (quarantined_result(), "quarantined", panic),
            }
        }
    };
    if tel_on {
        if action == "demoted" {
            sink.add("driver.recover.demoted", 1);
        } else {
            sink.add_labeled("driver.recover.quarantined", Some("explore".into()), 1);
        }
    }
    let failure = RootFailure {
        root: module.function(root).name().to_string(),
        stage: "explore",
        reason,
        action,
    };
    (result, Some(failure))
}

/// The resource budget (`deadline` / `live_bytes`) `result` tripped, if any.
fn resource_trip(result: &ExploreResult) -> Option<String> {
    result
        .budget_note
        .as_ref()
        .filter(|n| n.reason == "deadline" || n.reason == "live_bytes")
        .map(|n| n.reason.clone())
}

/// Records the exploration-volume counters derived from the merged
/// per-root statistics — once per run, as the delta against the stats at
/// `explore_roots` entry, so they stay exact for any thread count.
fn record_exploration_counters(telemetry: &Telemetry, stats: &AnalysisStats, base: &AnalysisStats) {
    telemetry.record_direct(|sink| {
        sink.add("path.paths", stats.paths_explored - base.paths_explored);
        sink.add("path.insts", stats.insts_processed - base.insts_processed);
        sink.add(
            "path.budget_exhausted",
            stats.budget_exhausted_roots - base.budget_exhausted_roots,
        );
        sink.add(
            "typestate.transitions",
            stats.typestates_aware - base.typestates_aware,
        );
        sink.add(
            "constraints.emitted",
            stats.constraints_aware - base.constraints_aware,
        );
        sink.add(
            "driver.explore.sub_hits",
            stats.exploration_cache_hits - base.exploration_cache_hits,
        );
        sink.add(
            "driver.explore.memo_hits",
            stats.callee_memo_hits - base.callee_memo_hits,
        );
        sink.add(
            "driver.explore.insts_replayed",
            stats.insts_replayed - base.insts_replayed,
        );
    });
}

/// Demoted-run clamp on completed paths per root.
const DEMOTED_MAX_PATHS: usize = 256;
/// Demoted-run clamp on instructions processed per root.
const DEMOTED_MAX_INSTS: usize = 50_000;

/// The deterministic result recorded for a quarantined root: no candidates,
/// no counters beyond the root itself. Partial progress up to the panic
/// depends on caches and CoW mode — dropping it entirely is what keeps
/// stats and reports byte-identical across configurations for a fixed
/// failure set.
fn quarantined_result() -> ExploreResult {
    ExploreResult {
        candidates: Vec::new(),
        stats: AnalysisStats {
            roots: 1,
            ..AnalysisStats::default()
        },
        alias_ops: [0; 7],
        budget_note: None,
        fork_stats: ForkStats::default(),
    }
}

/// Renders a caught panic payload for the failure record. Panics raised by
/// `panic!("...")` carry `String`/`&str`; anything else gets a fixed label
/// (payload types are not stable across configurations).
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Recovers a scheduler-lock guard from poisoning. The queues hold plain
/// `usize` indices and `collected` grows by whole-`RootRun` pushes, so a
/// panicking worker (already contained by `run_one_root`; this is defense
/// in depth) cannot leave either in a half-written state.
fn lock_ok<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Converts a per-worker alias-op array into labeled `alias.op` counters.
fn flush_alias_ops(sink: &mut TelemetrySink, alias_ops: &[u64; 7]) {
    for (i, &name) in crate::path::ALIAS_OP_NAMES.iter().enumerate() {
        if alias_ops[i] > 0 {
            sink.add_labeled("alias.op", Some(name.into()), alias_ops[i]);
        }
    }
}

/// Per-root fork counters, labeled by root name so `--profile` can show
/// forks and copied bytes per slow root. Totals come from summing the
/// labels (`TelemetrySnapshot::counter_sum`), so no unlabeled counter with
/// the same name is ever emitted.
fn flush_root_fork_stats(sink: &mut TelemetrySink, root: &str, fs: &ForkStats) {
    if fs.forks == 0 {
        return;
    }
    sink.add_labeled("driver.explore.fork.forks", Some(root.into()), fs.forks);
    sink.add_labeled(
        "driver.explore.fork.bytes_copied",
        Some(root.into()),
        fs.bytes_copied,
    );
}

/// Run-wide fork aggregates: shared-vs-copied bytes and the high-water
/// gauges for undo-journal depth and live state size.
fn flush_fork_totals(sink: &mut TelemetrySink, fs: &ForkStats) {
    if fs.forks == 0 {
        return;
    }
    sink.add("driver.explore.fork.bytes_shared", fs.bytes_shared);
    sink.gauge_max(
        "driver.explore.fork.journal_depth.max",
        fs.journal_depth_max as i64,
    );
    sink.gauge_max(
        "driver.explore.fork.live_bytes.max",
        fs.live_bytes_max as i64,
    );
}

#[cfg(test)]
mod tests {
    use crate::checkers::BugKind;
    use crate::config::AnalysisConfig;
    use crate::session::{AnalysisOutcome, AnalysisSession};

    fn analyze(src: &str) -> AnalysisOutcome {
        let module = pata_cc::compile_one("t.c", src).unwrap();
        AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        })
        .analyze_module(module)
    }

    fn analyze_all(src: &str) -> AnalysisOutcome {
        let module = pata_cc::compile_one("t.c", src).unwrap();
        let cfg = AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::all_checkers()
        };
        AnalysisSession::new(cfg).analyze_module(module)
    }

    fn kinds(outcome: &AnalysisOutcome) -> Vec<BugKind> {
        outcome.reports.iter().map(|r| r.kind).collect()
    }

    // ----------------------------------------------------------------
    // NPD
    // ----------------------------------------------------------------

    #[test]
    fn npd_check_then_deref_same_function() {
        let out = analyze(
            r#"
            struct dev { int *res; };
            int probe(struct dev *d) {
                if (d->res == NULL) { }
                return *d->res;
            }
            "#,
        );
        assert!(
            kinds(&out).contains(&BugKind::NullPointerDeref),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn npd_guarded_deref_not_reported() {
        let out = analyze(
            r#"
            struct dev { int *res; };
            int probe(struct dev *d) {
                if (d->res == NULL) { return -1; }
                return *d->res;
            }
            "#,
        );
        assert!(
            !kinds(&out).contains(&BugKind::NullPointerDeref),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn npd_cross_function_alias_fig3() {
        // The Zephyr friend_set bug shape (paper Fig. 3): the NULL check in
        // the caller, the dereference through an alias in the callee.
        let out = analyze(
            r#"
            struct cfg_t { int frnd; };
            struct model_t { struct cfg_t *user_data; };
            void send_status(struct model_t *model) {
                struct cfg_t *cfg = model->user_data;
                int x = cfg->frnd;
            }
            void friend_set(struct model_t *model) {
                struct cfg_t *cfg = model->user_data;
                if (!cfg) {
                    goto send;
                }
                cfg->frnd = 1;
                return;
            send:
                send_status(model);
            }
            "#,
        );
        let npd: Vec<_> = out
            .reports
            .iter()
            .filter(|r| r.kind == BugKind::NullPointerDeref)
            .collect();
        assert!(
            !npd.is_empty(),
            "expected the Fig. 3 NPD, got {:?}",
            out.reports
        );
        assert!(npd.iter().any(|r| r.function == "send_status"));
    }

    #[test]
    fn npd_infeasible_path_filtered_fig9() {
        // Paper Fig. 9: the q-deref path requires p->f == 0 AND t->f != 0,
        // but p and t alias — infeasible, dropped by validation.
        let out = analyze(
            r#"
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
            "#,
        );
        assert!(
            !kinds(&out).contains(&BugKind::NullPointerDeref),
            "alias-aware validation must drop the Fig. 9 false bug: {:?}",
            out.reports
        );
        assert!(out.stats.false_bugs_dropped >= 1, "{:?}", out.stats);
    }

    // ----------------------------------------------------------------
    // UVA
    // ----------------------------------------------------------------

    #[test]
    fn uva_scalar_use_before_init() {
        let out = analyze(
            r#"
            int f(int c) {
                int x;
                if (c > 0) { x = 1; }
                return x;
            }
            "#,
        );
        assert!(
            kinds(&out).contains(&BugKind::UninitVarAccess),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn uva_initialized_not_reported() {
        let out = analyze("int f(void) { int x = 1; return x; }");
        assert!(!kinds(&out).contains(&BugKind::UninitVarAccess));
    }

    #[test]
    fn uva_out_param_initialization_seen() {
        let out = analyze(
            r#"
            void fill(int *out) { *out = 5; }
            int f(void) {
                int v;
                fill(&v);
                return v;
            }
            "#,
        );
        assert!(
            !kinds(&out).contains(&BugKind::UninitVarAccess),
            "out-parameter init must be seen through the alias graph: {:?}",
            out.reports
        );
    }

    #[test]
    fn uva_malloc_field_never_written_fig12d() {
        // TencentOS pthread_create shape (Fig. 12d): allocate, alias, read
        // a field without initialization.
        let out = analyze(
            r#"
            struct ctl { int ktask; };
            int create(void) {
                int *stackaddr = tos_mmheap_alloc(64);
                struct ctl *the_ctl = (struct ctl *)stackaddr;
                return the_ctl->ktask;
            }
            "#,
        );
        assert!(
            kinds(&out).contains(&BugKind::UninitVarAccess),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn uva_memset_initializes_fig12d_fix() {
        let out = analyze(
            r#"
            struct ctl { int ktask; };
            int create(void) {
                int *stackaddr = tos_mmheap_alloc(64);
                memset(stackaddr, 0, 64);
                struct ctl *the_ctl = (struct ctl *)stackaddr;
                return the_ctl->ktask;
            }
            "#,
        );
        assert!(
            !kinds(&out).contains(&BugKind::UninitVarAccess),
            "{:?}",
            out.reports
        );
    }

    // ----------------------------------------------------------------
    // ML
    // ----------------------------------------------------------------

    #[test]
    fn ml_error_path_leak_fig12c() {
        // RIOT make_message shape (Fig. 12c): malloc, error return without
        // free.
        let out = analyze(
            r#"
            int make_message(int n) {
                int *message = malloc(64);
                if (message == NULL) { return -1; }
                if (n < 0) { return -2; }
                free(message);
                return 0;
            }
            "#,
        );
        let ml: Vec<_> = out
            .reports
            .iter()
            .filter(|r| r.kind == BugKind::MemoryLeak)
            .collect();
        assert_eq!(ml.len(), 1, "{:?}", out.reports);
    }

    #[test]
    fn ml_returned_pointer_not_leak() {
        let out = analyze(
            r#"
            int *alloc_buf(void) {
                int *p = malloc(16);
                return p;
            }
            "#,
        );
        assert!(
            !kinds(&out).contains(&BugKind::MemoryLeak),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn ml_freed_through_alias_not_leak() {
        let out = analyze(
            r#"
            void f(void) {
                int *p = malloc(16);
                int *q = p;
                free(q);
            }
            "#,
        );
        assert!(
            !kinds(&out).contains(&BugKind::MemoryLeak),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn ml_caller_drops_callee_allocation() {
        let out = analyze(
            r#"
            int *make(void) { int *p = malloc(8); return p; }
            void use_it(void) {
                int *b = make();
                if (b == NULL) { return; }
            }
            "#,
        );
        assert!(
            kinds(&out).contains(&BugKind::MemoryLeak),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn ml_stored_into_field_escapes() {
        let out = analyze(
            r#"
            struct dev { int *buf; };
            void attach(struct dev *d) {
                int *p = malloc(32);
                d->buf = p;
            }
            "#,
        );
        assert!(
            !kinds(&out).contains(&BugKind::MemoryLeak),
            "{:?}",
            out.reports
        );
    }

    // ----------------------------------------------------------------
    // Table 7 checkers
    // ----------------------------------------------------------------

    #[test]
    fn double_lock_reported() {
        let out = analyze_all(
            r#"
            struct lk { int x; };
            void f(struct lk *l, int c) {
                spin_lock(l);
                if (c) {
                    spin_lock(l);
                }
                spin_unlock(l);
            }
            "#,
        );
        assert!(
            kinds(&out).contains(&BugKind::DoubleLock),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn balanced_lock_not_reported() {
        let out = analyze_all(
            r#"
            struct lk { int x; };
            void f(struct lk *l) {
                spin_lock(l);
                spin_unlock(l);
                spin_lock(l);
                spin_unlock(l);
            }
            "#,
        );
        assert!(
            !kinds(&out).contains(&BugKind::DoubleLock),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn division_by_zero_on_checked_zero_path() {
        let out = analyze_all(
            r#"
            int f(int d, int n) {
                if (d == 0) {
                    return n / d;
                }
                return n / d;
            }
            "#,
        );
        let dbz: Vec<_> = out
            .reports
            .iter()
            .filter(|r| r.kind == BugKind::DivisionByZero)
            .collect();
        assert_eq!(dbz.len(), 1, "{:?}", out.reports);
    }

    #[test]
    fn array_index_underflow_on_negative_path() {
        let out = analyze_all(
            r#"
            int f(int i) {
                int a[8];
                a[0] = 1;
                if (i < 0) {
                    return a[i];
                }
                return a[0];
            }
            "#,
        );
        assert!(
            kinds(&out).contains(&BugKind::ArrayIndexUnderflow),
            "{:?}",
            out.reports
        );
    }

    // ----------------------------------------------------------------
    // Sensitivity (PATA-NA) & stats
    // ----------------------------------------------------------------

    #[test]
    fn na_mode_misses_alias_bug_but_keeps_direct_bug() {
        let src = r#"
            struct cfg_t { int frnd; };
            struct model_t { struct cfg_t *user_data; };
            void send_status(struct model_t *model) {
                struct cfg_t *cfg = model->user_data;
                int x = cfg->frnd;
            }
            void friend_set(struct model_t *model) {
                struct cfg_t *cfg = model->user_data;
                if (!cfg) {
                    goto send;
                }
                cfg->frnd = 1;
                return;
            send:
                send_status(model);
            }
            int direct(int *p) {
                if (p == NULL) { }
                return *p;
            }
        "#;
        let module = pata_cc::compile_one("t.c", src).unwrap();
        let na = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::without_alias()
        })
        .analyze_module(module);
        let na_kinds = kinds(&na);
        // The direct bug (check + deref of the same variable) survives…
        assert!(
            na_kinds.contains(&BugKind::NullPointerDeref),
            "{:?}",
            na.reports
        );
        // …but the cross-function alias bug is missed.
        assert!(
            !na.reports.iter().any(|r| r.function == "send_status"),
            "PATA-NA must miss the alias bug: {:?}",
            na.reports
        );
    }

    #[test]
    fn alias_mode_drops_more_typestates_and_constraints() {
        let src = r#"
            struct s { int f; };
            int root(struct s *p) {
                struct s *a = p;
                struct s *b = a;
                struct s *c = b;
                if (p == NULL) { return -1; }
                return c->f;
            }
        "#;
        let module = pata_cc::compile_one("t.c", src).unwrap();
        let out = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        })
        .analyze_module(module);
        assert!(out.stats.typestates_unaware > out.stats.typestates_aware);
        assert!(out.stats.constraints_unaware > out.stats.constraints_aware);
    }

    #[test]
    fn loops_terminate() {
        let out = analyze(
            r#"
            int f(int n) {
                int i;
                int total = 0;
                for (i = 0; i < n; i++) {
                    total += i;
                    if (total > 100) { break; }
                }
                while (total > 0) { total -= 1; }
                return total;
            }
            "#,
        );
        assert!(out.stats.paths_explored >= 1);
    }

    #[test]
    fn recursion_terminates() {
        let out = analyze(
            r#"
            int fact(int n) {
                if (n <= 1) { return 1; }
                return n * fact(n - 1);
            }
            int root(void) { return fact(5); }
            "#,
        );
        assert!(out.stats.paths_explored >= 1);
    }

    // ----------------------------------------------------------------
    // UAF checker (framework-generality extension)
    // ----------------------------------------------------------------

    #[test]
    fn uaf_through_alias_detected() {
        let out = analyze_all(
            r#"
            void f(int n) {
                int *p = malloc(n);
                if (p == NULL) { return; }
                int *q = p;
                free(p);
                int v = *q;
            }
            "#,
        );
        assert!(
            kinds(&out).contains(&BugKind::UseAfterFree),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn double_free_detected_as_uaf() {
        let out = analyze_all(
            r#"
            void f(int n) {
                int *p = malloc(n);
                if (p == NULL) { return; }
                free(p);
                free(p);
            }
            "#,
        );
        assert!(
            kinds(&out).contains(&BugKind::UseAfterFree),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn free_then_realloc_not_uaf() {
        let out = analyze_all(
            r#"
            void f(int n) {
                int *p = malloc(n);
                if (p == NULL) { return; }
                free(p);
                p = malloc(n);
                if (p == NULL) { return; }
                *p = 1;
                free(p);
            }
            "#,
        );
        assert!(
            !kinds(&out).contains(&BugKind::UseAfterFree),
            "{:?}",
            out.reports
        );
    }

    // ----------------------------------------------------------------
    // §7 extension: function-pointer resolution
    // ----------------------------------------------------------------

    const CALLBACK_SRC: &str = r#"
        struct dev { int *res; int handler; };
        void cb(struct dev *d) {
            int x = *d->res;
        }
        void setup(struct dev *d) {
            d->handler = cb;
            if (d->res == NULL) {
                d->handler(d);
            }
        }
    "#;

    #[test]
    fn indirect_call_unresolved_by_default() {
        // Matches the paper: "PATA does not handle function-pointer calls,
        // and thus it cannot find bugs whose bug-trigger paths pass through
        // indirect function calls" (§7).
        let module = pata_cc::compile_one("t.c", CALLBACK_SRC).unwrap();
        let out = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        })
        .analyze_module(module);
        assert!(
            !out.reports
                .iter()
                .any(|r| r.kind == BugKind::NullPointerDeref),
            "{:?}",
            out.reports
        );
    }

    #[test]
    fn indirect_call_resolved_with_extension() {
        let module = pata_cc::compile_one("t.c", CALLBACK_SRC).unwrap();
        let out = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            resolve_fptrs: true,
            ..AnalysisConfig::default()
        })
        .analyze_module(module);
        let hit = out
            .reports
            .iter()
            .any(|r| r.kind == BugKind::NullPointerDeref && r.function == "cb");
        assert!(
            hit,
            "the callback bug needs the caller's null state: {:?}",
            out.reports
        );
    }

    #[test]
    fn fptr_resolution_through_local_variable() {
        let src = r#"
            struct dev { int *res; };
            int deref_cb(struct dev *d) { return *d->res; }
            void run(struct dev *d) {
                int fp = deref_cb;
                if (d->res == NULL) {
                    fp(d);
                }
            }
        "#;
        let module = pata_cc::compile_one("t.c", src).unwrap();
        let out = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            resolve_fptrs: true,
            ..AnalysisConfig::default()
        })
        .analyze_module(module);
        assert!(
            out.reports.iter().any(|r| r.function == "deref_cb"),
            "{:?}",
            out.reports
        );
    }

    // ----------------------------------------------------------------
    // §7 extension: deeper loop unrolling
    // ----------------------------------------------------------------

    #[test]
    fn loop_unrolling_depth_controls_iteration_bugs() {
        // p becomes NULL only on the second loop iteration; the deref after
        // the loop needs a 2-iteration path.
        let src = r#"
            struct dev { int *res; };
            int sweep(struct dev *d, int n) {
                int *p = d->res;
                int i;
                for (i = 0; i < n; i++) {
                    if (i == 1) {
                        p = NULL;
                    }
                }
                return *p;
            }
        "#;
        let one = {
            let module = pata_cc::compile_one("t.c", src).unwrap();
            AnalysisSession::new(AnalysisConfig {
                threads: 1,
                ..AnalysisConfig::default()
            })
            .analyze_module(module)
        };
        assert!(
            !one.reports
                .iter()
                .any(|r| r.kind == BugKind::NullPointerDeref),
            "1-iteration unrolling cannot reach i == 1: {:?}",
            one.reports
        );
        let two = {
            let module = pata_cc::compile_one("t.c", src).unwrap();
            let mut cfg = AnalysisConfig {
                threads: 1,
                ..AnalysisConfig::default()
            };
            cfg.budget.loop_iterations = 2;
            AnalysisSession::new(cfg).analyze_module(module)
        };
        assert!(
            two.reports
                .iter()
                .any(|r| r.kind == BugKind::NullPointerDeref),
            "2-iteration unrolling reaches the assignment: {:?}",
            two.reports
        );
    }

    #[test]
    fn work_stealing_reports_match_single_thread_exactly() {
        // A multi-root module with uneven root costs; the report *list*
        // (kind, file, function, lines), not just its length, must be
        // identical whatever the scheduler does.
        let src = r#"
            struct dev { int *res; };
            int p1(struct dev *d) { if (d->res == NULL) { } return *d->res; }
            int p2(int c) { int x; if (c > 0) { x = 1; } return x; }
            int p3(int n) {
                int *m = malloc(n);
                if (m == NULL) { return -1; }
                if (n < 0) { return -2; }
                free(m);
                return 0;
            }
            int p4(int *q) { if (q == NULL) { } return *q; }
            int p5(int i) { int t = 0; for (; i > 0; i--) { t += i; } return t; }
            int p6(struct dev *d) {
                if (d->res == NULL) { return -1; }
                return *d->res;
            }
        "#;
        let render = |out: &AnalysisOutcome| {
            let mut lines: Vec<String> = out
                .reports
                .iter()
                .map(|r| {
                    format!(
                        "{:?} {} {} {} {}",
                        r.kind, r.file, r.function, r.origin_line, r.site_line
                    )
                })
                .collect();
            lines.sort();
            lines
        };
        let seq = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        })
        .analyze_module(pata_cc::compile_one("t.c", src).unwrap());
        for threads in [0, 2, 3] {
            let par = AnalysisSession::new(AnalysisConfig {
                threads,
                ..AnalysisConfig::default()
            })
            .analyze_module(pata_cc::compile_one("t.c", src).unwrap());
            assert_eq!(render(&seq), render(&par), "threads={threads}");
            assert_eq!(seq.stats.paths_explored, par.stats.paths_explored);
            assert_eq!(seq.stats.false_bugs_dropped, par.stats.false_bugs_dropped);
        }
    }

    #[test]
    fn validation_cache_persists_across_runs() {
        let session = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        });
        let src = "int f(int *p) { if (p == NULL) { } return *p; }";
        let first = session.analyze_module(pata_cc::compile_one("t.c", src).unwrap());
        assert!(first.stats.validation_cache_misses > 0, "{:?}", first.stats);
        let second = session.analyze_module(pata_cc::compile_one("t.c", src).unwrap());
        assert_eq!(
            second.stats.validation_cache_misses, 0,
            "the second identical run must be fully cached: {:?}",
            second.stats
        );
        assert!(second.stats.validation_cache_hits > 0);
        assert_eq!(first.reports.len(), second.reports.len());
    }

    #[test]
    fn parallel_matches_sequential() {
        let src = r#"
            int a(int *p) { if (p == NULL) { } return *p; }
            int b(int *p) { if (p == NULL) { } return *p; }
            int c(int *p) { if (p == NULL) { } return *p; }
            int d(int *p) { if (p == NULL) { } return *p; }
        "#;
        let m1 = pata_cc::compile_one("t.c", src).unwrap();
        let m2 = pata_cc::compile_one("t.c", src).unwrap();
        let seq = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        })
        .analyze_module(m1);
        let par = AnalysisSession::new(AnalysisConfig {
            threads: 4,
            ..AnalysisConfig::default()
        })
        .analyze_module(m2);
        assert_eq!(seq.reports.len(), par.reports.len());
        assert_eq!(seq.stats.paths_explored, par.stats.paths_explored);
    }
}
