//! The four workloads. Each op runs in-process through the public API with
//! one analysis thread, and its output is checked outside the timed part.

use crate::inputs::{self, EditGen};
use crate::trace::{SpanId, Tracer};
use pata_cc::{Compiler, Lexer, Parser};
use pata_core::collector::{self, CallGraph};
use pata_core::json::JsonValue;
use pata_core::{
    filter, handle_line, AnalysisConfig, AnalysisRequest, AnalysisSession, AnalysisStats,
    BugReport, PossibleBug, ServeTotals, SourceFile, ValidationCache,
};
use pata_corpus::Corpus;
use pata_ir::{FuncId, Module};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The outcome of one op: its wall time and, if its output was wrong, why.
pub struct Op {
    pub wall: Duration,
    pub error: Option<String>,
}

impl Op {
    fn between(start: Instant, end: Instant, error: Option<String>) -> Self {
        Op {
            wall: end - start,
            error,
        }
    }
}

pub trait Workload {
    /// Untimed preparation of the output checks and, for a traced run, of
    /// the replay inputs.
    fn prepare(&mut self, _trace: bool) {}
    /// Runs op `i`; with a tracer, records its spans and replays.
    fn op(&mut self, i: usize, tr: Option<&mut Tracer>) -> Op;
    /// End-of-run checks, each with the number of ops it fails. They run
    /// after `peak_rss_mb` is read, so that their reference analyses stay
    /// out of it.
    fn finish(&mut self) -> Vec<(u64, String)> {
        Vec::new()
    }
}

pub const NAMES: [&str; 4] = ["cold_scan", "edit_serve", "warm_restart", "deep_paths"];

/// Builds workload `name` for `seed`: corpus generation, request building
/// and the warm session or store. This is what `setup_s` times.
pub fn setup(name: &str, seed: u64, dir: &Path) -> Box<dyn Workload> {
    match name {
        "cold_scan" => Box::new(ColdScan::setup(seed)),
        "edit_serve" => Box::new(EditServe::setup(seed, dir)),
        "warm_restart" => Box::new(WarmRestart::setup(seed, dir)),
        "deep_paths" => Box::new(DeepPaths::setup(seed)),
        other => panic!("unknown workload {other}"),
    }
}

fn bench_config() -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(1)
        .build()
        .expect("valid benchmark config")
}

/// The reference report of `request`, from the differential-oracle
/// configuration: every cache off, clone-based forking.
fn oracle_report(request: &AnalysisRequest) -> String {
    let config = AnalysisConfig::builder()
        .threads(1)
        .validation_cache(false)
        .exploration_cache(false)
        .callee_memo(false)
        .cow_state(false)
        .build()
        .expect("valid oracle config");
    AnalysisSession::new(config)
        .analyze(request)
        .expect("benchmark request analyzes")
        .report
        .to_json()
}

fn compile(files: &[SourceFile]) -> Module {
    let mut cc = Compiler::new();
    for f in files {
        cc.add_source(&f.name, &f.text);
    }
    cc.compile().expect("benchmark sources compile")
}

fn mismatch(what: &str) -> Option<String> {
    Some(format!("{what} differs from the reference"))
}

/// Every op must render the report the run's first op rendered, and at the
/// end of the run that report must equal the differential oracle's. The
/// oracle runs after the op loop, so that its memory stays out of
/// `peak_rss_mb`.
#[derive(Default)]
struct SameReport {
    first: Option<String>,
    matched: u64,
}

impl SameReport {
    fn check(&mut self, json: String) -> Option<String> {
        let first = self.first.get_or_insert_with(|| json.clone());
        if *first != json {
            return Some("the report differs from the first op's".to_owned());
        }
        self.matched += 1;
        None
    }

    /// Compares the first op's report with the oracle's; a mismatch fails
    /// every op whose report matched the first.
    fn finish(&self, request: &AnalysisRequest) -> Vec<(u64, String)> {
        match &self.first {
            Some(first) if *first != oracle_report(request) => vec![(
                self.matched,
                "the report differs from the differential oracle's".to_owned(),
            )],
            _ => Vec::new(),
        }
    }
}

// --------------------------------------------------------------------
// Layer replays: each times one layer's public entry point on the input
// of the op just run, under the span whose call does that work inside it.
// --------------------------------------------------------------------

/// Lexes, parses and compiles `files`: `cc.compile` ⊃ `cc.parse` ⊃ `cc.lex`.
fn replay_cc(tr: &mut Tracer, parent: SpanId, files: &[SourceFile]) -> Module {
    let lower = tr.reserve("cc.compile", Some(parent));
    let parse = tr.reserve("cc.parse", Some(lower));
    let t0 = Instant::now();
    let mut tokens = 0;
    for f in files {
        tokens += Lexer::new(&f.name, &f.text)
            .lex()
            .expect("benchmark sources lex")
            .len();
    }
    let t1 = Instant::now();
    for f in files {
        black_box(Parser::parse_source(&f.name, &f.text).expect("benchmark sources parse"));
    }
    let t2 = Instant::now();
    let module = compile(files);
    let t3 = Instant::now();
    tr.span("cc.lex", Some(parse), t0, t1);
    tr.fill(parse, t1, t2);
    tr.fill(lower, t2, t3);
    tr.count("cc.tokens", tokens as f64);
    let insts: usize = module.functions().iter().map(|f| f.inst_count()).sum();
    tr.count("cc.ir_insts", insts as f64);
    module
}

fn replay_collect(tr: &mut Tracer, parent: SpanId, module: &Module) {
    let mut copy = module.clone();
    let t0 = Instant::now();
    let (roots, graph) = collector::mark_interfaces_with_graph(&mut copy);
    tr.span("collect", Some(parent), t0, Instant::now());
    tr.count("collect.roots", roots.len() as f64);
    tr.count("collect.call_edges", graph.edge_count() as f64);
}

/// `AnalysisSession::collect_candidates` (collection plus exploration),
/// with collection replayed as its child.
fn replay_explore(tr: &mut Tracer, parent: SpanId, module: Module) -> (Module, Vec<PossibleBug>) {
    let explore = tr.reserve("explore", Some(parent));
    replay_collect(tr, explore, &module);
    let session = AnalysisSession::new(bench_config());
    let t0 = Instant::now();
    let (module, candidates, stats) = session.collect_candidates(module);
    let t1 = Instant::now();
    tr.fill(explore, t0, t1);
    tr.count("explore.live_steps", stats.live_steps() as f64);
    tr.count("explore.paths", stats.paths_explored as f64);
    tr.count(
        "explore.subsumption_hits",
        stats.exploration_cache_hits as f64,
    );
    tr.count("explore.memo_hits", stats.callee_memo_hits as f64);
    tr.count("explore.candidates", candidates.len() as f64);
    tr.count(
        "explore.budget_exhausted_roots",
        stats.budget_exhausted_roots as f64,
    );
    (module, candidates)
}

fn replay_filter(
    tr: &mut Tracer,
    parent: SpanId,
    module: &Module,
    candidates: Vec<PossibleBug>,
    cache: &ValidationCache,
) {
    let mut stats = AnalysisStats::default();
    let t0 = Instant::now();
    let result = filter::filter(module, candidates, true, Some(cache), None, &mut stats);
    tr.span("filter", Some(parent), t0, Instant::now());
    black_box(result);
    let groups = stats.reported + stats.false_bugs_dropped;
    tr.count("filter.groups", groups as f64);
    tr.count("filter.false_dropped", stats.false_bugs_dropped as f64);
    tr.count("filter.reported", stats.reported as f64);
    tr.count("validate.cache_hits", stats.validation_cache_hits as f64);
    tr.count(
        "validate.cache_misses",
        stats.validation_cache_misses as f64,
    );
    tr.count("validate.scope_reuse", stats.validation_scope_reuse as f64);
}

/// A copy of `cache` as it is now, so a replay sees the verdicts the op saw.
fn cache_copy(cache: &ValidationCache) -> ValidationCache {
    let copy = ValidationCache::new();
    copy.import(cache.export());
    copy
}

/// What a cold op gives back: when it started and ended, its stats, its
/// report JSON and its findings.
struct Cold {
    start: Instant,
    end: Instant,
    stats: AnalysisStats,
    json: String,
    reports: Vec<BugReport>,
}

/// A fresh in-memory session analyzes `request` and renders the report:
/// the op of `cold_scan` and `deep_paths`. Traced, it replays every layer.
fn cold_op(request: &AnalysisRequest, tr: Option<&mut Tracer>) -> Cold {
    let start = Instant::now();
    let mut session = AnalysisSession::new(bench_config());
    let t1 = Instant::now();
    let outcome = session
        .analyze(request)
        .expect("benchmark request analyzes");
    let t2 = Instant::now();
    let json = outcome.report.to_json();
    let end = Instant::now();
    if let Some(tr) = tr {
        let root = tr.span("op", None, start, end);
        let analyze = tr.span("session.analyze", Some(root), t1, t2);
        tr.span("report.render", Some(root), t2, end);
        let module = replay_cc(tr, analyze, &request.files);
        let (module, candidates) = replay_explore(tr, analyze, module);
        replay_filter(tr, analyze, &module, candidates, &ValidationCache::new());
        let inc = outcome.incremental;
        tr.count("session.dirty_roots", inc.dirty_roots as f64);
        tr.count("session.changed_functions", inc.changed_functions as f64);
        tr.count("session.dirty_ratio", 1.0);
        tr.count("report.bytes", json.len() as f64);
    }
    Cold {
        start,
        end,
        stats: outcome.stats,
        json,
        reports: outcome.report.reports,
    }
}

// --------------------------------------------------------------------
// cold_scan
// --------------------------------------------------------------------

/// A fresh session analyzes the whole linux model: the full-tree CI user.
struct ColdScan {
    corpus: Corpus,
    request: AnalysisRequest,
    same: SameReport,
}

impl ColdScan {
    fn setup(seed: u64) -> Self {
        let (corpus, files) = inputs::linux_model(seed);
        ColdScan {
            corpus,
            request: inputs::request(&files),
            same: SameReport::default(),
        }
    }
}

impl Workload for ColdScan {
    fn op(&mut self, _i: usize, tr: Option<&mut Tracer>) -> Op {
        let cold = cold_op(&self.request, tr);
        let score = self.corpus.manifest.score(&cold.reports);
        let error = self
            .same
            .check(cold.json)
            .or_else(|| inputs::check_score(&score).err());
        Op::between(cold.start, cold.end, error)
    }

    fn finish(&mut self) -> Vec<(u64, String)> {
        self.same.finish(&self.request)
    }
}

// --------------------------------------------------------------------
// deep_paths
// --------------------------------------------------------------------

/// Per deep-path report: kind, function, origin line, site line. The same
/// for every seed (the seed only moves branch thresholds).
const PINNED_DEEP: &[(&str, &str, u32, u32)] = &[
    ("null-pointer-dereference", "dp_probe0", 25, 26),
    ("null-pointer-dereference", "dp_probe1", 48, 49),
    ("null-pointer-dereference", "dp_probe2", 71, 72),
    ("null-pointer-dereference", "dp_probe3", 94, 95),
    ("null-pointer-dereference", "dp_probe4", 117, 118),
    ("null-pointer-dereference", "dp_probe5", 140, 141),
    ("null-pointer-dereference", "dp_probe6", 163, 164),
    ("null-pointer-dereference", "dp_probe7", 186, 187),
    ("null-pointer-dereference", "dp_probe8", 209, 210),
    ("null-pointer-dereference", "dp_probe9", 232, 233),
    ("null-pointer-dereference", "dp_probe10", 255, 256),
    ("null-pointer-dereference", "dp_probe11", 278, 279),
];

struct DeepPaths {
    request: AnalysisRequest,
    live_steps: Option<u64>,
}

impl DeepPaths {
    fn setup(seed: u64) -> Self {
        DeepPaths {
            request: inputs::request(&inputs::deep_module(seed)),
            live_steps: None,
        }
    }
}

impl Workload for DeepPaths {
    fn op(&mut self, _i: usize, tr: Option<&mut Tracer>) -> Op {
        let cold = cold_op(&self.request, tr);
        let stats = &cold.stats;
        let got: Vec<(&str, &str, u32, u32)> = cold
            .reports
            .iter()
            .map(|r| {
                (
                    r.kind.as_str(),
                    r.function.as_str(),
                    r.origin_line,
                    r.site_line,
                )
            })
            .collect();
        let steps = *self.live_steps.get_or_insert(stats.live_steps());
        let error = if got != PINNED_DEEP {
            Some(format!("reports {got:?} differ from the pinned ones"))
        } else if stats.budget_exhausted_roots != 0 {
            Some(format!(
                "{} roots exhausted their budget",
                stats.budget_exhausted_roots
            ))
        } else if stats.live_steps() != steps {
            Some(format!(
                "live steps {} differ from {steps}",
                stats.live_steps()
            ))
        } else {
            None
        };
        Op::between(cold.start, cold.end, error)
    }
}

// --------------------------------------------------------------------
// warm_restart
// --------------------------------------------------------------------

/// Length, modification time and inode of the store file: a rewrite (temp
/// file plus rename) changes the inode.
fn store_stamp(path: &Path) -> (u64, std::time::SystemTime, u64) {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(path).expect("store file exists");
    let modified = meta.modified().expect("store mtime");
    (meta.len(), modified, meta.ino())
}

/// A restarted CI job: each op opens the populated store and re-analyzes
/// the unchanged model.
struct WarmRestart {
    request: AnalysisRequest,
    store: PathBuf,
    same: SameReport,
    stamp: Option<(u64, std::time::SystemTime, u64)>,
    replay_input: Option<(Module, Vec<PossibleBug>)>,
}

impl WarmRestart {
    fn setup(seed: u64, dir: &Path) -> Self {
        let (_, files) = inputs::linux_model(seed);
        let request = inputs::request(&files);
        let store = dir.join("warm_restart.store");
        let _ = std::fs::remove_file(&store);
        AnalysisSession::open(bench_config(), &store)
            .analyze(&request)
            .expect("benchmark request analyzes");
        WarmRestart {
            request,
            store,
            same: SameReport::default(),
            stamp: None,
            replay_input: None,
        }
    }
}

impl Workload for WarmRestart {
    fn prepare(&mut self, trace: bool) {
        self.stamp = Some(store_stamp(&self.store));
        if trace {
            let session = AnalysisSession::new(bench_config());
            let (module, candidates, _) = session.collect_candidates(compile(&self.request.files));
            self.replay_input = Some((module, candidates));
        }
    }

    fn op(&mut self, _i: usize, tr: Option<&mut Tracer>) -> Op {
        let start = Instant::now();
        let mut session = AnalysisSession::open(bench_config(), &self.store);
        let t1 = Instant::now();
        let outcome = session
            .analyze(&self.request)
            .expect("benchmark request analyzes");
        let t2 = Instant::now();
        let json = outcome.report.to_json();
        let end = Instant::now();
        let inc = outcome.incremental;
        let stamp = store_stamp(&self.store);
        if let Some(tr) = tr {
            let root = tr.span("op", None, start, end);
            tr.span("store.load", Some(root), start, t1);
            let analyze = tr.span("session.analyze", Some(root), t1, t2);
            tr.span("report.render", Some(root), t2, end);
            let cache = cache_copy(session.validation_cache());
            let module = replay_cc(tr, analyze, &self.request.files);
            replay_collect(tr, analyze, &module);
            let (module, candidates) = self
                .replay_input
                .as_ref()
                .expect("traced run prepared its replay input");
            replay_filter(tr, analyze, module, candidates.clone(), &cache);
            tr.count("session.dirty_roots", inc.dirty_roots as f64);
            tr.count("session.changed_functions", inc.changed_functions as f64);
            tr.count("session.dirty_ratio", 1.0);
            tr.count("store.bytes", stamp.0 as f64);
            tr.count("report.bytes", json.len() as f64);
        }
        let error = if !inc.warm_start || inc.dirty_roots != 0 {
            Some(format!(
                "warm start {} with {} dirty roots",
                inc.warm_start, inc.dirty_roots
            ))
        } else if Some(stamp) != self.stamp {
            Some("the store was rewritten".to_owned())
        } else {
            self.same.check(json)
        };
        Op::between(start, end, error)
    }

    fn finish(&mut self) -> Vec<(u64, String)> {
        self.same.finish(&self.request)
    }
}

// --------------------------------------------------------------------
// edit_serve
// --------------------------------------------------------------------

/// The call structure of the model. In-place edits never add or remove a
/// function or a call, so it holds for the whole run.
struct CallStructure {
    ids: HashMap<String, FuncId>,
    is_root: Vec<bool>,
    graph: CallGraph,
}

impl CallStructure {
    fn new(files: &[SourceFile]) -> Self {
        let mut module = compile(files);
        let (roots, graph) = collector::mark_interfaces_with_graph(&mut module);
        let mut is_root = vec![false; module.functions().len()];
        for r in roots {
            is_root[r.index()] = true;
        }
        let ids = module
            .functions()
            .iter()
            .map(|f| (f.name().to_owned(), f.id()))
            .collect();
        CallStructure {
            ids,
            is_root,
            graph,
        }
    }

    /// Roots whose call-graph closure contains `function`.
    fn roots_reaching(&self, function: &str) -> u64 {
        let start = self.ids[function];
        let mut seen = vec![false; self.is_root.len()];
        seen[start.index()] = true;
        let mut stack = vec![start];
        let mut roots = 0;
        while let Some(f) = stack.pop() {
            roots += u64::from(self.is_root[f.index()]);
            for &caller in &self.graph.callers[f.index()] {
                if !seen[caller.index()] {
                    seen[caller.index()] = true;
                    stack.push(caller);
                }
            }
        }
        roots
    }
}

/// The telemetry histogram in which the session records each store save.
const STORE_SAVE: &str = "driver.serve.store_save";

/// One long-lived session over an on-disk store, driven by NDJSON frames
/// through `serve::handle_line` in a closed loop with one client. Each op
/// sends the whole model after one more seeded in-place edit.
struct EditServe {
    files: Vec<SourceFile>,
    session: AnalysisSession,
    totals: ServeTotals,
    store: PathBuf,
    edits: EditGen,
    calls: Option<CallStructure>,
    /// In a traced run: an in-memory session fed the same requests, so
    /// that `analyze` can be timed apart from the store save and framing.
    twin: Option<AnalysisSession>,
    /// Nanoseconds of store saves the session's telemetry has recorded.
    saved_ns: u64,
    last_response: String,
}

impl EditServe {
    fn setup(seed: u64, dir: &Path) -> Self {
        let (_, files) = inputs::linux_model(seed);
        let store = dir.join("edit_serve.store");
        let _ = std::fs::remove_file(&store);
        let mut session = AnalysisSession::open(bench_config(), &store);
        let mut totals = ServeTotals::default();
        let (response, _) =
            handle_line(&mut session, &inputs::analyze_frame(0, &files), &mut totals);
        assert!(
            response.contains("\"ok\": true"),
            "warm-up analysis failed: {response}"
        );
        EditServe {
            files,
            session,
            totals,
            store,
            edits: EditGen::new(seed),
            calls: None,
            twin: None,
            saved_ns: 0,
            last_response: response,
        }
    }

    fn check(&self, response: &str, needed: u64) -> Result<(u64, u64), String> {
        let doc = JsonValue::parse(response).map_err(|e| format!("response is not JSON: {e}"))?;
        if doc.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!(
                "response not ok: {}",
                &response[..response.len().min(200)]
            ));
        }
        let serve = doc.get("serve").ok_or("response has no serve object")?;
        let field = |k: &str| serve.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        let calls = self.calls.as_ref().expect("prepared");
        if field("roots") != calls.is_root.iter().filter(|&&r| r).count() as u64 {
            return Err(format!("{} roots in the response", field("roots")));
        }
        if field("dirty_roots") < needed {
            return Err(format!(
                "{} dirty roots, but {needed} roots reach the edited function",
                field("dirty_roots")
            ));
        }
        Ok((field("dirty_roots"), field("changed_functions")))
    }
}

impl Workload for EditServe {
    fn prepare(&mut self, trace: bool) {
        self.calls = Some(CallStructure::new(&self.files));
        if trace {
            let mut twin = AnalysisSession::new(bench_config());
            twin.analyze(&inputs::request(&self.files))
                .expect("benchmark request analyzes");
            self.twin = Some(twin);
        }
    }

    fn op(&mut self, i: usize, tr: Option<&mut Tracer>) -> Op {
        let edit = self.edits.apply(i, &mut self.files);
        let frame = inputs::analyze_frame(i + 1, &self.files);
        // The store layer is internal, so a traced op reads the save time
        // the session records itself; other ops run with telemetry off.
        self.session.telemetry().set_enabled(tr.is_some());
        let start = Instant::now();
        let (response, _) = handle_line(&mut self.session, &frame, &mut self.totals);
        let end = Instant::now();
        let needed = self
            .calls
            .as_ref()
            .expect("prepared")
            .roots_reaching(&edit.function);
        let checked = self.check(&response, needed);
        let mut error = checked.as_ref().err().cloned();
        if let Some(twin) = self.twin.as_mut() {
            let request = inputs::request(&self.files);
            match tr {
                None => {
                    twin.analyze(&request).expect("benchmark request analyzes");
                }
                Some(tr) => {
                    let root = tr.span("op", None, start, end);
                    let saved_ns = self
                        .session
                        .telemetry()
                        .snapshot()
                        .histogram(STORE_SAVE)
                        .map_or(0, |h| h.total_ns);
                    let save = Duration::from_nanos(saved_ns - self.saved_ns);
                    self.saved_ns = saved_ns;
                    tr.span("store.save", Some(root), end - save, end);
                    tr.time("serve.parse", Some(root), || {
                        black_box(JsonValue::parse(&frame))
                    })
                    .expect("frame parses");
                    let cache = cache_copy(twin.validation_cache());
                    let a0 = Instant::now();
                    let outcome = twin.analyze(&request).expect("benchmark request analyzes");
                    let a1 = Instant::now();
                    let analyze = tr.span("session.analyze", Some(root), a0, a1);
                    let json = tr.time("report.render", Some(root), || outcome.report.to_json());
                    let module = replay_cc(tr, analyze, &request.files);
                    replay_collect(tr, analyze, &module);
                    let (module, candidates, _) =
                        AnalysisSession::new(bench_config()).collect_candidates(module);
                    replay_filter(tr, analyze, &module, candidates, &cache);
                    let inc = outcome.incremental;
                    if let Ok(served) = checked {
                        if served != (inc.dirty_roots, inc.changed_functions) {
                            error = Some(format!(
                                "served dirty/changed {served:?} differ from the in-memory session's ({}, {})",
                                inc.dirty_roots, inc.changed_functions
                            ));
                        }
                    }
                    if !response.contains(&format!("\"report\": {json}, \"serve\"")) {
                        error = mismatch("served report");
                    }
                    let ratio = inc.dirty_roots.max(1) as f64 / needed.max(1) as f64;
                    let wall_ms = (end - start).as_secs_f64() * 1e3;
                    let residual_ms = tr.self_ms_of(analyze);
                    tr.count("session.dirty_roots", inc.dirty_roots as f64);
                    tr.count("session.changed_functions", inc.changed_functions as f64);
                    tr.count("session.dirty_ratio", ratio);
                    tr.count(
                        "store.bytes",
                        std::fs::metadata(&self.store).map_or(0, |m| m.len()) as f64,
                    );
                    tr.count("report.bytes", json.len() as f64);
                    tr.count("serve.frame_bytes", frame.len() as f64);
                    tr.count("serve.response_bytes", response.len() as f64);
                    let values = [
                        wall_ms,
                        inc.dirty_roots as f64,
                        inc.changed_functions as f64,
                        ratio,
                        residual_ms,
                    ];
                    for (name, value) in PER_KIND[edit.kind as usize].into_iter().zip(values) {
                        tr.count(name, value);
                    }
                }
            }
        }
        self.last_response = response;
        Op::between(start, end, error)
    }

    fn finish(&mut self) -> Vec<(u64, String)> {
        let mut cold = AnalysisSession::new(bench_config());
        let json = cold
            .analyze(&inputs::request(&self.files))
            .expect("benchmark request analyzes")
            .report
            .to_json();
        if self
            .last_response
            .contains(&format!("\"report\": {json}, \"serve\""))
        {
            Vec::new()
        } else {
            vec![(
                1,
                "the last served report differs from a cold analysis of the same sources"
                    .to_owned(),
            )]
        }
    }
}

/// Per-edit-kind metrics of `edit_serve`, in `EditKind::ALL` order.
pub const PER_KIND: [[&str; 5]; 3] = [
    [
        "edit.const.wall_ms",
        "edit.const.dirty_roots",
        "edit.const.changed_functions",
        "edit.const.dirty_ratio",
        "edit.const.residual_ms",
    ],
    [
        "edit.stmt.wall_ms",
        "edit.stmt.dirty_roots",
        "edit.stmt.changed_functions",
        "edit.stmt.dirty_ratio",
        "edit.stmt.residual_ms",
    ],
    [
        "edit.local.wall_ms",
        "edit.local.dirty_roots",
        "edit.local.changed_functions",
        "edit.local.dirty_ratio",
        "edit.local.residual_ms",
    ],
];
