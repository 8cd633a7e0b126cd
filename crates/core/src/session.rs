//! The analysis session — the one public entry point of the crate.
//!
//! [`AnalysisSession`] runs the paper's pipeline (Fig. 10): information
//! collection, per-root exploration (the scheduler in `driver.rs`) and bug
//! filtering. Around it sit the pieces a long-lived analysis service
//! needs: source compilation that re-parses only the files whose text
//! changed since the previous request, an optional on-disk store
//! ([`crate::persist`]), fingerprint-based change detection,
//! incremental re-analysis that re-explores only *dirty* roots, and a
//! restart over an unchanged tree answered from the store's records with
//! no compilation at all.
//!
//! ```text
//! AnalysisConfig::builder() … .build()
//!     → AnalysisSession::open(config, store_path)   // or ::new for in-memory
//!     → session.analyze(&request)                   // → versioned Report
//! ```
//!
//! # Determinism
//!
//! A session produces byte-identical reports whether a root's candidates
//! come from a fresh exploration, the in-memory warm state, or the
//! on-disk store, at any thread count. The argument: per-root exploration
//! is deterministic and independent, results are merged in root order,
//! and a root is only treated as *clean* when every function transitively
//! reachable from it has an unchanged IR fingerprint — so the cached
//! candidates are exactly what re-exploring would produce. Stage-2
//! validation consumes the same candidate stream either way, and its
//! cache is keyed canonically (verdict-neutral by construction).

use crate::collector::{self, CallGraph};
use crate::config::AnalysisConfig;
use crate::driver::{self, RootFailure, RootRun};
use crate::faultinject;
use crate::filter::{self, KeptGroups, Member, RootCandidates};
use crate::persist::{
    candidate_lines, config_fingerprint, function_space, record_at, text_word, FileEntry,
    FunctionTable, ModuleFingerprints, RootRecord, Store, StoreDelta, StoreDoc, StoreFile,
};
use crate::registry::CheckerRegistry;
use crate::report::{self, BugReport, DegradedRoot, PossibleBug, Report};
use crate::stats::{AnalysisStats, BudgetNote};
use crate::telemetry::{Span, Telemetry, TelemetrySnapshot};
use crate::typestate::Checker;
use crate::validate::ValidationCache;
use pata_cc::{Diag, LoweredModule, Parser, Unit};
use pata_ir::{Category, FuncId, InstId, Module};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::iter::zip;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The result of a one-shot run ([`AnalysisSession::analyze_module`]).
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// Final validated bug reports.
    pub reports: Vec<BugReport>,
    /// The surviving candidates behind the reports.
    pub real_bugs: Vec<PossibleBug>,
    /// Aggregate statistics (Table 5 counters).
    pub stats: AnalysisStats,
    /// The analyzed module, with interface functions marked.
    pub module: Module,
    /// Telemetry collected during this run; empty unless
    /// [`AnalysisConfig::telemetry`] is set. See
    /// [`TelemetrySnapshot::to_json`] for the stable wire format.
    pub telemetry: TelemetrySnapshot,
    /// Per-root budget-exhaustion detail (in root order): which roots hit
    /// which budget. Empty when no root was truncated.
    pub budget_notes: Vec<BudgetNote>,
    /// Roots the fault-containment ladder quarantined or demoted, sorted by
    /// `(root, stage)`. Empty on a healthy run.
    pub degraded: Vec<DegradedRoot>,
}

/// One source file of an [`AnalysisRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// File name (used in reports and for change attribution).
    pub name: String,
    /// Mini-C source text.
    pub text: String,
}

/// A batch of sources to analyze together as one module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisRequest {
    /// The module's source files, in compilation order.
    pub files: Vec<SourceFile>,
}

impl AnalysisRequest {
    /// An empty request.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one source file (builder style).
    pub fn file(mut self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.files.push(SourceFile {
            name: name.into(),
            text: text.into(),
        });
        self
    }
}

/// One source file of a request as the front end takes it. The serve
/// path reads it from a frame, borrowing what it can, and leaves `text`
/// `None` when it found the text equal to that of the front end's kept
/// file at the same position ([`AnalysisSession::kept_file`]), which it
/// compared without decoding it.
#[derive(Debug)]
pub(crate) struct FrameFile<'a> {
    pub(crate) name: Cow<'a, str>,
    pub(crate) text: Option<Cow<'a, str>>,
}

impl<'a> From<&'a SourceFile> for FrameFile<'a> {
    fn from(file: &'a SourceFile) -> Self {
        FrameFile {
            name: Cow::Borrowed(&file.name),
            text: Some(Cow::Borrowed(&file.text)),
        }
    }
}

/// What incremental re-analysis did for one [`AnalysisSession::analyze`]
/// call — the counters behind the `driver.serve.*` telemetry family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Total analysis roots in the request.
    pub roots: u64,
    /// Roots re-explored because their closure fingerprint changed (or no
    /// warm result existed).
    pub dirty_roots: u64,
    /// Roots answered from the warm cache without re-exploration.
    pub clean_roots: u64,
    /// Functions whose IR fingerprint differs from the previous run.
    pub changed_functions: u64,
    /// Whether warm state (in-memory or loaded from the store) was
    /// available when the request arrived.
    pub warm_start: bool,
    /// Source files parsed for this request. The others had the same name
    /// and text in the previous request, and their parsed units were
    /// reused.
    pub parsed_files: u64,
    /// Functions lowered for this request: every function after a full
    /// lowering, only the functions of the changed files when the session
    /// lowered them again in place.
    pub lowered_functions: u64,
}

/// Why [`AnalysisSession::analyze`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The request contained no source files.
    EmptyRequest,
    /// The sources did not compile; one rendered diagnostic per entry.
    Compile(Vec<String>),
    /// The pipeline panicked outside every per-root containment boundary.
    /// The session survives: its warm state is reset, so the next request
    /// cold-starts (re-loading the store if one is open happens lazily via
    /// re-exploration, never through the poisoned in-memory image).
    Internal(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::EmptyRequest => f.write_str("request contains no source files"),
            SessionError::Compile(diags) => {
                write!(f, "compilation failed:\n{}", diags.join("\n"))
            }
            SessionError::Internal(reason) => {
                write!(f, "internal analysis failure: {reason}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// The result of one session analysis.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The versioned report document (schema
    /// [`crate::report::REPORT_SCHEMA_VERSION`]), budget notes attached.
    pub report: Report,
    /// Aggregate statistics, cached roots included (their counters replay
    /// from the store; their wall-clock does not).
    pub stats: AnalysisStats,
    /// Telemetry snapshot taken at the end of the run; empty unless
    /// [`AnalysisConfig::telemetry`] is set.
    pub telemetry: TelemetrySnapshot,
    /// What incremental re-analysis did for this request.
    pub incremental: IncrementalStats,
}

/// One source file of the previous request, kept with its parsed unit.
#[derive(Debug)]
struct ParsedFile {
    name: String,
    text: String,
    unit: Unit,
    /// [`text_word`] of `text`, hashed only by a session with a store.
    word: Option<u64>,
}

/// The session's front end. It keeps the previous request's parsed units
/// and, when that request compiled, its lowered module. A request parses
/// only the files whose name or text is new. When its files have the
/// previous request's names in the same order, only the changed files are
/// lowered again, in place ([`LoweredModule::relower`]); otherwise, or
/// when that cannot give the module a full lowering gives, every unit is
/// lowered.
#[derive(Debug, Default)]
struct FrontEnd {
    /// The previous request's files that parsed, in request order.
    files: Vec<ParsedFile>,
    /// The previous request's module, if it compiled. The session takes it
    /// out while it analyzes a request and puts it back afterwards.
    lowered: Option<LoweredModule>,
    /// Whether no two of `files` share a name.
    distinct_names: bool,
}

/// What the front end does with one file of a request.
enum Hit<'f> {
    /// Reuse the kept file at this index.
    Reuse(usize),
    /// Parse this text.
    Parse(Cow<'f, str>),
}

/// What [`FrontEnd::compile`] did for one request.
#[derive(Debug)]
struct Compiled {
    /// The request positions of the files it parsed.
    parsed: Vec<usize>,
    /// Time spent before lowering: the hit check and parsing.
    parse_ns: u64,
    /// The functions lowered again in place, or `None` after a full
    /// lowering.
    relowered: Option<Vec<FuncId>>,
}

impl FrontEnd {
    /// Compiles `files` into [`FrontEnd::lowered`] and says what it parsed
    /// and lowered. Afterwards the front end holds exactly the files of
    /// this request that parsed: a file the request dropped is evicted,
    /// and a file that failed to parse is parsed again next time, with the
    /// same diagnostic. It holds a module only if the request compiled.
    ///
    /// With `words`, each file it parses keeps its [`text_word`]: the
    /// word of the file at position `i` is `words[i]`, when the caller
    /// hashed that far, and is hashed here otherwise.
    fn compile(
        &mut self,
        files: &[FrameFile<'_>],
        words: Option<&[u64]>,
    ) -> Result<Compiled, Vec<Diag>> {
        let start = Instant::now();
        let old = std::mem::take(&mut self.files);
        let kept = self.lowered.take();
        let same_names =
            old.len() == files.len() && old.iter().zip(files).all(|(o, f)| o.name == f.name);
        // A hit needs the same name and the same text. With the previous
        // names, distinct and in the previous order, a file can only hit
        // the entry at its own position. Otherwise names may repeat or
        // move, so each name maps to all its entries, and each entry is
        // reused at most once.
        let positional = same_names && self.distinct_names;
        let hits: Vec<Hit<'_>> = if positional {
            files
                .iter()
                .zip(&old)
                .enumerate()
                .map(|(i, (f, o))| match &f.text {
                    Some(text) if **text != *o.text => Hit::Parse(Cow::Borrowed(&**text)),
                    _ => Hit::Reuse(i),
                })
                .collect()
        } else {
            let mut by_name: HashMap<&str, Vec<usize>> = HashMap::with_capacity(old.len());
            for (i, file) in old.iter().enumerate() {
                by_name.entry(&file.name).or_default().push(i);
            }
            files
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let text = f.text.as_deref().unwrap_or_else(|| &old[i].text);
                    let hit = by_name.get_mut(&*f.name).and_then(|entries| {
                        let at = entries.iter().position(|&j| old[j].text == text)?;
                        Some(entries.swap_remove(at))
                    });
                    match (hit, &f.text) {
                        (Some(j), _) => Hit::Reuse(j),
                        (None, Some(text)) => Hit::Parse(Cow::Borrowed(&**text)),
                        (None, None) => Hit::Parse(Cow::Owned(old[i].text.clone())),
                    }
                })
                .collect()
        };
        // Lowering in place needs the previous names in the previous order,
        // with every reused unit at its own position.
        let mut in_place = kept.is_some() && same_names;
        let mut old: Vec<Option<ParsedFile>> = old.into_iter().map(Some).collect();
        let mut changed = Vec::new();
        let mut diags = Vec::new();
        for (i, (f, hit)) in files.iter().zip(hits).enumerate() {
            let text = match hit {
                Hit::Reuse(j) => {
                    in_place &= i == j;
                    self.files
                        .push(old[j].take().expect("an entry is reused once"));
                    continue;
                }
                Hit::Parse(text) => text,
            };
            changed.push(i);
            match Parser::parse_source(&f.name, &text) {
                Ok(unit) => self.files.push(ParsedFile {
                    word: words.map(|w| {
                        w.get(i)
                            .copied()
                            .unwrap_or_else(|| text_word(text.as_bytes()))
                    }),
                    name: f.name.to_string(),
                    text: text.into_owned(),
                    unit,
                }),
                Err(d) => diags.push(d),
            }
        }
        // Files kept from distinct names at their own positions have
        // distinct names.
        if !positional {
            let mut names = HashSet::with_capacity(self.files.len());
            self.distinct_names = self.files.iter().all(|f| names.insert(f.name.as_str()));
        }
        if !diags.is_empty() {
            return Err(diags);
        }
        let parse_ns = start.elapsed().as_nanos() as u64;
        let units: Vec<(&Unit, Option<Category>)> =
            self.files.iter().map(|f| (&f.unit, None)).collect();
        if let (true, Some(kept)) = (in_place, kept) {
            // Every reused unit sits at its own position, so each changed
            // position's old entry is still in `old`.
            let changed: Vec<(usize, &Unit)> = changed
                .iter()
                .map(|&i| (i, &old[i].as_ref().expect("not reused elsewhere").unit))
                .collect();
            if let Some((lowered, relowered)) = kept.relower(&units, &changed) {
                self.lowered = Some(lowered);
                return Ok(Compiled {
                    parsed: changed.iter().map(|&(i, _)| i).collect(),
                    parse_ns,
                    relowered: Some(relowered),
                });
            }
        }
        // The kept module is gone by now, and the entries this request did
        // not reuse are evicted before the full lowering.
        drop(old);
        self.lowered = Some(LoweredModule::lower(&units)?);
        Ok(Compiled {
            parsed: changed,
            parse_ns,
            relowered: None,
        })
    }
}

/// Warm per-corpus state carried between `analyze` calls (and to/from the
/// on-disk store).
#[derive(Debug)]
struct WarmState {
    /// The fingerprints `records` were recorded against, per function of
    /// `names`. Their per-function closure members belong to the front
    /// end's kept module; a state loaded from the store has none.
    fps: ModuleFingerprints,
    /// The function space of `records`, one name per id: the kept module's,
    /// captured by its last full lowering, or a loaded store's.
    names: Arc<[Arc<str>]>,
    /// Per function of `names`: its file's index in `files`. Kept only by
    /// a session with a store, like `files`.
    func_files: Vec<u32>,
    /// The file table of the request that made `records`.
    files: Vec<FileEntry>,
    /// How many roots that request had; a quarantined root has no record.
    root_count: u64,
    /// One record per root, in root order.
    records: Vec<RootRecord>,
    /// What the request that made `records` derived from the front end's
    /// kept module, when it relowered that module in place.
    bound: Option<Bound>,
}

impl WarmState {
    /// The function table a save writes.
    fn table(&self) -> FunctionTable<'_> {
        FunctionTable {
            names: &self.names,
            fps: &self.fps.fps,
            files: &self.func_files,
        }
    }
}

/// One request's products over the front end's kept module, kept so that
/// the next request, when it relowers that module in place (which keeps
/// every function, file and struct id), updates them for the functions it
/// lowered again and the roots they dirty instead of deriving them anew.
/// A full lowering derives them anew. Only a request that relowered in
/// place keeps them: until a session serves an edit, they would only add
/// to its memory.
#[derive(Debug)]
struct Bound {
    graph: CallGraph,
    /// The analysis roots, ascending.
    roots: Vec<FuncId>,
    /// The P3 groups of the request. The validation cache only grows, so
    /// it still holds every verdict they recorded.
    groups: KeptGroups,
}

/// A persistent analysis session.
///
/// ```
/// use pata_core::{AnalysisConfig, AnalysisRequest, AnalysisSession};
///
/// let mut session = AnalysisSession::new(AnalysisConfig::default());
/// let request = AnalysisRequest::new().file(
///     "demo.c",
///     r#"
///     struct dev { int *res; };
///     static int demo_probe(struct dev *d) {
///         if (d->res == NULL) { }
///         return *d->res;        // NPD when d->res is NULL
///     }
///     static struct drv demo_driver = { .probe = demo_probe };
///     "#,
/// );
/// let outcome = session.analyze(&request).unwrap();
/// assert!(outcome
///     .report
///     .reports
///     .iter()
///     .any(|r| r.kind.as_str() == "null-pointer-dereference"));
///
/// // The second identical request is answered from the warm cache.
/// let again = session.analyze(&request).unwrap();
/// assert_eq!(again.incremental.clean_roots, again.incremental.roots);
/// assert_eq!(again.report.to_json(), outcome.report.to_json());
/// ```
#[derive(Debug)]
pub struct AnalysisSession {
    config: AnalysisConfig,
    /// Checker factories; every run instantiates its checkers through it,
    /// so out-of-tree checkers registered by embedders run alongside the
    /// built-ins.
    registry: CheckerRegistry,
    /// Stage-2 conjunction verdicts, shared across every call on this
    /// session (and, being `Sync`, across threads).
    cache: Arc<ValidationCache>,
    /// Metrics registry. Cheap when `config.telemetry` is off: every
    /// recording site branches on one relaxed atomic load.
    telemetry: Arc<Telemetry>,
    config_fp: u64,
    store_path: Option<PathBuf>,
    front_end: FrontEnd,
    warm: Option<WarmState>,
    /// The on-disk store as this session last read or wrote it, while it
    /// is known to equal the in-memory warm state: lets a fully-clean
    /// request skip the save, and an edit append only what it changed.
    synced: Option<SyncedStore>,
}

/// A store file that equals the session's warm state.
#[derive(Debug, Clone, Copy)]
struct SyncedStore {
    file: StoreFile,
    /// The validation cache's mark when the file was read or written: the
    /// verdicts recorded since are the ones the file lacks.
    cache_mark: u64,
}

impl AnalysisSession {
    /// An in-memory session (no on-disk store) with the built-in checkers.
    pub fn new(config: AnalysisConfig) -> Self {
        Self::with_registry(config, CheckerRegistry::with_builtins())
    }

    /// An in-memory session with a custom [`CheckerRegistry`] (out-of-tree
    /// checkers run alongside the built-ins; see `examples/`).
    pub fn with_registry(config: AnalysisConfig, registry: CheckerRegistry) -> Self {
        AnalysisSession {
            config_fp: config_fingerprint(&config),
            telemetry: Arc::new(Telemetry::new(config.telemetry)),
            cache: Arc::new(ValidationCache::new()),
            config,
            registry,
            store_path: None,
            front_end: FrontEnd::default(),
            warm: None,
            synced: None,
        }
    }

    /// A session backed by the on-disk store at `path`.
    ///
    /// Loading is infallible: a missing, corrupt, schema-incompatible or
    /// configuration-incompatible store is treated as a clean cold start.
    /// Every successful `analyze` call re-saves the store.
    pub fn open(config: AnalysisConfig, path: impl AsRef<Path>) -> Self {
        Self::open_with_registry(config, CheckerRegistry::with_builtins(), path)
    }

    /// [`AnalysisSession::open`] with a custom [`CheckerRegistry`].
    pub fn open_with_registry(
        config: AnalysisConfig,
        registry: CheckerRegistry,
        path: impl AsRef<Path>,
    ) -> Self {
        let mut session = Self::with_registry(config, registry);
        let path = path.as_ref().to_path_buf();
        let t0 = Instant::now();
        if let Some((store, file)) = Store::load(&path, session.config_fp) {
            session.cache.import(store.validation);
            session.warm = Some(WarmState {
                fps: ModuleFingerprints::from_fps(store.fps),
                names: store.names,
                func_files: store.func_files,
                files: store.files,
                root_count: store.root_count,
                records: store.roots,
                bound: None,
            });
            session.synced = Some(SyncedStore {
                file,
                cache_mark: session.cache.mark(),
            });
        }
        let load_ns = t0.elapsed().as_nanos() as u64;
        session.telemetry.record_direct(|sink| {
            sink.record_ns("driver.serve.store_load", load_ns);
            sink.add(
                "driver.serve.store_loaded",
                u64::from(session.warm.is_some()),
            );
        });
        session.store_path = Some(path);
        session
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The session's telemetry registry (metrics accumulate across calls).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The session's shared stage-2 validation cache.
    pub fn validation_cache(&self) -> &Arc<ValidationCache> {
        &self.cache
    }

    /// The session's checker registry.
    pub fn registry(&self) -> &CheckerRegistry {
        &self.registry
    }

    /// Runs the full pipeline on an already-compiled module, without
    /// touching the warm state or the store: every root is explored.
    /// Stage-2 verdicts still share the session's validation cache across
    /// calls.
    pub fn analyze_module(&self, module: Module) -> AnalysisOutcome {
        self.analyze_module_with(module, &self.checkers())
    }

    /// [`AnalysisSession::analyze_module`] with explicit checker instances
    /// (e.g. user-defined FSMs; see `examples/custom_checker.rs`).
    pub fn analyze_module_with(
        &self,
        mut module: Module,
        checkers: &[Box<dyn Checker>],
    ) -> AnalysisOutcome {
        let start = Instant::now();
        let (mut runs, mut stats) = self.collect_and_explore(&mut module, checkers);
        let mut budget_notes = Vec::new();
        let mut degraded = Vec::new();
        for run in &mut runs {
            budget_notes.extend(run.note.take());
            degraded.extend(run.failure.as_ref().map(RootFailure::to_degraded));
        }
        let stream: Vec<RootCandidates<'_>> = runs
            .iter()
            .map(|run| RootCandidates {
                candidates: &run.candidates,
                dirty: true,
            })
            .collect();
        let (reports, members, failures) = self.filter_roots(
            &function_space(&module),
            &stream,
            None,
            Some(&module),
            &mut stats,
        );
        let real_bugs = witnesses(&stream, &members).cloned().collect();
        degraded.extend(failures);
        degraded.sort();
        stats.time = start.elapsed();
        AnalysisOutcome {
            reports,
            real_bugs,
            stats,
            module,
            telemetry: self.telemetry.snapshot(),
            budget_notes,
            degraded,
        }
    }

    /// Runs phases P1 + P2 only, returning the marked module, the raw
    /// (pre-dedup, pre-validation) candidates and the exploration stats —
    /// the exact input [`filter::filter`] consumes. Lets benchmarks time
    /// stage-2 validation in isolation.
    pub fn collect_candidates(
        &self,
        mut module: Module,
    ) -> (Module, Vec<PossibleBug>, AnalysisStats) {
        let (runs, stats) = self.collect_and_explore(&mut module, &self.checkers());
        let candidates = runs.into_iter().flat_map(|run| run.candidates).collect();
        (module, candidates, stats)
    }

    /// The configured checkers, instantiated through the registry.
    fn checkers(&self) -> Vec<Box<dyn Checker>> {
        self.registry.instantiate_for(&self.config.checkers)
    }

    /// P1 + P2 with every root dirty: no fingerprinting, no store work.
    fn collect_and_explore(
        &self,
        module: &mut Module,
        checkers: &[Box<dyn Checker>],
    ) -> (Vec<RootRun>, AnalysisStats) {
        let (roots, _) = self.collect(module, None);
        let mut stats = module_stats(module);
        let runs = self.explore(module, checkers, &roots, &mut stats);
        (runs, stats)
    }

    /// P1: information collection — marks the module's interface functions
    /// and returns them with the call graph. `kept` is the previous
    /// request's graph and roots with the functions relowered in place
    /// since: then only those functions' edges are derived again.
    fn collect(
        &self,
        module: &mut Module,
        kept: Option<(CallGraph, Vec<FuncId>, &[FuncId])>,
    ) -> (Vec<FuncId>, CallGraph) {
        let tel_on = self.telemetry.is_enabled();
        let span = Span::start(tel_on, "stage.collect");
        let (roots, call_graph) = match kept {
            Some((mut graph, mut roots, relowered)) => {
                collector::remark_interfaces(module, &mut graph, &mut roots, relowered);
                (roots, graph)
            }
            None => collector::mark_interfaces_with_graph(module),
        };
        if tel_on {
            self.telemetry.record_direct(|sink| {
                span.finish(sink);
                sink.add("collect.roots", roots.len() as u64);
                sink.add("collect.call_edges", call_graph.edge_count() as u64);
            });
        }
        (roots, call_graph)
    }

    /// P2: per-root path-sensitive analysis of `roots`, merging their
    /// counters into `stats`.
    fn explore(
        &self,
        module: &Module,
        checkers: &[Box<dyn Checker>],
        roots: &[FuncId],
        stats: &mut AnalysisStats,
    ) -> Vec<RootRun> {
        let tel_on = self.telemetry.is_enabled();
        let span = Span::start(tel_on, "stage.explore");
        let runs = driver::explore_roots(
            module,
            &self.config,
            checkers,
            roots,
            &self.telemetry,
            stats,
        );
        if tel_on {
            self.telemetry.record_direct(|sink| span.finish(sink));
        }
        runs
    }

    /// P3 over the candidates of every root, in root order, through the
    /// session's validation cache with the configured fault plan armed:
    /// the reports, their witnesses (see [`filter::filter_roots`]) and the
    /// quarantined groups. `names` is
    /// the candidates' function space. `groups`, when the session keeps
    /// this request's groups, holds the previous request's to replay and
    /// receives this one's.
    ///
    /// With `reports`, the candidates' module, the reports are built in the
    /// filter's span; the serve path leaves them to [`render_served`].
    fn filter_roots(
        &self,
        names: &[Arc<str>],
        stream: &[RootCandidates<'_>],
        groups: Option<&mut KeptGroups>,
        reports: Option<&Module>,
        stats: &mut AnalysisStats,
    ) -> (Vec<BugReport>, Vec<Member>, Vec<DegradedRoot>) {
        let tel_on = self.telemetry.is_enabled();
        let span = Span::start(tel_on, "stage.filter");
        let (members, failures) = filter::filter_roots(
            names,
            stream,
            groups,
            self.config.validate_paths,
            self.config.validation_cache.then(|| &*self.cache),
            Some(&self.telemetry),
            stats,
            self.config.fault_plan.as_deref(),
        );
        let reports = match reports {
            Some(module) => witnesses(stream, &members)
                .map(|bug| BugReport::from_possible(bug, module))
                .collect(),
            None => Vec::new(),
        };
        if tel_on {
            self.telemetry.record_direct(|sink| span.finish(sink));
        }
        (reports, members, failures)
    }

    /// Compiles and analyzes `request`, re-exploring only roots whose
    /// transitive callee fingerprints changed since the previous call (or
    /// the persisted store), then updates the warm state and re-saves the
    /// store. Only the files whose name and text are new since the previous
    /// call are parsed, and when the file names are the previous call's,
    /// only those files are lowered again; the module is always exactly
    /// the one a cold compile gives. A session with a store and no kept
    /// module (a restart) answers a request whose files are the ones its
    /// records were made from, name for name and text for text, from the
    /// records without compiling at all; the report and statistics are
    /// the ones compiling would give.
    pub fn analyze(&mut self, request: &AnalysisRequest) -> Result<SessionOutcome, SessionError> {
        let files: Vec<FrameFile<'_>> = request.files.iter().map(FrameFile::from).collect();
        let analyzed = self.run(&files, None)?;
        Ok(SessionOutcome {
            report: analyzed.report.expect("a report unless served"),
            stats: analyzed.stats,
            telemetry: self.telemetry.snapshot(),
            incremental: analyzed.incremental,
        })
    }

    /// The name and text of the front end's kept file at position `i`,
    /// which the serve path compares with a frame's file at that position.
    pub(crate) fn kept_file(&self, i: usize) -> Option<(&str, &str)> {
        let file = self.front_end.files.get(i)?;
        Some((&file.name, &file.text))
    }

    /// [`AnalysisSession::analyze`] for the serve path: analyzes `files`
    /// and appends the report document to `out`, byte for byte what
    /// [`Report::to_json`] writes for the report `analyze` gives. Returns
    /// the request's counters and the nanoseconds spent rendering.
    pub(crate) fn analyze_served(
        &mut self,
        files: &[FrameFile<'_>],
        out: &mut String,
    ) -> Result<(IncrementalStats, u64), SessionError> {
        let analyzed = self.run(files, Some(out))?;
        Ok((analyzed.incremental, analyzed.render_ns))
    }

    /// Compiles and analyzes `files`: the report is returned, or, when
    /// `out` is given, rendered into it. A session with a store and no kept
    /// module first tries to serve `files` from its records
    /// ([`AnalysisSession::serve_from_records`]); any mismatch falls
    /// through to compiling, which reuses the text words the check hashed.
    fn run(
        &mut self,
        files: &[FrameFile<'_>],
        mut out: Option<&mut String>,
    ) -> Result<Analyzed, SessionError> {
        let start = Instant::now();
        if files.is_empty() {
            return Err(SessionError::EmptyRequest);
        }
        let hashing = self.store_path.is_some();
        let mut words = Vec::new();
        if hashing && self.front_end.lowered.is_none() {
            // The same containment boundary as the compiled path's below.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.serve_from_records(files, start, &mut words, out.as_deref_mut())
            })) {
                Ok(Some(analyzed)) => return Ok(analyzed),
                Ok(None) => {}
                Err(payload) => {
                    self.reset_warm();
                    return Err(SessionError::Internal(crate::driver::panic_reason(
                        &*payload,
                    )));
                }
            }
        }
        let compiled = self
            .front_end
            .compile(files, hashing.then_some(&words[..]))
            .map_err(|diags| {
                SessionError::Compile(diags.iter().map(ToString::to_string).collect())
            })?;
        let mut lowered = self
            .front_end
            .lowered
            .take()
            .expect("a compiled request keeps its module");
        let compile_ns = start.elapsed().as_nanos() as u64;
        self.telemetry.record_direct(|sink| {
            sink.record_ns("driver.serve.parse", compiled.parse_ns);
            sink.record_ns(
                "driver.serve.lower",
                compile_ns.saturating_sub(compiled.parse_ns),
            );
        });
        // The last containment boundary: per-root faults are absorbed by
        // the quarantine/demotion ladder below, but a panic outside those
        // scopes (collection, fingerprinting, splicing, store writing)
        // must not take down a long-lived session — or the serve worker
        // wrapping it. Warm state may be half-updated at the panic point,
        // so it is discarded wholesale, and the module with it.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.analyze_compiled(lowered.module_mut(), &compiled, start, out)
        })) {
            Ok(analyzed) => {
                self.front_end.lowered = Some(lowered);
                Ok(analyzed)
            }
            Err(payload) => {
                self.reset_warm();
                Err(SessionError::Internal(crate::driver::panic_reason(
                    &*payload,
                )))
            }
        }
    }

    /// Whether `files` are the tree the warm state's records were made
    /// from, with a record for every root: the same file names in order,
    /// then the same lengths, then the same text words. Pushes each word
    /// it hashes onto `words`, stopping at the first that differs.
    fn is_recorded_tree(&self, files: &[FrameFile<'_>], words: &mut Vec<u64>) -> bool {
        let Some(warm) = &self.warm else {
            return false;
        };
        let one_per_root = warm.records.len() as u64 == warm.root_count
            && warm.records.windows(2).all(|w| w[0].root < w[1].root);
        if !one_per_root || warm.files.len() != files.len() {
            return false;
        }
        // A frame leaves out a text equal to the kept file's at its position.
        let text = |i: usize| -> &str {
            match &files[i].text {
                Some(text) => text,
                None => &self.front_end.files[i].text,
            }
        };
        zip(files, &warm.files).all(|(f, e)| *f.name == *e.name)
            && (0..files.len()).all(|i| text(i).len() as u64 == warm.files[i].bytes)
            && warm.files.iter().enumerate().all(|(i, e)| {
                words.push(text_word(text(i).as_bytes()));
                words[i] == e.word
            })
    }

    /// Serves `files` from the warm state's records, when they are the tree
    /// the records were made from: no parse, lowering, collection,
    /// fingerprinting or exploration. The records go through the same P3
    /// as a compiled request's, and each finding renders from its stored
    /// function and file names and lines, so the report and statistics are
    /// the ones a compiled request gives. `None`, having done nothing but
    /// the check, when the tree differs; `words` then holds the text
    /// words the check hashed.
    fn serve_from_records(
        &mut self,
        files: &[FrameFile<'_>],
        start: Instant,
        words: &mut Vec<u64>,
        out: Option<&mut String>,
    ) -> Option<Analyzed> {
        let tel_on = self.telemetry.is_enabled();
        let check = Span::start(tel_on, "driver.serve.tree_check");
        let recorded = self.is_recorded_tree(files, words);
        if tel_on {
            self.telemetry.record_direct(|sink| check.finish(sink));
        }
        if !recorded {
            return None;
        }
        faultinject::maybe_panic(self.config.fault_plan.as_deref(), "session.analyze", "");
        let warm = self.warm.take().expect("a recorded tree has warm state");
        let mut stats = AnalysisStats {
            files_analyzed: warm.files.len() as u64,
            loc_analyzed: warm.files.iter().map(|f| u64::from(f.lines)).sum(),
            ..AnalysisStats::default()
        };
        let mut notes: Vec<BudgetNote> = Vec::new();
        let mut degraded: Vec<DegradedRoot> = Vec::new();
        for record in &warm.records {
            replay_record(
                record,
                &warm.names[record.root.index()],
                &mut stats,
                &mut notes,
                &mut degraded,
            );
        }
        let stream: Vec<RootCandidates<'_>> = warm
            .records
            .iter()
            .map(|record| RootCandidates {
                candidates: &record.candidates,
                dirty: false,
            })
            .collect();
        let (_, members, failures) =
            self.filter_roots(&warm.names, &stream, None, None, &mut stats);
        degraded.extend(failures);
        let render_start = Instant::now();
        let reports: Vec<BugReport> = members
            .iter()
            .map(|&(r, i)| {
                let record = &warm.records[r];
                let bug = &record.candidates[i];
                let site = bug.site_id.func.index();
                let file = &warm.files[warm.func_files[site] as usize].name;
                let category = pata_cc::infer_category(file);
                BugReport::from_parts(bug, &warm.names[site], file, category, record.lines[i])
            })
            .collect();
        let report = match out {
            None => Some(
                Report::new(reports)
                    .with_budget_notes(notes)
                    .with_degraded(degraded),
            ),
            Some(out) => {
                report::write_report(
                    out,
                    report::REPORT_SCHEMA_VERSION,
                    &reports,
                    |out, r| r.write_json(out),
                    &notes,
                    &report::sorted_degraded(degraded),
                );
                None
            }
        };
        let render_ns = render_start.elapsed().as_nanos() as u64;
        stats.time = start.elapsed();
        let roots = warm.root_count;
        let incremental = IncrementalStats {
            roots,
            dirty_roots: 0,
            clean_roots: roots,
            changed_functions: 0,
            warm_start: true,
            parsed_files: 0,
            lowered_functions: 0,
        };
        self.record_request(&incremental);
        // Only a verdict P3 recorded anew is missing from the store.
        let mark = self.cache.mark();
        if self.synced.is_none_or(|s| s.cache_mark != mark) {
            let unchanged = Changes {
                files: Vec::new(),
                functions: Vec::new(),
                explored: &[],
            };
            self.save(&warm, Some(unchanged));
        }
        self.warm = Some(warm);
        Some(Analyzed {
            report,
            stats,
            incremental,
            render_ns,
        })
    }

    /// Records one request's incremental counters.
    fn record_request(&self, incremental: &IncrementalStats) {
        self.telemetry.record_direct(|sink| {
            sink.add("driver.serve.requests", 1);
            sink.add("driver.serve.dirty_roots", incremental.dirty_roots);
            sink.add("driver.serve.clean_roots", incremental.clean_roots);
            sink.add(
                "driver.serve.changed_functions",
                incremental.changed_functions,
            );
            // Invalidation fan-out: roots re-explored *because of* a
            // change (as opposed to cold-start exploration).
            if incremental.warm_start {
                sink.add("driver.serve.invalidated_roots", incremental.dirty_roots);
            }
        });
    }

    /// Discards the in-memory warm state, the parsed units and the kept
    /// module so the next request cold-starts. Used after a contained
    /// internal panic, when the warm image can no longer be trusted to
    /// mirror either the sources or the store.
    pub(crate) fn reset_warm(&mut self) {
        self.front_end = FrontEnd::default();
        self.warm = None;
        self.synced = None;
    }

    /// The incremental pipeline on a compiled module.
    fn analyze_compiled(
        &mut self,
        module: &mut Module,
        compiled: &Compiled,
        start: Instant,
        out: Option<&mut String>,
    ) -> Analyzed {
        let tel_on = self.telemetry.is_enabled();
        let checkers = self.checkers();
        let config = &self.config;
        let store = self.store_path.is_some();
        faultinject::maybe_panic(config.fault_plan.as_deref(), "session.analyze", "");

        let mut prev = self.warm.take();
        let warm_start = prev.is_some();
        let mut prev_records = prev
            .as_mut()
            .map(|w| std::mem::take(&mut w.records))
            .unwrap_or_default();
        let bound = prev.as_mut().and_then(|w| w.bound.take());
        // The previous request's products stay bound to the module only
        // when this request relowered it in place.
        let relowered = compiled.relowered.as_deref();
        let (kept_graph, kept_groups) = match bound.zip(relowered) {
            Some((b, funcs)) => (Some((b.graph, b.roots, funcs)), Some(b.groups)),
            None => (None, None),
        };
        let (roots, call_graph) = self.collect(module, kept_graph);
        let module = &*module;
        let n = module.functions().len();

        // Change detection. This request's records are in the module's
        // function space. A map from the previous space is the identity
        // (`None`) after relowering in place, which keeps every id and
        // name, or goes by name after a full lowering, which captures the
        // names anew. After an in-place lowering only the functions
        // lowered again are fingerprinted; the kept fingerprints cover
        // every other one.
        let fp_start = Instant::now();
        let in_place = relowered.is_some() && prev.is_some();
        let map: Option<Vec<Option<FuncId>>> = match &prev {
            Some(p) if !in_place => {
                Some(p.names.iter().map(|n| module.function_by_name(n)).collect())
            }
            _ => None,
        };
        // Whether the module's function space is the previous one, id for
        // id: then a delta names functions by their stored ids.
        let same_space = prev.is_some()
            && map.as_ref().is_none_or(|map| {
                map.len() == n
                    && map
                        .iter()
                        .enumerate()
                        .all(|(i, f)| f.map(FuncId::index) == Some(i))
            });
        let func_files: Vec<u32> = match prev.as_mut() {
            _ if !store => Vec::new(),
            Some(p) if in_place => std::mem::take(&mut p.func_files),
            _ => module
                .functions()
                .iter()
                .map(|f| f.file().index() as u32)
                .collect(),
        };
        // `changed_ids` are the functions whose fingerprint or file moved,
        // when the space is the previous one.
        let (fps, changed_functions, changed_ids) = match (relowered, prev.as_mut()) {
            (Some(funcs), Some(p)) => {
                let mut fps =
                    std::mem::replace(&mut p.fps, ModuleFingerprints::from_fps(Vec::new()));
                let changed = fps.refresh(module, funcs);
                (fps, changed.len() as u64, Some(changed))
            }
            (_, p) => {
                let fps = ModuleFingerprints::build(module);
                match (p, &map) {
                    (Some(p), Some(map)) => {
                        let changed = fps.changed_since(&p.fps.fps, map);
                        let moved = |i: usize| {
                            p.fps.fps[i] != fps.fps[i]
                                || (store && p.func_files[i] != func_files[i])
                        };
                        let ids = same_space.then(|| {
                            (0..n)
                                .filter(|&i| moved(i))
                                .map(FuncId::from_index)
                                .collect()
                        });
                        (fps, changed, ids)
                    }
                    _ => (fps, n as u64, None),
                }
            }
        };
        let closures = fps.closure_fps(&call_graph, &roots, config.resolve_fptrs);
        let names: Arc<[Arc<str>]> = match prev.as_ref() {
            Some(p) if in_place => Arc::clone(&p.names),
            _ => function_space(module),
        };
        // The file table, with the positions whose entry changed when the
        // file names are the previous ones, in order: only a parsed file's
        // entry can have.
        let (files, changed_files) = if store {
            self.file_table(
                prev.as_mut().map(|p| std::mem::take(&mut p.files)),
                &compiled.parsed,
            )
        } else {
            (Vec::new(), None)
        };
        let prev_root_count = prev.as_ref().map_or(0, |p| p.root_count);
        drop(prev);

        let record_at = record_at(&prev_records, n, |f| match &map {
            None => Some(f),
            Some(map) => map[f.index()],
        });
        // Whether the roots are the recorded ones, in order: then a save may
        // replace their records in place.
        let recorded = |(i, r): (usize, &FuncId)| record_at[r.index()] == Some(i);
        let same_roots =
            prev_records.len() == roots.len() && roots.iter().enumerate().all(recorded);
        // A root is clean when its record has its closure fingerprint. A
        // clean root's record moves into this module's space up front, where
        // it lies: a function it names that is gone, or an instruction index
        // out of range, demotes the root to dirty (never to a wrong answer).
        let clean: Vec<Option<usize>> = roots
            .iter()
            .zip(&closures)
            .map(|(&root, &closure_fp)| {
                let at = record_at[root.index()]?;
                let record = &mut prev_records[at];
                if record.closure_fp != closure_fp {
                    return None;
                }
                if let Some(map) = &map {
                    record.renumber(|f| map[f.index()])?;
                    // `inst == len` denotes the terminator.
                    let in_bounds = |id: InstId| {
                        let block = module.function(id.func).blocks().get(id.block.index());
                        block.is_some_and(|b| id.inst <= b.insts.len())
                    };
                    let resolves = |b: &PossibleBug| in_bounds(b.origin_id) && in_bounds(b.site_id);
                    if !record.candidates.iter().all(resolves) {
                        return None;
                    }
                }
                Some(at)
            })
            .collect();
        let dirty_ids: Vec<FuncId> = zip(&roots, &clean)
            .filter_map(|(&root, clean)| clean.is_none().then_some(root))
            .collect();
        let incremental = IncrementalStats {
            roots: roots.len() as u64,
            dirty_roots: dirty_ids.len() as u64,
            clean_roots: (roots.len() - dirty_ids.len()) as u64,
            changed_functions,
            warm_start,
            parsed_files: compiled.parsed.len() as u64,
            lowered_functions: match relowered {
                Some(funcs) => funcs.len(),
                None => module.functions().len(),
            } as u64,
        };
        let fingerprint_ns = fp_start.elapsed().as_nanos() as u64;
        if tel_on {
            self.telemetry.record_direct(|sink| {
                sink.record_ns("driver.serve.fingerprint", fingerprint_ns);
            });
            self.record_request(&incremental);
        }

        // Explore the dirty roots; each explored root gets a new record.
        let mut stats = module_stats(module);
        let runs = self.explore(module, &checkers, &dirty_ids, &mut stats);
        let quarantined =
            |run: &RootRun| matches!(&run.failure, Some(f) if f.action == "quarantined");
        // With the recorded roots, in order, and every dirty root recorded
        // again, each record stays where it is and an explored root's new
        // one replaces it there. Otherwise the records move into root order.
        let in_place = same_roots && !runs.iter().any(quarantined);
        let prev_count = prev_records.len();
        let (mut records, mut moved): (Vec<RootRecord>, Vec<Option<RootRecord>>) = if in_place {
            (prev_records, Vec::new())
        } else {
            let moved = prev_records.into_iter().map(Some).collect();
            (Vec::with_capacity(roots.len()), moved)
        };
        let mut runs = runs.into_iter();
        let mut notes: Vec<BudgetNote> = Vec::new();
        let mut degraded: Vec<DegradedRoot> = Vec::new();
        // Per record: whether this request explored its root.
        let mut explored: Vec<bool> = Vec::with_capacity(roots.len());
        for (i, (&root, &clean)) in zip(&roots, &clean).enumerate() {
            if let Some(at) = clean {
                if !in_place {
                    records.push(moved[at].take().expect("a record serves one root"));
                }
                let record = &records[if in_place { i } else { records.len() - 1 }];
                let name = module.function(root).name();
                replay_record(record, name, &mut stats, &mut notes, &mut degraded);
                explored.push(false);
                continue;
            }
            let run: RootRun = runs.next().expect("one exploration result per dirty root");
            degraded.extend(run.failure.as_ref().map(RootFailure::to_degraded));
            notes.extend(run.note.clone());
            // A quarantined root produced no trustworthy result (and no
            // candidates): never record it, so the next request re-explores
            // it instead of replaying an empty answer as "clean". A demoted
            // root's bounded result *is* deterministic — record it with its
            // demotion so warm replays reproduce the report byte-identically.
            if quarantined(&run) {
                continue;
            }
            let record = RootRecord {
                root,
                closure_fp: closures[i],
                lines: match store {
                    true => candidate_lines(module, &run.candidates),
                    false => Vec::new(),
                },
                candidates: run.candidates,
                stats: run.stats,
                note: run.note.map(|n| n.reason),
                demoted: run.failure.map(|f| f.reason),
            };
            match in_place {
                true => records[i] = record,
                false => records.push(record),
            }
            explored.push(true);
        }
        drop(moved);

        // Every request filters its per-root stream. Only a request that
        // relowered in place keeps its groups, with its other products: a
        // session that has not (a one-shot analysis, a restart from the
        // store) is not serving edits yet. Kept groups replay their
        // verdicts only over the same module ids and, when validating,
        // through the cache that recorded them.
        let stream: Vec<RootCandidates<'_>> = records
            .iter()
            .zip(&explored)
            .map(|(record, &dirty)| RootCandidates {
                candidates: &record.candidates,
                dirty,
            })
            .collect();
        let replay = !config.validate_paths || config.validation_cache;
        let mut groups = relowered.map(|_| kept_groups.filter(|_| replay).unwrap_or_default());
        let (reports, members, failures) = self.filter_roots(
            &names,
            &stream,
            groups.as_mut(),
            out.is_none().then_some(module),
            &mut stats,
        );
        let witnesses: Vec<&PossibleBug> = witnesses(&stream, &members).collect();
        degraded.extend(failures);
        let relowered = relowered.unwrap_or_default();
        let render_start = Instant::now();
        let report = match out {
            None => {
                forget_moved_fragments(&witnesses, groups.as_mut(), relowered);
                Some(
                    Report::new(reports)
                        .with_budget_notes(notes)
                        .with_degraded(degraded),
                )
            }
            Some(out) => {
                let degraded = report::sorted_degraded(degraded);
                render_served(
                    module,
                    &witnesses,
                    groups.as_mut(),
                    relowered,
                    &notes,
                    &degraded,
                    out,
                );
                None
            }
        };
        let render_ns = render_start.elapsed().as_nanos() as u64;
        drop((witnesses, stream));
        stats.time = start.elapsed();

        // Update the warm state and (if open) the on-disk store. A fully
        // clean request (the same files, function table and roots, no dirty
        // roots, no new validation verdicts) would rewrite the store with
        // the same content — skip the redundant serialization.
        let same_roots = same_roots && records.len() == roots.len();
        let root_count = roots.len() as u64;
        let store_unchanged = self
            .synced
            .is_some_and(|s| s.cache_mark == self.cache.mark())
            && incremental.dirty_roots == 0
            && changed_ids.as_ref().is_some_and(Vec::is_empty)
            && changed_files.as_ref().is_some_and(Vec::is_empty)
            && prev_count == records.len()
            && prev_root_count == root_count;
        let warm = WarmState {
            fps,
            names,
            func_files,
            files,
            root_count,
            records,
            bound: groups.map(|groups| Bound {
                graph: call_graph,
                roots,
                groups,
            }),
        };
        if !store_unchanged {
            // What a delta line may carry: changed file entries, function
            // entries and the records of the explored roots, when no file,
            // function or root came, went or moved.
            let delta = match (changed_ids, changed_files) {
                (Some(functions), Some(files)) if same_roots && prev_root_count == root_count => {
                    Some(Changes {
                        files,
                        functions,
                        explored: &explored,
                    })
                }
                _ => None,
            };
            self.save(&warm, delta);
        }
        self.warm = Some(warm);
        Analyzed {
            report,
            stats,
            incremental,
            render_ns,
        }
    }

    /// The file table of the front end's files, hashed as they were
    /// parsed, built on `prev`, the previous request's table. When the
    /// file names are `prev`'s, in order, only the `parsed` positions can
    /// differ, and the positions whose entry did are returned too.
    fn file_table(
        &self,
        prev: Option<Vec<FileEntry>>,
        parsed: &[usize],
    ) -> (Vec<FileEntry>, Option<Vec<usize>>) {
        let kept = &self.front_end.files;
        let entry = |f: &ParsedFile| FileEntry {
            name: f.name.clone(),
            bytes: f.text.len() as u64,
            lines: f.unit.lines,
            word: f
                .word
                .expect("a session with a store hashes what it parses"),
        };
        match prev {
            Some(mut files)
                if files.len() == kept.len()
                    && zip(&files, kept).all(|(e, f)| e.name == f.name) =>
            {
                let mut changed = Vec::new();
                for &i in parsed {
                    let now = entry(&kept[i]);
                    if files[i] != now {
                        files[i] = now;
                        changed.push(i);
                    }
                }
                (files, Some(changed))
            }
            _ => (kept.iter().map(entry).collect(), None),
        }
    }

    /// Saves `warm` to the store, if one is open, and records the save.
    /// When the store on disk equals the previous warm state and `delta`
    /// names what this request changed, the save appends one delta line
    /// with those and the verdicts recorded since. Any other save, and one
    /// whose log would outgrow the base, rewrites the whole store, which
    /// compacts the log.
    fn save(&mut self, warm: &WarmState, delta: Option<Changes<'_>>) {
        let Some(path) = &self.store_path else {
            return;
        };
        let t0 = Instant::now();
        let saved = self.save_store(path, warm, delta);
        let save_ns = t0.elapsed().as_nanos() as u64;
        let saved_ok = saved.is_ok();
        self.synced = saved.ok().map(|file| SyncedStore {
            file,
            cache_mark: self.cache.mark(),
        });
        self.telemetry.record_direct(|sink| {
            sink.record_ns("driver.serve.store_save", save_ns);
            if !saved_ok {
                sink.add("driver.serve.store_save_errors", 1);
            }
        });
    }

    /// Writes `warm` to the store at `path`; see [`AnalysisSession::save`].
    fn save_store(
        &self,
        path: &Path,
        warm: &WarmState,
        delta: Option<Changes<'_>>,
    ) -> std::io::Result<StoreFile> {
        let fault = self.config.fault_plan.as_deref();
        let verdicts_since = |mark| {
            if self.config.validation_cache {
                self.cache.export_since(mark)
            } else {
                Vec::new()
            }
        };
        if let (Some(synced), Some(changes)) = (self.synced, delta) {
            let delta = StoreDelta {
                files: changes.files.iter().map(|&i| (i, &warm.files[i])).collect(),
                functions: changes
                    .functions
                    .iter()
                    .map(|&f| (f, warm.fps.fps[f.index()], warm.func_files[f.index()]))
                    .collect(),
                roots: zip(&warm.records, changes.explored)
                    .filter_map(|(record, &explored)| explored.then_some(record))
                    .collect(),
                validation: &verdicts_since(synced.cache_mark),
            };
            if let Some(file) = delta.append_with_faults(path, synced.file, fault)? {
                return Ok(file);
            }
        }
        StoreDoc {
            config_fp: self.config_fp,
            root_count: warm.root_count,
            files: &warm.files,
            functions: warm.table(),
            roots: &warm.records,
            validation: &verdicts_since(0),
        }
        .save_with_faults(path, fault)
    }
}

/// What a request changed in a store that equals the previous warm state,
/// in the space of both: the file positions and functions whose entries
/// changed and, per record, whether its root was explored afresh.
struct Changes<'a> {
    files: Vec<usize>,
    functions: Vec<FuncId>,
    explored: &'a [bool],
}

/// Adds a clean root's record, the root `name`, to a request: its
/// counters, its budget note and its demotion.
fn replay_record(
    record: &RootRecord,
    name: &str,
    stats: &mut AnalysisStats,
    notes: &mut Vec<BudgetNote>,
    degraded: &mut Vec<DegradedRoot>,
) {
    *stats += &record.stats;
    notes.extend(record.note.iter().map(|reason| BudgetNote {
        root: name.to_owned(),
        reason: reason.clone(),
    }));
    degraded.extend(record.demoted.iter().map(|reason| DegradedRoot {
        root: name.to_owned(),
        stage: "explore".to_owned(),
        reason: reason.clone(),
        action: "demoted".to_owned(),
    }));
}

/// What [`AnalysisSession::analyze_compiled`] gives for one request.
struct Analyzed {
    /// The report, unless it was rendered into the serve path's buffer.
    report: Option<Report>,
    stats: AnalysisStats,
    incremental: IncrementalStats,
    /// Time spent rendering the findings after P3.
    render_ns: u64,
}

/// Whether lowering `relowered` again may have changed how `bug` renders:
/// its lines, function, file and category all come from its site and
/// origin functions, and an edit that adds a line moves every later
/// function of its file.
fn moved(bug: &PossibleBug, relowered: &[FuncId]) -> bool {
    relowered.contains(&bug.site_id.func) || relowered.contains(&bug.origin_id.func)
}

/// Drops the kept fragments of the `witnesses` that lowering `relowered`
/// may have moved, when the findings are not rendered from fragments.
fn forget_moved_fragments(
    witnesses: &[&PossibleBug],
    groups: Option<&mut KeptGroups>,
    relowered: &[FuncId],
) {
    let Some(groups) = groups else { return };
    for bug in witnesses.iter().filter(|bug| moved(bug, relowered)) {
        *groups.fragment(bug.dedup_key()) = None;
    }
}

/// Appends the report document of `witnesses` to `out`. A witness whose
/// kept group has a fragment that lowering `relowered` did not move is
/// written from it; every other one is built by
/// [`BugReport::from_possible`] and, when groups are kept, kept as its
/// group's fragment for the next request.
fn render_served(
    module: &Module,
    witnesses: &[&PossibleBug],
    mut groups: Option<&mut KeptGroups>,
    relowered: &[FuncId],
    notes: &[BudgetNote],
    degraded: &[DegradedRoot],
    out: &mut String,
) {
    let write_finding = |out: &mut String, bug: &&PossibleBug| {
        let slot = groups.as_deref_mut().map(|g| g.fragment(bug.dedup_key()));
        if let Some(Some(json)) = slot.as_deref() {
            if !moved(bug, relowered) {
                out.push_str(json);
                return;
            }
        }
        let at = out.len();
        BugReport::from_possible(bug, module).write_json(out);
        if let Some(slot) = slot {
            *slot = Some(out[at..].into());
            #[cfg(test)]
            {
                groups.as_deref_mut().expect("kept groups").rendered += 1;
            }
        }
    };
    report::write_report(
        out,
        report::REPORT_SCHEMA_VERSION,
        witnesses,
        write_finding,
        notes,
        degraded,
    );
}

/// The candidates `members` names in `stream`.
fn witnesses<'c, 'm>(
    stream: &'m [RootCandidates<'c>],
    members: &'m [Member],
) -> impl Iterator<Item = &'c PossibleBug> + 'm {
    members.iter().map(|&(r, i)| &stream[r].candidates[i])
}

/// A fresh run's statistics before exploration: the module's size.
fn module_stats(module: &Module) -> AnalysisStats {
    AnalysisStats {
        files_analyzed: module.files().len() as u64,
        loc_analyzed: module.total_loc(),
        ..AnalysisStats::default()
    }
}

#[cfg(test)]
mod exactness;

#[cfg(test)]
mod incremental;

#[cfg(test)]
mod store_log;

#[cfg(test)]
mod store_mutation;

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_ROOTS: &str = r#"
        struct dev { int *res; };
        int probe_a(struct dev *d) {
            if (d->res == NULL) { }
            return *d->res;
        }
        int probe_b(int n) {
            int *m = malloc(n);
            if (m == NULL) { return -1; }
            if (n < 0) { return -2; }
            free(m);
            return 0;
        }
    "#;

    fn request(files: &[(&str, &str)]) -> AnalysisRequest {
        let mut r = AnalysisRequest::new();
        for (name, text) in files {
            r = r.file(*name, *text);
        }
        r
    }

    fn config() -> AnalysisConfig {
        AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        }
    }

    #[test]
    fn empty_request_refused() {
        let mut s = AnalysisSession::new(config());
        assert_eq!(
            s.analyze(&AnalysisRequest::new()).unwrap_err(),
            SessionError::EmptyRequest
        );
    }

    #[test]
    fn compile_errors_reported() {
        let mut s = AnalysisSession::new(config());
        let err = s.analyze(&request(&[("bad.c", "int f( {")])).unwrap_err();
        assert!(matches!(err, SessionError::Compile(_)), "{err}");
    }

    #[test]
    fn second_identical_request_is_fully_clean() {
        let mut s = AnalysisSession::new(config());
        let req = request(&[("t.c", TWO_ROOTS)]);
        let first = s.analyze(&req).unwrap();
        assert!(!first.incremental.warm_start);
        assert_eq!(first.incremental.clean_roots, 0);
        let second = s.analyze(&req).unwrap();
        assert!(second.incremental.warm_start);
        assert_eq!(second.incremental.dirty_roots, 0);
        assert_eq!(second.incremental.changed_functions, 0);
        assert_eq!(second.report.to_json(), first.report.to_json());
    }

    #[test]
    fn editing_one_root_dirties_only_it() {
        let mut s = AnalysisSession::new(config());
        s.analyze(&request(&[("t.c", TWO_ROOTS)])).unwrap();
        // Append a new root in a second file: probe_a / probe_b unchanged.
        let grown = s
            .analyze(&request(&[
                ("t.c", TWO_ROOTS),
                (
                    "u.c",
                    "int probe_c(int *q) { if (q == NULL) { } return *q; }",
                ),
            ]))
            .unwrap();
        assert_eq!(grown.incremental.roots, 3);
        assert_eq!(grown.incremental.dirty_roots, 1);
        assert_eq!(grown.incremental.clean_roots, 2);
        assert_eq!(grown.incremental.changed_functions, 1);
    }

    #[test]
    fn unchanged_files_are_not_parsed_again() {
        let mut s = AnalysisSession::new(config());
        let probe_c = "int probe_c(int *q) { if (q == NULL) { } return *q; }";
        let req = request(&[("t.c", TWO_ROOTS), ("u.c", probe_c)]);
        assert_eq!(s.analyze(&req).unwrap().incremental.parsed_files, 2);
        assert_eq!(s.analyze(&req).unwrap().incremental.parsed_files, 0);
        let edited = probe_c.replace("return *q;", "return *q + 1;");
        let out = s
            .analyze(&request(&[("t.c", TWO_ROOTS), ("u.c", &edited)]))
            .unwrap();
        assert_eq!(out.incremental.parsed_files, 1);
        assert_eq!(out.incremental.changed_functions, 1);
    }

    /// Two files may share a name: both are analyzed, cold, warm and after
    /// an edit of either. A cache keyed by the name alone would hand the
    /// second file the first one's unit.
    #[test]
    fn files_with_the_same_name_are_both_analyzed() {
        let f = "int f(int *p) { if (p == NULL) { } return *p; }";
        let g = "int g(int *q) { if (q == NULL) { } return *q; }";
        let f2 = f.replace("return *p;", "return *p + 1;");
        let g2 = g.replace("return *q;", "return *q + 2;");
        let mut s = AnalysisSession::new(config());
        let steps = [
            (request(&[("a.c", f), ("a.c", g)]), 2),
            (request(&[("a.c", f), ("a.c", g)]), 0),
            (request(&[("a.c", &f2), ("a.c", g)]), 1),
            (request(&[("a.c", &f2), ("a.c", &g2)]), 1),
            (request(&[("a.c", &g2), ("a.c", &f2)]), 0),
        ];
        for (i, (req, parsed)) in steps.iter().enumerate() {
            let out = s.analyze(req).unwrap();
            assert_eq!(out.incremental.roots, 2, "request {i}");
            assert_eq!(out.incremental.parsed_files, *parsed, "request {i}");
            let cold = AnalysisSession::new(config()).analyze(req).unwrap();
            assert_eq!(out.report.to_json(), cold.report.to_json(), "request {i}");
        }
    }

    #[test]
    fn a_file_dropped_from_the_request_is_evicted() {
        let mut s = AnalysisSession::new(config());
        let u = "int probe_c(int *q) { if (q == NULL) { } return *q; }";
        s.analyze(&request(&[("t.c", TWO_ROOTS), ("u.c", u)]))
            .unwrap();
        let out = s.analyze(&request(&[("t.c", TWO_ROOTS)])).unwrap();
        assert_eq!(out.incremental.parsed_files, 0);
        let names: Vec<&str> = s.front_end.files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["t.c"]);
        let out = s
            .analyze(&request(&[("t.c", TWO_ROOTS), ("u.c", u)]))
            .unwrap();
        assert_eq!(out.incremental.parsed_files, 1);
    }

    #[test]
    fn a_parse_error_is_reported_again_until_the_text_is_fixed() {
        let bad = request(&[("t.c", TWO_ROOTS), ("bad.c", "int f( {")]);
        let cold = AnalysisSession::new(config()).analyze(&bad).unwrap_err();
        assert!(matches!(cold, SessionError::Compile(_)), "{cold}");
        let mut s = AnalysisSession::new(config());
        s.analyze(&request(&[("t.c", TWO_ROOTS)])).unwrap();
        assert_eq!(s.analyze(&bad).unwrap_err(), cold);
        assert_eq!(s.analyze(&bad).unwrap_err(), cold);
        // Only the file that parsed is kept.
        assert_eq!(s.front_end.files.len(), 1);
        let fixed = request(&[("t.c", TWO_ROOTS), ("bad.c", "int f(void) { return 0; }")]);
        let out = s.analyze(&fixed).unwrap();
        assert_eq!(out.incremental.parsed_files, 1);
        let cold = AnalysisSession::new(config()).analyze(&fixed).unwrap();
        assert_eq!(out.report.to_json(), cold.report.to_json());
    }

    #[test]
    fn reset_warm_empties_the_parse_cache() {
        let mut s = AnalysisSession::new(config());
        let req = request(&[("t.c", TWO_ROOTS)]);
        s.analyze(&req).unwrap();
        assert_eq!(s.front_end.files.len(), 1);
        s.reset_warm();
        assert!(s.front_end.files.is_empty());
        let out = s.analyze(&req).unwrap();
        assert_eq!(out.incremental.parsed_files, 1);
        assert!(!out.incremental.warm_start);
    }

    #[test]
    fn session_outcome_matches_one_shot_driver() {
        let mut s = AnalysisSession::new(config());
        let warm = {
            let req = request(&[("t.c", TWO_ROOTS)]);
            s.analyze(&req).unwrap();
            s.analyze(&req).unwrap() // warm replay
        };
        let cold = AnalysisSession::new(config())
            .analyze_module(pata_cc::compile_one("t.c", TWO_ROOTS).unwrap());
        let cold_report = Report::new(cold.reports).with_budget_notes(cold.budget_notes);
        assert_eq!(warm.report.to_json(), cold_report.to_json());
    }
}
