//! Structured telemetry: counters, gauges, and duration histograms wired
//! through every pipeline stage.
//!
//! The paper's evaluation (Tables 5–8) is entirely about *where analysis
//! time goes* — alias resolution, typestate tracking, SMT validation. A
//! flat counter dump at the end cannot attribute a regression to a stage,
//! a root function, or a solver behaviour. This module is the
//! observability backbone: every stage records into a [`TelemetrySink`],
//! per-worker sinks are merged deterministically at the end (mirroring the
//! root-order merge of the driver's results), and the merged
//! [`TelemetrySnapshot`] travels on [`crate::AnalysisOutcome`] so
//! the CLI (`--stats-json`, `--profile`) and the bench binaries consume
//! structured data instead of scraping counters.
//!
//! # Design constraints
//!
//! * **Zero dependencies, no unsafe.** Histograms use fixed log2 buckets;
//!   JSON comes from [`crate::json`].
//! * **Disabled means a branch.** When telemetry is off, every record path
//!   is gated on a single `bool` loaded once per root (or a relaxed
//!   [`AtomicBool`] load on shared paths) — no clock reads, no hashing,
//!   no allocation. The `telemetry_overhead` bench enforces this.
//! * **Exact under parallelism.** Counter merging is commutative addition,
//!   so for a deterministic workload the merged counters under
//!   `--threads N` equal the `threads = 1` totals exactly (durations and
//!   gauges are timing-dependent and excluded from that guarantee).
//!
//! # Metric names
//!
//! A metric is identified by a static dotted name and nothing else, so the
//! set of metrics is fixed by the code: the snapshot's size does not grow
//! with the number of roots. The one per-root view, the slowest-roots
//! table, is a fixed-size list ([`SLOWEST_ROOTS`] entries) kept next to
//! the metrics.
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `stage.collect` / `stage.explore` / `stage.filter` | histogram | wall-clock per pipeline stage |
//! | `collect.roots`, `collect.call_edges` | counter | collector output sizes |
//! | `explore.root` | histogram | one sample per explored root |
//! | `path.paths`, `path.insts`, `path.budget_exhausted` | counter | exploration volume |
//! | `alias.op.{move,const,load,store,gep,addr,index}` | counter | alias-graph updates by rule |
//! | `typestate.transitions` | counter | alias-aware FSM transitions |
//! | `constraints.emitted` | counter | path constraints pushed |
//! | `driver.threads` | gauge | worker threads used |
//! | `driver.explore.fork.{forks,bytes_copied,bytes_shared}` | counter | branch-fork costs |
//! | `driver.explore.fork.{journal_depth,live_bytes}.max` | gauge | fork high-water marks |
//! | `driver.recover.{quarantined,demoted,deadline_hits,live_bytes_hits}` | counter | fault-containment actions |
//! | `driver.recover.retry_ns` | histogram | demoted re-run time |
//! | `validate.conjunctions` | counter | stage-2 solver questions asked |
//! | `validate.{cache_hit,cache_miss}` | counter | [`crate::validate::ValidationCache`] outcomes |
//! | `validate.solve` | histogram | time spent inside stage-2 solving |
//! | `smt.solve_calls` | counter | fresh solvers run (one per cache miss) |
//! | `smt.propagations` | counter | interval-propagation steps, summed over solves |
//! | `filter.{groups,repeated_dropped,false_dropped}` | counter | stage-2 group outcomes |
//! | `driver.serve.{parse,lower,fingerprint,store_load,store_save}` | histogram | session-layer wall-clock |
//! | `driver.serve.tree_check` | histogram | a store-loaded session's check whether a request is the tree its records were made from |
//! | `driver.serve.{frame,render}` | histogram | a served `analyze` request's frame read and rendering ([`crate::serve::handle_line`]) |
//! | `driver.serve.{requests,dirty_roots,clean_roots,changed_functions,invalidated_roots,store_loaded,store_save_errors}` | counter | incremental-session volume and store outcomes |
//!
//! A request a session serves from its store's records (the tree is the
//! one the store was saved from; see [`crate::AnalysisSession`]) records
//! `driver.serve.tree_check`, the `stage.filter` span with the `filter.*`
//! and `validate.*` metrics, and the `driver.serve` request counters. It
//! compiles, collects and explores nothing, so it records no
//! `driver.serve.{parse,lower,fingerprint}` sample, no `stage.collect` or
//! `stage.explore` span and no `collect.*`, `explore.*` or `path.*`
//! metric.

use crate::json;
use crate::path::ALIAS_OP_NAMES;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of log2 histogram buckets: bucket `i` counts values `v` with
/// `64 - v.leading_zeros() == i`, i.e. bucket 0 holds `v == 0`, bucket 1
/// holds `v == 1`, bucket `i` holds `2^(i-1) <= v < 2^i`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Schema version stamped into [`TelemetrySnapshot::to_json`] output.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Length of the slowest-roots table kept by every [`TelemetrySink`].
pub const SLOWEST_ROOTS: usize = 10;

/// One recorded metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A level; merging keeps the maximum.
    Gauge(i64),
    /// A duration histogram over nanosecond samples, with fixed log2
    /// buckets plus exact count/total/min/max.
    Histogram(Histogram),
}

/// Fixed-bucket log2 histogram of nanosecond durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub total_ns: u64,
    /// Smallest sample (ns); meaningless when `count == 0`.
    pub min_ns: u64,
    /// Largest sample (ns).
    pub max_ns: u64,
    buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: Box::new([0; HISTOGRAM_BUCKETS]),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.total_ns / self.count
        }
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs — the sparse
    /// form used by the JSON schema.
    pub fn sparse_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// One row of the slowest-roots table: a root at its slowest exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowRoot {
    /// The root function's name.
    pub root: String,
    /// Wall-clock of the exploration, in nanoseconds.
    pub ns: u64,
    /// Branch-state forks during that exploration.
    pub forks: u64,
    /// Bytes copied by those forks.
    pub bytes_copied: u64,
}

/// A per-worker shard of recorded metrics. Not shared: each worker owns
/// one and records without locking; shards are merged into the session
/// [`Telemetry`] at the end.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    metrics: HashMap<&'static str, Metric>,
    /// At most [`SLOWEST_ROOTS`] entries, one per root, in table order.
    slowest: Vec<SlowRoot>,
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        TelemetrySink::default()
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.metrics.entry(name).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += n,
            _ => debug_assert!(false, "metric `{name}` is not a counter"),
        }
    }

    /// Raises the gauge `name` to at least `v`.
    pub fn gauge_max(&mut self, name: &'static str, v: i64) {
        match self.metrics.entry(name).or_insert(Metric::Gauge(i64::MIN)) {
            Metric::Gauge(g) => *g = (*g).max(v),
            _ => debug_assert!(false, "metric `{name}` is not a gauge"),
        }
    }

    /// Records a duration sample (in nanoseconds) into histogram `name`.
    pub fn record_ns(&mut self, name: &'static str, ns: u64) {
        match self
            .metrics
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.record(ns),
            _ => debug_assert!(false, "metric `{name}` is not a histogram"),
        }
    }

    /// Offers one root exploration to the slowest-roots table. A root
    /// already listed keeps its slowest exploration; the table keeps the
    /// [`SLOWEST_ROOTS`] slowest roots, ties by name.
    pub(crate) fn record_root(&mut self, root: &str, ns: u64, forks: u64, bytes_copied: u64) {
        match self.slowest.iter().position(|e| e.root == root) {
            Some(i) if self.slowest[i].ns >= ns => return,
            Some(i) => drop(self.slowest.remove(i)),
            None => {}
        }
        let at = self
            .slowest
            .partition_point(|e| (Reverse(e.ns), e.root.as_str()) < (Reverse(ns), root));
        if at < SLOWEST_ROOTS {
            let root = root.to_owned();
            let entry = SlowRoot {
                root,
                ns,
                forks,
                bytes_copied,
            };
            self.slowest.insert(at, entry);
            self.slowest.truncate(SLOWEST_ROOTS);
        }
    }

    /// Merges another sink into this one (commutative for counters and
    /// histograms, max for gauges; the slowest-roots tables merge to the
    /// slowest of both).
    pub fn merge(&mut self, other: TelemetrySink) {
        for r in other.slowest {
            self.record_root(&r.root, r.ns, r.forks, r.bytes_copied);
        }
        for (key, metric) in other.metrics {
            match self.metrics.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(metric);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => match (e.get_mut(), metric) {
                    (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                    (Metric::Gauge(a), Metric::Gauge(b)) => *a = (*a).max(b),
                    (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(&b),
                    _ => debug_assert!(false, "metric kind mismatch on merge"),
                },
            }
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.slowest.is_empty()
    }
}

/// Session-level telemetry: the enable gate plus the merge target for all
/// per-worker sinks. Shared across the analysis as `Arc<Telemetry>`.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: AtomicBool,
    merged: Mutex<TelemetrySink>,
}

impl Telemetry {
    /// A new registry with the given enable state.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            enabled: AtomicBool::new(enabled),
            merged: Mutex::new(TelemetrySink::new()),
        }
    }

    /// Whether recording is on. A single relaxed atomic load — this is the
    /// whole cost of disabled telemetry on shared paths.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Merges a worker's shard into the session totals.
    pub fn merge(&self, sink: TelemetrySink) {
        if sink.is_empty() {
            return;
        }
        self.merged.lock().unwrap().merge(sink);
    }

    /// Records directly into the merged sink (for one-shot stage-level
    /// events outside the per-worker hot paths).
    pub fn record_direct(&self, f: impl FnOnce(&mut TelemetrySink)) {
        if !self.is_enabled() {
            return;
        }
        f(&mut self.merged.lock().unwrap());
    }

    /// Takes a snapshot of everything merged so far, sorted by name so
    /// output is deterministic.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let merged = self.merged.lock().unwrap();
        let mut entries: Vec<MetricEntry> = merged
            .metrics
            .iter()
            .map(|(&name, metric)| MetricEntry {
                name,
                metric: metric.clone(),
            })
            .collect();
        entries.sort_by_key(|e| e.name);
        TelemetrySnapshot {
            entries,
            slowest_roots: merged.slowest.clone(),
        }
    }
}

/// A span timer: measures wall-clock from construction to [`Span::finish`]
/// and records it into a histogram. When telemetry is disabled the
/// constructor takes one branch and never reads the clock.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Starts a span, reading the clock only when `enabled` is true.
    #[inline]
    pub fn start(enabled: bool, name: &'static str) -> Span {
        Span {
            name,
            start: if enabled { Some(Instant::now()) } else { None },
        }
    }

    /// Finishes the span into `sink` (no-op when started disabled).
    pub fn finish(self, sink: &mut TelemetrySink) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.record_ns(self.name, ns);
        }
    }

    /// Whether the span is live (telemetry was enabled at start).
    pub fn is_live(&self) -> bool {
        self.start.is_some()
    }
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Dotted metric name (see module docs for the catalog).
    pub name: &'static str,
    /// The recorded value.
    pub metric: Metric,
}

/// An immutable, sorted view of everything recorded during one analysis.
/// Carried on [`crate::AnalysisOutcome`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// All metrics, sorted by name.
    pub entries: Vec<MetricEntry>,
    /// The slowest explored roots, at most [`SLOWEST_ROOTS`], slowest
    /// first.
    pub slowest_roots: Vec<SlowRoot>,
}

impl TelemetrySnapshot {
    /// Whether nothing was recorded (telemetry disabled).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.metric)
    }

    /// The value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The value of a gauge (None when absent).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Only the counter entries, for exactness comparisons across thread
    /// counts (durations and gauges are timing-dependent).
    pub fn counters(&self) -> Vec<(&str, u64)> {
        self.entries
            .iter()
            .filter_map(|e| match &e.metric {
                Metric::Counter(c) => Some((e.name, *c)),
                _ => None,
            })
            .collect()
    }

    /// Serializes the snapshot. Schema (`telemetry` object in the
    /// `--stats-json` document):
    ///
    /// ```json
    /// {
    ///   "schema_version": 2,
    ///   "metrics": [
    ///     {"name": "path.paths", "kind": "counter", "value": 42},
    ///     {"name": "driver.threads", "kind": "gauge", "value": 8},
    ///     {"name": "explore.root", "kind": "histogram",
    ///      "count": 1, "total_ns": 1200, "min_ns": 1200, "max_ns": 1200,
    ///      "buckets": [[11, 1]]}
    ///   ],
    ///   "slowest_roots": [
    ///     {"root": "probe", "ns": 1200, "forks": 3, "bytes_copied": 96}
    ///   ]
    /// }
    /// ```
    ///
    /// `buckets` is sparse `[bucket_index, count]` pairs over the fixed
    /// log2 buckets; `slowest_roots` is in table order, slowest first.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema_version\": {TELEMETRY_SCHEMA_VERSION},\n  \"metrics\": ["
        );
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {{\"name\": {}", json::quote(e.name));
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = write!(out, ", \"kind\": \"counter\", \"value\": {c}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, ", \"kind\": \"gauge\", \"value\": {g}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        ", \"kind\": \"histogram\", \"count\": {}, \"total_ns\": {}, \
                         \"min_ns\": {}, \"max_ns\": {}, \"buckets\": [",
                        h.count,
                        h.total_ns,
                        if h.count == 0 { 0 } else { h.min_ns },
                        h.max_ns
                    );
                    for (j, (idx, c)) in h.sparse_buckets().iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{idx}, {c}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("\n  ],\n  \"slowest_roots\": [");
        for (i, r) in self.slowest_roots.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"root\": {}, \"ns\": {}, \"forks\": {}, \"bytes_copied\": {}}}",
                json::quote(&r.root),
                r.ns,
                r.forks,
                r.bytes_copied
            );
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Renders the human `--profile` table: stage wall-clock breakdown,
    /// the slowest roots, cache hit rates, and solver traffic.
    pub fn render_profile(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("telemetry was disabled; nothing to profile\n");
            return out;
        }

        // Stage breakdown, in pipeline order. A one-shot run over a
        // compiled module records no store, tree check, parse, lower or
        // fingerprint time, and a request served from the store's records
        // no parse, lower, collect, fingerprint or explore time; their rows
        // then read zero.
        let stages = [
            ("store load", "driver.serve.store_load"),
            ("tree check", "driver.serve.tree_check"),
            ("parse", "driver.serve.parse"),
            ("lower", "driver.serve.lower"),
            ("collect", "stage.collect"),
            ("fingerprint", "driver.serve.fingerprint"),
            ("explore", "stage.explore"),
            ("filter", "stage.filter"),
            ("store save", "driver.serve.store_save"),
        ];
        let total_ns: u64 = stages
            .iter()
            .filter_map(|(_, m)| self.histogram(m))
            .map(|h| h.total_ns)
            .sum();
        out.push_str("stage breakdown\n");
        for (label, metric) in stages {
            let ns = self.histogram(metric).map_or(0, |h| h.total_ns);
            let pct = if total_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / total_ns as f64
            };
            let _ = writeln!(out, "  {label:<11} {:>12}  {pct:5.1}%", fmt_ns(ns));
        }

        // Slowest roots.
        if !self.slowest_roots.is_empty() {
            let _ = writeln!(
                out,
                "top {} slowest roots ({:<28} {:>12} {:>8} {:>10})",
                self.slowest_roots.len(),
                "root",
                "time",
                "forks",
                "copied"
            );
            for r in &self.slowest_roots {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>12} {:>8} {:>10}",
                    r.root,
                    fmt_ns(r.ns),
                    r.forks,
                    fmt_bytes(r.bytes_copied)
                );
            }
        }

        // Cache hit rates.
        let hits = self.counter("validate.cache_hit");
        let misses = self.counter("validate.cache_miss");
        if hits + misses > 0 {
            let _ = writeln!(
                out,
                "validation cache: {hits} hits / {misses} misses ({:.1}% hit rate)",
                100.0 * hits as f64 / (hits + misses) as f64
            );
        }

        // Solver traffic.
        let solves = self.counter("smt.solve_calls");
        if solves > 0 {
            let _ = writeln!(
                out,
                "smt: {solves} solve calls, {} propagation steps",
                self.counter("smt.propagations")
            );
        }

        // Volume summary.
        let _ = writeln!(
            out,
            "volume: {} paths, {} insts, {} alias ops, {} typestate transitions, \
             {} constraints",
            self.counter("path.paths"),
            self.counter("path.insts"),
            ALIAS_OP_NAMES
                .iter()
                .map(|name| self.counter(name))
                .sum::<u64>(),
            self.counter("typestate.transitions"),
            self.counter("constraints.emitted")
        );
        // Branch-fork costs (copy-on-write path state).
        let forks = self.counter("driver.explore.fork.forks");
        if forks > 0 {
            let _ = writeln!(
                out,
                "forks: {forks} state forks, {} copied / {} shared, \
                 journal depth max {}, live state max {}",
                fmt_bytes(self.counter("driver.explore.fork.bytes_copied")),
                fmt_bytes(self.counter("driver.explore.fork.bytes_shared")),
                self.gauge("driver.explore.fork.journal_depth.max")
                    .unwrap_or(0),
                fmt_bytes(
                    self.gauge("driver.explore.fork.live_bytes.max")
                        .unwrap_or(0) as u64
                )
            );
        }
        if let Some(threads) = self.gauge("driver.threads") {
            let _ = writeln!(out, "driver: {threads} threads");
        }
        // Fault containment — shown only when the recovery ladder actually
        // intervened, so fault-free profiles are unchanged.
        let quarantined = self.counter("driver.recover.quarantined");
        let demoted = self.counter("driver.recover.demoted");
        let deadline_hits = self.counter("driver.recover.deadline_hits");
        let live_bytes_hits = self.counter("driver.recover.live_bytes_hits");
        if quarantined + demoted + deadline_hits + live_bytes_hits > 0 {
            let _ = writeln!(
                out,
                "recover: {quarantined} quarantined, {demoted} demoted, \
                 {deadline_hits} deadline trips, {live_bytes_hits} live-bytes trips"
            );
        }
        out
    }
}

/// Formats a byte count human-readably (B/KiB/MiB/GiB).
fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Formats nanoseconds human-readably (ns/µs/ms/s).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::default();
        a.record(5);
        a.record(100);
        let mut b = Histogram::default();
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 112);
        assert_eq!(a.min_ns, 5);
        assert_eq!(a.max_ns, 100);
        assert_eq!(a.mean_ns(), 37);
    }

    #[test]
    fn sink_counter_and_gauge_merge() {
        let mut a = TelemetrySink::new();
        a.add("x", 2);
        a.gauge_max("g", 3);
        let mut b = TelemetrySink::new();
        b.add("x", 5);
        b.gauge_max("g", 1);
        b.add("alias.op.move", 4);
        a.merge(b);
        let tel = Telemetry::new(true);
        tel.merge(a);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("x"), 7);
        assert_eq!(snap.gauge("g"), Some(3));
        assert_eq!(snap.counter("alias.op.move"), 4);
    }

    #[test]
    fn disabled_span_never_records() {
        let span = Span::start(false, "stage.collect");
        assert!(!span.is_live());
        let mut sink = TelemetrySink::new();
        span.finish(&mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn enabled_span_records_histogram() {
        let span = Span::start(true, "stage.collect");
        let mut sink = TelemetrySink::new();
        span.finish(&mut sink);
        let tel = Telemetry::new(true);
        tel.merge(sink);
        let h = tel.snapshot();
        assert_eq!(h.histogram("stage.collect").unwrap().count, 1);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let mut sink = TelemetrySink::new();
        sink.add("z.last", 1);
        sink.add("a.first", 1);
        sink.add("m.mid", 1);
        sink.add("m.mid", 1);
        let tel = Telemetry::new(true);
        tel.merge(sink);
        let snap = tel.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
        assert_eq!(snap.counter("m.mid"), 2);
    }

    #[test]
    fn snapshot_json_parses_and_round_trips_counters() {
        let mut sink = TelemetrySink::new();
        sink.add("path.paths", 42);
        sink.gauge_max("driver.threads", 8);
        sink.record_ns("explore.root", 1200);
        sink.record_root("probe", 1200, 3, 96);
        let tel = Telemetry::new(true);
        tel.merge(sink);
        let snap = tel.snapshot();
        let text = snap.to_json();
        let v = crate::json::JsonValue::parse(&text).expect("snapshot JSON must parse");
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(TELEMETRY_SCHEMA_VERSION as u64)
        );
        let metrics = v.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 3);
        let paths = metrics
            .iter()
            .find(|m| m.get("name").unwrap().as_str() == Some("path.paths"))
            .unwrap();
        assert_eq!(paths.get("kind").unwrap().as_str(), Some("counter"));
        assert_eq!(paths.get("value").unwrap().as_u64(), Some(42));
        let hist = metrics
            .iter()
            .find(|m| m.get("kind").unwrap().as_str() == Some("histogram"))
            .unwrap();
        assert!(metrics.iter().all(|m| m.get("label").is_none()));
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("total_ns").unwrap().as_u64(), Some(1200));
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].as_array().unwrap()[0].as_u64(), Some(11));
        let roots = v.get("slowest_roots").unwrap().as_array().unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].get("root").unwrap().as_str(), Some("probe"));
        assert_eq!(roots[0].get("ns").unwrap().as_u64(), Some(1200));
        assert_eq!(roots[0].get("forks").unwrap().as_u64(), Some(3));
        assert_eq!(roots[0].get("bytes_copied").unwrap().as_u64(), Some(96));
    }

    fn table(sink: TelemetrySink) -> Vec<(String, u64)> {
        let tel = Telemetry::new(true);
        tel.merge(sink);
        tel.snapshot()
            .slowest_roots
            .into_iter()
            .map(|r| (r.root, r.ns))
            .collect()
    }

    #[test]
    fn slowest_roots_keep_the_top_ten_once_each() {
        let mut sink = TelemetrySink::new();
        for i in 0..12u64 {
            sink.record_root(&format!("r{i:02}"), 100 + i, 0, 0);
        }
        // A root seen again keeps its slowest exploration only.
        sink.record_root("r11", 50, 0, 0);
        sink.record_root("r10", 500, 0, 0);
        // Ties sort by name; a tie with the last entry does not displace it.
        sink.record_root("a_tie", 105, 0, 0);
        sink.record_root("z_tie", 103, 0, 0);
        let got = table(sink);
        let expect: Vec<(String, u64)> = [
            ("r10", 500),
            ("r11", 111),
            ("r09", 109),
            ("r08", 108),
            ("r07", 107),
            ("r06", 106),
            ("a_tie", 105),
            ("r05", 105),
            ("r04", 104),
            ("r03", 103),
        ]
        .iter()
        .map(|&(n, ns)| (n.to_owned(), ns))
        .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn slowest_roots_merge_to_the_top_ten_of_both() {
        let shard = |range: std::ops::Range<u64>| {
            let mut s = TelemetrySink::new();
            for i in range {
                s.record_root(&format!("r{}", i % 15), i, i, 2 * i);
            }
            s
        };
        let all = shard(0..30);
        let mut a = shard(0..20);
        a.merge(shard(20..30));
        let mut b = shard(20..30);
        b.merge(shard(0..20));
        let merged = table(a);
        assert_eq!(merged, table(all));
        assert_eq!(merged, table(b));
        assert_eq!(merged.len(), SLOWEST_ROOTS);
        assert_eq!(merged[0], ("r14".to_owned(), 29));
    }

    #[test]
    fn profile_render_mentions_stages_and_caches() {
        let mut sink = TelemetrySink::new();
        sink.record_ns("driver.serve.store_load", 3_000);
        sink.record_ns("driver.serve.tree_check", 5_000);
        sink.record_ns("driver.serve.parse", 4_000);
        sink.record_ns("driver.serve.lower", 2_000);
        sink.record_ns("stage.collect", 1_000);
        sink.record_ns("driver.serve.fingerprint", 2_000);
        sink.record_ns("stage.explore", 8_000);
        sink.record_ns("stage.filter", 3_000);
        sink.record_ns("driver.serve.store_save", 2_000);
        sink.record_ns("explore.root", 7_000);
        sink.record_root("slow_fn", 7_000, 4, 2048);
        sink.add("validate.cache_hit", 3);
        sink.add("validate.cache_miss", 1);
        let tel = Telemetry::new(true);
        tel.merge(sink);
        let text = tel.snapshot().render_profile();
        assert!(text.contains("stage breakdown"), "{text}");
        // Each row as its label and share, without the time column.
        let rows: Vec<String> = text
            .lines()
            .skip_while(|l| *l != "stage breakdown")
            .skip(1)
            .take(9)
            .map(|l| {
                let mut cols: Vec<&str> = l.split_whitespace().collect();
                cols.remove(cols.len() - 2);
                cols.join(" ")
            })
            .collect();
        assert_eq!(
            rows,
            [
                "store load 10.0%",
                "tree check 16.7%",
                "parse 13.3%",
                "lower 6.7%",
                "collect 3.3%",
                "fingerprint 6.7%",
                "explore 26.7%",
                "filter 10.0%",
                "store save 6.7%",
            ],
            "{text}"
        );
        assert!(text.contains("top 1 slowest roots"), "{text}");
        assert!(text.contains("slow_fn"), "{text}");
        assert!(text.contains("2.00KiB"), "{text}");
        assert!(text.contains("75.0% hit rate"), "{text}");
    }

    #[test]
    fn profile_recovery_line_gated_on_recover_counters() {
        let tel = Telemetry::new(true);
        let mut sink = TelemetrySink::new();
        sink.record_ns("stage.explore", 1_000);
        tel.merge(sink);
        let quiet = tel.snapshot().render_profile();
        assert!(!quiet.contains("recover:"), "{quiet}");

        let mut sink = TelemetrySink::new();
        sink.add("driver.recover.quarantined", 2);
        sink.add("driver.recover.demoted", 1);
        sink.add("driver.recover.deadline_hits", 3);
        tel.merge(sink);
        let noisy = tel.snapshot().render_profile();
        assert!(
            noisy.contains(
                "recover: 2 quarantined, 1 demoted, 3 deadline trips, 0 live-bytes trips"
            ),
            "{noisy}"
        );
    }

    #[test]
    fn merge_order_does_not_change_counters() {
        let mk = |a: u64, b: u64| {
            let mut s = TelemetrySink::new();
            s.add("x", a);
            s.add("y", b);
            s
        };
        let t1 = Telemetry::new(true);
        t1.merge(mk(1, 10));
        t1.merge(mk(2, 20));
        let t2 = Telemetry::new(true);
        t2.merge(mk(2, 20));
        t2.merge(mk(1, 10));
        assert_eq!(t1.snapshot().counters(), t2.snapshot().counters());
    }
}
