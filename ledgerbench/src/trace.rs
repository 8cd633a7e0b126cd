//! The traced run's span recorder and layer ledger.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; the program itself carries no spans.
//! A traced op records the real op (and the public calls it is made of)
//! and then *replays* each layer's public entry point on the same input.
//! A replay span's parent is the span whose call does that work inside it,
//! so a span's self time — its duration minus its children's — is the
//! share of the op that no replayed layer accounts for. Self times over an
//! op's tree add up to the op's wall time by construction.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: usize,
    pub layer: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<SpanId>,
}

/// In-memory spans and per-op counts; written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    op: usize,
    spans: Vec<Span>,
    counts: Vec<(usize, &'static str, f64)>,
    ops: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            counts: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Starts recording op `op`; later spans and counts belong to it.
    pub fn begin_op(&mut self, op: usize) {
        self.op = op;
        self.ops.push(op);
    }

    /// Traced ops so far.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Self time of span `id` in ms, from the spans recorded so far.
    pub fn self_ms_of(&self, id: SpanId) -> f64 {
        let own = self.spans[id].end - self.spans[id].start;
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        (own.as_nanos() as f64 - children.as_nanos() as f64) / 1e6
    }

    /// Reserves a span whose interval is filled in later, so that replays
    /// timed before it can name it as their parent.
    pub fn reserve(&mut self, layer: &'static str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            op: self.op,
            layer,
            start: Duration::ZERO,
            end: Duration::ZERO,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn fill(&mut self, id: SpanId, start: Instant, end: Instant) {
        self.spans[id].start = start.duration_since(self.epoch);
        self.spans[id].end = end.duration_since(self.epoch);
    }

    /// Records a span of `layer` under `parent` from two instants.
    pub fn span(
        &mut self,
        layer: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve(layer, parent);
        self.fill(id, start, end);
        id
    }

    /// Times `f` as a span of `layer` under `parent`.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(layer, parent, start, Instant::now());
        out
    }

    /// Records a per-layer count for the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((self.op, name, value));
    }

    /// Per layer, the self time (ms) of each traced op, in op order; a
    /// layer absent from an op counts 0 for it.
    pub fn self_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += (s.end - s.start).as_nanos();
            }
        }
        let index: BTreeMap<usize, usize> = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, &op)| (op, i))
            .collect();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end - s.start).as_nanos() as f64 - children as f64;
            out.entry(s.layer)
                .or_insert_with(|| vec![0.0; self.ops.len()])[index[&s.op]] += own / 1e6;
        }
        out
    }

    /// Per count name, its values over the first `n` traced ops.
    pub fn counts(&self, n: usize) -> BTreeMap<&'static str, Vec<f64>> {
        let first: Vec<usize> = self.ops.iter().take(n).copied().collect();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(op, name, v) in &self.counts {
            if first.contains(&op) {
                out.entry(name).or_default().push(v);
            }
        }
        out
    }

    /// Writes one JSON object per span: op, id, layer, start/end (ns since
    /// the run began) and parent id.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"op\": {}, \"id\": {id}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.op,
                s.layer,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
