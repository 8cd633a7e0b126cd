//! Stage-1 exploration benchmark: the plain DFS on the linux corpus
//! profile, under both path-state representations.
//!
//! The comparison isolates the copy-on-write path-state
//! representation: branch forking through the undo journal (`cow_state`,
//! the default) must deliver at least 2x the live-step throughput of
//! literal clone-based forking (`cow_state(false)`). Both must explore the
//! same paths and produce bit-identical report documents at thread counts
//! 1, 2 and 4.
//!
//! Headline numbers land in `results/BENCH_stage1.json` (section
//! `exploration`): live steps/sec, fork count, peak live-state bytes.
//!
//! A second section, `scale_sweep`, records explore nanoseconds per
//! executed instruction (`--threads 1`) on the linux model at scales 1, 4
//! and 16. Per-root state must cost what the root reaches, not the module
//! size, so the bench fails when the scale-16 figure exceeds 1.5x the
//! scale-1 figure.
//!
//! The `exploration` section also records `explore_allocs_per_inst`:
//! allocator calls per executed instruction of a single-threaded stage-1
//! run, on a deep-path module (one root, ten sequential parameter
//! branches) and on the linux model at scale 0.2. A counting global
//! allocator local to this binary measures them; `tests/explore_allocs.rs`
//! enforces the budget.
//!
//! It records `deep_ns_per_step` too: explore nanoseconds per live step
//! on that deep-path module, best of twenty single-threaded runs, the raw
//! cost of one DFS step. It depends on the machine, so nothing gates on
//! it.
//!
//! `--smoke` runs a reduced single-round configuration for CI; `--scale F`
//! sizes the corpus (default 1.0).

use pata_bench::harness::time_once;
use pata_bench::results;
use pata_core::{AnalysisConfig, AnalysisSession, AnalysisStats, PossibleBug, Report};
use pata_corpus::{Corpus, OsProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates to [`System`], counting the calling thread's `alloc`,
/// `alloc_zeroed` and `realloc` calls while [`COUNTING`] is set.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOC_CALLS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter touches only const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls per executed instruction of one single-threaded
/// stage-1 run over `module` (the worker runs on this thread).
fn explore_allocs_per_inst(module: &pata_ir::Module) -> f64 {
    let session = AnalysisSession::new(config(1, true));
    let module = module.clone();
    ALLOC_CALLS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let (_, _, stats) = session.collect_candidates(module);
    COUNTING.with(|on| on.set(false));
    ALLOC_CALLS.with(Cell::get) as f64 / stats.insts_processed.max(1) as f64
}

/// The `deep_paths` shape: one root whose ten sequential parameter
/// branches each update `acc` (1,024 constraint-distinct paths), after a
/// helper call and field loads.
fn deep_module() -> pata_ir::Module {
    let params: Vec<String> = (0..10).map(|b| format!("int a{b}")).collect();
    let mut src = String::from(
        "struct dev { int *res; int mode; };\n\
         static int clamp(int v) { if (v > 8) { v = 8; } return v; }\n",
    );
    src.push_str(&format!(
        "int deep_probe(struct dev *d, int lim, {}) {{\n",
        params.join(", ")
    ));
    src.push_str("    int acc = 0;\n    int w = 0;\n");
    src.push_str("    if (d->mode > 0) { w = clamp(lim); } else { w = clamp(lim); }\n");
    for b in 0..10 {
        src.push_str(&format!(
            "    if (a{b} > {}) {{ acc = acc + {}; }} else {{ acc = acc - 1; }}\n",
            10 * b + 5,
            b + 1
        ));
    }
    src.push_str("    if (d->res == NULL) { acc = 0; }\n    return *d->res + acc + w;\n}\n");
    pata_cc::compile_one("deep.c", &src).expect("deep module compiles")
}

fn config(threads: usize, cow: bool) -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(threads)
        .cow_state(cow)
        .build()
        .expect("valid bench config")
}

/// Stage-1 only (the timed region): path exploration without validation.
fn explore(module: &pata_ir::Module, cow: bool) -> (Vec<PossibleBug>, AnalysisStats) {
    let pata = AnalysisSession::new(config(1, cow));
    let (_, candidates, stats) = pata.collect_candidates(module.clone());
    (candidates, stats)
}

/// Full pipeline: the versioned report document, for bit-identity checks.
fn full_report(module: &pata_ir::Module, threads: usize, cow: bool) -> String {
    let outcome = AnalysisSession::new(config(threads, cow)).analyze_module(module.clone());
    Report::new(outcome.reports)
        .with_budget_notes(outcome.budget_notes)
        .to_json()
}

/// One copy-on-write stage-1 run with telemetry on, for the fork counters.
fn fork_telemetry(module: &pata_ir::Module) -> (u64, u64, i64) {
    let session = AnalysisSession::new(
        AnalysisConfig::builder()
            .threads(1)
            .telemetry(true)
            .build()
            .expect("valid bench config"),
    );
    let _ = session.collect_candidates(module.clone());
    let snap = session.telemetry().snapshot();
    (
        snap.counter("driver.explore.fork.forks"),
        snap.counter("driver.explore.fork.bytes_copied"),
        snap.gauge("driver.explore.fork.live_bytes.max")
            .unwrap_or(0),
    )
}

/// Scales of the per-instruction sweep, smallest first.
const SWEEP_SCALES: [f64; 3] = [1.0, 4.0, 16.0];

/// Largest allowed scale-16 / scale-1 explore ns per instruction.
const SWEEP_MAX_RATIO: f64 = 1.5;

/// Explore-stage nanoseconds per executed instruction (live step) for one
/// single-threaded stage-1 run, from the `stage.explore` telemetry span.
fn explore_ns_per_inst(module: &pata_ir::Module) -> f64 {
    let session = AnalysisSession::new(
        AnalysisConfig::builder()
            .threads(1)
            .telemetry(true)
            .build()
            .expect("valid bench config"),
    );
    let (_, _, stats) = session.collect_candidates(module.clone());
    let snap = session.telemetry().snapshot();
    let explore_ns = snap.histogram("stage.explore").map_or(0, |h| h.total_ns);
    explore_ns as f64 / stats.insts_processed.max(1) as f64
}

/// The `scale_sweep` section: best-of-`rounds` explore ns per executed
/// instruction at each of [`SWEEP_SCALES`], and the scale-16/scale-1
/// ratio. Exits 1 above [`SWEEP_MAX_RATIO`].
///
/// The rounds interleave: round `r` measures every scale before round
/// `r + 1` starts, so a slow phase of the host lands on all scales alike
/// instead of on the one measured during it.
fn scale_sweep(rounds: usize) {
    println!();
    println!("explore ns per executed instruction (--threads 1, linux model)");
    let modules: Vec<pata_ir::Module> = SWEEP_SCALES
        .iter()
        .map(|&scale| {
            let corpus = Corpus::generate(&OsProfile::linux().with_scale(scale));
            corpus.compile().expect("corpus compiles")
        })
        .collect();
    let mut ns_per_inst = vec![f64::INFINITY; SWEEP_SCALES.len()];
    for _ in 0..rounds {
        for (best, module) in ns_per_inst.iter_mut().zip(&modules) {
            *best = best.min(explore_ns_per_inst(module));
        }
    }
    for (scale, best) in SWEEP_SCALES.iter().zip(&ns_per_inst) {
        println!("  scale {scale:>4}: {best:>8.1} ns/inst");
    }
    let ratio = ns_per_inst[2] / ns_per_inst[0].max(1e-9);
    let list = |v: Vec<String>| format!("[{}]", v.join(", "));
    let section = results::object(&[
        (
            "scales",
            list(SWEEP_SCALES.iter().map(|s| format!("{s}")).collect()),
        ),
        (
            "explore_ns_per_inst",
            list(ns_per_inst.iter().map(|n| format!("{n:.1}")).collect()),
        ),
        ("ratio_16_1", format!("{ratio:.3}")),
    ]);
    results::write_section("scale_sweep", &section).expect("write results/BENCH_stage1.json");
    if ratio <= SWEEP_MAX_RATIO {
        println!(
            "PASS: scale-16 explore costs {ratio:.2}x scale-1 per instruction \
             (target ≤{SWEEP_MAX_RATIO}x)"
        );
    } else {
        println!(
            "FAIL: scale-16 explore costs {ratio:.2}x scale-1 per instruction \
             (target ≤{SWEEP_MAX_RATIO}x)"
        );
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale: f64 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 0.2 } else { 1.0 });
    let rounds = if smoke { 1 } else { 5 };
    println!(
        "Stage-1 exploration benchmark (linux profile, scale {scale}{})",
        if smoke { ", smoke mode" } else { "" }
    );

    let corpus = Corpus::generate(&OsProfile::linux().with_scale(scale));
    let module = corpus.compile().expect("corpus compiles");

    // Timed: best of `rounds` for each fork representation.
    let mut cow_s = f64::INFINITY;
    let mut clone_s = f64::INFINITY;
    let (base_candidates, base_stats) = explore(&module, true);
    for _ in 0..rounds {
        let ((candidates, _), t) = time_once(|| explore(&module, true));
        assert_eq!(
            format!("{candidates:?}"),
            format!("{base_candidates:?}"),
            "copy-on-write runs must be deterministic"
        );
        cow_s = cow_s.min(t);

        // Clone-based forking: the same exploration, the same steps, only
        // the state representation differs — the timing gap is pure fork
        // cost.
        let ((candidates, stats), t) = time_once(|| explore(&module, false));
        assert_eq!(
            format!("{candidates:?}"),
            format!("{base_candidates:?}"),
            "clone-based forking must not change the candidate stream"
        );
        assert_eq!(
            stats.insts_processed, base_stats.insts_processed,
            "fork representation must not change the step count"
        );
        clone_s = clone_s.min(t);
    }

    // Bit-identical bug reports: copy-on-write vs clone-based forking at
    // threads 1, 2 and 4.
    let reference = full_report(&module, 1, true);
    for threads in [1, 2, 4] {
        for cow in [true, false] {
            let report = full_report(&module, threads, cow);
            assert_eq!(
                report, reference,
                "report must be byte-identical (threads {threads}, cow_state {cow})"
            );
        }
    }

    let steps = base_stats.insts_processed;
    // Same steps in both fork modes, so the throughput ratio is the
    // inverse time ratio.
    let cow_speedup = clone_s / cow_s.max(1e-9);
    let steps_per_sec = steps as f64 / cow_s.max(1e-9);
    let (forks, fork_bytes_copied, peak_live_bytes) = fork_telemetry(&module);
    let deep = deep_module();
    let allocs_deep = explore_allocs_per_inst(&deep);
    let deep_ns_per_step = (0..20)
        .map(|_| explore_ns_per_inst(&deep))
        .fold(f64::INFINITY, f64::min);
    let linux_02 = Corpus::generate(&OsProfile::linux().with_scale(0.2))
        .compile()
        .expect("corpus compiles");
    let allocs_linux = explore_allocs_per_inst(&linux_02);

    println!();
    println!("{:<28} {:>10} {:>14}", "configuration", "seconds", "steps");
    println!("{}", "-".repeat(54));
    println!(
        "{:<28} {:>10.4} {:>14}",
        "copy-on-write (default)", cow_s, steps
    );
    println!("{:<28} {:>10.4} {:>14}", "clone forks", clone_s, steps);
    println!();
    println!(
        "forks: {forks}  bytes copied at forks: {fork_bytes_copied}  \
         peak live state: {peak_live_bytes} bytes"
    );
    println!("reports: bit-identical across cow on/off at threads 1/2/4");
    println!(
        "explore allocator calls per instruction: deep paths {allocs_deep:.4}, \
         linux 0.2 {allocs_linux:.4}"
    );
    println!("explore ns per live step on the deep-path module: {deep_ns_per_step:.1}");
    println!(
        "cow live-step throughput: {:.2e} steps/s, {cow_speedup:.1}x clone-based forking",
        steps_per_sec
    );

    let section = results::object(&[
        ("scale", format!("{scale}")),
        ("steps_per_sec", format!("{steps_per_sec:.1}")),
        ("deep_ns_per_step", format!("{deep_ns_per_step:.1}")),
        ("live_steps", format!("{steps}")),
        ("forks", format!("{forks}")),
        ("fork_bytes_copied", format!("{fork_bytes_copied}")),
        ("peak_live_bytes", format!("{peak_live_bytes}")),
        ("cow_seconds", format!("{cow_s:.6}")),
        ("clone_seconds", format!("{clone_s:.6}")),
        ("cow_speedup", format!("{cow_speedup:.3}")),
        (
            "explore_allocs_per_inst",
            results::object(&[
                ("deep", format!("{allocs_deep:.4}")),
                ("linux_0.2", format!("{allocs_linux:.4}")),
            ]),
        ),
    ]);
    results::write_section("exploration", &section).expect("write results/BENCH_stage1.json");
    println!(
        "results: exploration section written to {}",
        results::bench_stage1_path().display()
    );

    println!();
    if cow_speedup >= 2.0 {
        println!(
            "PASS: copy-on-write forking delivers {cow_speedup:.1}x the live-step throughput \
             of clone-based forking (target ≥2x)"
        );
    } else {
        println!(
            "FAIL: copy-on-write forking delivers {cow_speedup:.1}x the live-step throughput \
             of clone-based forking (target ≥2x)"
        );
        std::process::exit(1);
    }

    scale_sweep(rounds.max(3));
}
