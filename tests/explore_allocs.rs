//! Allocation budget of stage-1 exploration.
//!
//! Exploration keeps its path state in buffers that are reused from step
//! to step and from root to root (DESIGN.md "Stage-1 allocation
//! discipline"), so the allocator is called only to record candidates and
//! to grow buffers the first time. A counting global allocator checks
//! that: it counts `alloc`/`realloc` calls made by the test's own thread
//! while a run is measured, and the test divides by the instructions the
//! explorer executed.
//!
//! Run alone with `cargo test --test explore_allocs`.

use pata::core::{AnalysisConfig, AnalysisSession};
use pata::corpus::{Corpus, OsProfile};
use pata::ir::Module;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates to [`System`] and counts the calling thread's allocations
/// while [`measure`] has counting switched on for it.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    /// `alloc` + `alloc_zeroed` + `realloc` calls while on.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed while on.
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(calls: u64, bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ON.try_with(|on| {
        if on.get() {
            CALLS.with(|c| c.set(c.get() + calls));
            NET_BYTES.with(|b| b.set(b.get() + bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with counting on; returns its value, the allocator calls and
/// the net bytes it left allocated.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    CALLS.with(|c| c.set(0));
    NET_BYTES.with(|b| b.set(0));
    ON.with(|on| on.set(true));
    let value = f();
    ON.with(|on| on.set(false));
    (value, CALLS.with(Cell::get), NET_BYTES.with(Cell::get))
}

fn session() -> AnalysisSession {
    AnalysisSession::new(AnalysisConfig::builder().threads(1).build().unwrap())
}

/// Allocator calls per executed instruction of one single-threaded
/// stage-1 run over `module`.
fn calls_per_inst(module: Module) -> (f64, u64, u64) {
    let session = session();
    let ((_, _, stats), calls, _) = measure(|| session.collect_candidates(module));
    let insts = stats.insts_processed;
    assert!(insts > 0);
    let per_inst = calls as f64 / insts as f64;
    println!("{calls} allocator calls / {insts} instructions = {per_inst:.4}");
    (per_inst, calls, insts)
}

/// The `deep_paths` shape: one root whose ten sequential parameter
/// branches each update `acc` (1,024 constraint-distinct paths), after a
/// helper call and field loads.
fn deep_module() -> Module {
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
    pata::cc::compile_one("deep.c", &src).expect("deep module compiles")
}

fn linux_module(scale: f64) -> Module {
    Corpus::generate(&OsProfile::linux().with_scale(scale))
        .compile()
        .expect("corpus compiles")
}

#[test]
fn deep_paths_explore_allocates_almost_nothing_per_instruction() {
    let (per_inst, calls, insts) = calls_per_inst(deep_module());
    assert!(insts > 20_000, "the deep root runs many paths: {insts}");
    assert!(
        per_inst <= 0.02,
        "{calls} allocator calls for {insts} instructions = {per_inst:.4} per instruction (budget 0.02)"
    );
}

#[test]
fn linux_model_explore_allocates_almost_nothing_per_instruction() {
    let (per_inst, calls, insts) = calls_per_inst(linux_module(0.2));
    assert!(
        per_inst <= 0.1,
        "{calls} allocator calls for {insts} instructions = {per_inst:.4} per instruction (budget 0.1)"
    );
}

/// The exploration buffers live only as long as the run: once its outputs
/// are dropped, a run leaves no heap allocated behind on its thread. (The
/// module is passed through and kept out of the count: it was allocated
/// before the run.)
#[test]
fn exploration_retains_nothing_after_the_run() {
    let session = session();
    let mut module = linux_module(0.2);
    // The first run marks the module's interfaces; the measured second
    // run finds them marked and changes nothing in it.
    (module, _, _) = session.collect_candidates(module);
    let (kept, _, net) = measure(|| {
        let (module, candidates, stats) = session.collect_candidates(module);
        assert!(stats.insts_processed > 0 && !candidates.is_empty());
        drop(candidates);
        module
    });
    drop(kept);
    assert_eq!(net, 0, "bytes left allocated by a finished run");
}
