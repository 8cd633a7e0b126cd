//! A fixed reference workload timed before every op, so that op times can
//! be given at one host speed.
//!
//! On a shared VM the vCPU's speed drifts with what the host's other
//! tenants run, by up to 1.5× over seconds and over minutes (README.md,
//! "Noise"). The reference workload slows with it: it formats, hashes and
//! sorts short strings, the mix of allocation, hashing and branching that
//! most of an op is made of. It is the benchmark's own code, so no change
//! to PATA changes it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The reference workload's time at the reference host speed, in ms.
const REF_MS: f64 = 5.0;

/// Runs the reference workload once and returns its wall time in ms.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut words: Vec<String> = (0..15_000)
        .map(|i| format!("sym_{}_{i}", i * 7919 % 10007))
        .collect();
    let mut counts: HashMap<String, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, w) in words.iter().enumerate() {
        *counts.entry(w.clone()).or_default() += i as u32;
    }
    words.sort();
    black_box((&words, &counts));
    drop((words, counts));
    start.elapsed().as_secs_f64() * 1e3
}

/// `ms`, taken next to a reference run of `reference_ms`, at the
/// reference host speed.
pub fn at_reference(ms: f64, reference_ms: f64) -> f64 {
    ms * REF_MS / reference_ms
}
