//! PATA's benchmark: four seeded workloads run in-process through the
//! public API, every op's output checked, end-to-end metrics printed by
//! name with their unit; `--trace 1` prints the per-layer ledger instead.
//!
//! ```text
//! cargo run --release --manifest-path ledgerbench/Cargo.toml -- \
//!     --workload cold_scan --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for the
//! workloads and the layer → metric → workload map.

mod hostspeed;
mod inputs;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::PER_KIND;

/// Set-up samples, taken one after another before the op loop. Only one
/// sampled workload is alive at a time, and the last one runs the ops.
/// `setup_s` is the median sample.
const SETUP_SAMPLES: usize = 9;
/// One set-up sample repeats a cheap set-up until this much time has
/// passed, and keeps the mean.
const SETUP_MIN: Duration = Duration::from_millis(5);
/// Ops run before timing starts, and discarded.
const WARMUP_OPS: usize = 2;
/// Timed ops an untraced run needs at least: ten of them lie beyond p90.
const MIN_SAMPLES: usize = 100;
/// Traced (and untraced) ops a traced run needs at least; the counts of
/// the ledger come from the first `COUNT_OPS` traced ops, so they repeat
/// exactly from run to run.
const COUNT_OPS: usize = 15;
/// The op loop stops here even when it has too few samples, so that the
/// run ends within its time limit.
const LOOP_CAP: Duration = Duration::from_secs(120);

/// Per-layer time metrics: (metric, span layer whose self time it is).
const LAYER_TIMES: &[(&str, &str)] = &[
    ("cc.lex_ms", "cc.lex"),
    ("cc.parse_ms", "cc.parse"),
    ("cc.lower_ms", "cc.compile"),
    ("collect.ms", "collect"),
    ("session.residual_ms", "session.analyze"),
    ("store.load_ms", "store.load"),
    ("store.save_ms", "store.save"),
    ("explore.ms", "explore"),
    ("filter.ms", "filter"),
    ("report.render_ms", "report.render"),
    ("serve.parse_ms", "serve.parse"),
];

/// Per-layer counts and their units.
const LAYER_COUNTS: &[(&str, &str)] = &[
    ("cc.tokens", "count"),
    ("cc.ir_insts", "count"),
    ("collect.roots", "count"),
    ("collect.call_edges", "count"),
    ("session.changed_functions", "count"),
    ("session.dirty_roots", "count"),
    ("session.dirty_ratio", "ratio"),
    ("store.bytes", "bytes"),
    ("explore.live_steps", "count"),
    ("explore.paths", "count"),
    ("explore.subsumption_hits", "count"),
    ("explore.memo_hits", "count"),
    ("explore.candidates", "count"),
    ("explore.budget_exhausted_roots", "count"),
    ("filter.groups", "count"),
    ("filter.false_dropped", "count"),
    ("filter.reported", "count"),
    ("validate.cache_hits", "count"),
    ("validate.cache_misses", "count"),
    ("validate.scope_reuse", "count"),
    ("report.bytes", "bytes"),
    ("serve.frame_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {:?})",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The `q` quantile of `values` (linear interpolation between ranks).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per timed op: its wall time at the reference host speed and as
/// measured, and the wall time of its whole turn of the loop (the op, its
/// checks and, when traced, its replays).
#[derive(Default)]
struct Samples {
    at_ref: Vec<f64>,
    wall: Vec<f64>,
    turn: Vec<f64>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            eprintln!(
                "usage: ledgerbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).expect("create the run directory");

    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_SAMPLES {
        drop(workload.take());
        let reference = hostspeed::reference_ms();
        let start = Instant::now();
        let mut n = 0;
        let w = loop {
            let w = workloads::setup(&args.workload, args.seed, &run_dir);
            n += 1;
            if start.elapsed() >= SETUP_MIN {
                break w;
            }
        };
        let secs = start.elapsed().as_secs_f64() / f64::from(n);
        setups.push(hostspeed::at_reference(secs, reference));
        workload = Some(w);
    }
    let mut workload = workload.expect("SETUP_SAMPLES is not 0");
    workload.prepare(args.trace);

    let mut tracer = args.trace.then(Tracer::new);
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    for i in 0.. {
        let elapsed = start.elapsed();
        let enough = match &tracer {
            None => untraced.wall.len() >= MIN_SAMPLES,
            Some(_) => traced.wall.len() >= COUNT_OPS && untraced.wall.len() >= COUNT_OPS,
        };
        if (elapsed >= seconds && enough) || elapsed >= LOOP_CAP {
            break;
        }
        let trace_this = i >= WARMUP_OPS && (i - WARMUP_OPS) % 2 == 1;
        let mut tr = tracer.as_mut().filter(|_| trace_this);
        if let Some(tr) = tr.as_deref_mut() {
            tr.begin_op(i);
        }
        let samples = if tr.is_some() {
            &mut traced
        } else {
            &mut untraced
        };
        let reference = hostspeed::reference_ms();
        let turn = Instant::now();
        let op = workload.op(i, tr);
        let turn = turn.elapsed();
        attempted += 1;
        if let Some(e) = &op.error {
            failed += 1;
            eprintln!("op {i}: {e}");
        }
        if i >= WARMUP_OPS {
            samples
                .at_ref
                .push(hostspeed::at_reference(ms(op.wall), reference));
            samples.wall.push(ms(op.wall));
            samples.turn.push(ms(turn));
        }
    }
    // Read before the end-of-run checks: their reference analyses are no
    // part of the workload.
    let peak_rss = peak_rss_mb();
    for (ops, e) in workload.finish() {
        failed += ops;
        eprintln!("end of run: {e}");
    }
    // An op that fails its own check and an end-of-run one counts once.
    let failed = failed.min(attempted);
    drop(workload);
    let _ = std::fs::remove_dir_all(&run_dir);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    match &tracer {
        None => {
            metrics.push(("op_ms_p50".into(), quantile(&untraced.at_ref, 0.5), "ms"));
            metrics.push(("op_ms_p90".into(), quantile(&untraced.at_ref, 0.9), "ms"));
            metrics.push(("setup_s".into(), quantile(&setups, 0.5), "s"));
            metrics.push(("peak_rss_mb".into(), peak_rss, "MiB"));
        }
        Some(tr) => {
            let self_ms = tr.self_ms();
            for (metric, layer) in LAYER_TIMES {
                let values = self_ms.get(layer).map_or(&[][..], Vec::as_slice);
                metrics.push((metric.to_string(), quantile(values, 0.5), "ms"));
            }
            let counts = tr.counts(COUNT_OPS);
            let per_kind = PER_KIND.iter().flatten().map(|name| {
                let unit = if name.ends_with("_ms") {
                    "ms"
                } else if name.ends_with("ratio") {
                    "ratio"
                } else {
                    "count"
                };
                (*name, unit)
            });
            for (name, unit) in LAYER_COUNTS.iter().copied().chain(per_kind) {
                let values = counts.get(name).map_or(&[][..], Vec::as_slice);
                metrics.push((name.to_string(), quantile(values, 0.5), unit));
            }
            // What tracing costs a run: a traced op's whole turn of the loop
            // against an untraced op's turn in the same run.
            let overhead =
                (quantile(&traced.turn, 0.5) / quantile(&untraced.turn, 0.5) - 1.0) * 100.0;
            metrics.push(("trace.overhead_pct".into(), overhead, "%"));
            let path = PathBuf::from(".bench_run")
                .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            if let Err(e) = tr.write_jsonl(&path) {
                eprintln!("could not write {}: {e}", path.display());
            } else {
                eprintln!(
                    "spans of {} traced ops written to {}",
                    tr.op_count(),
                    path.display()
                );
            }
        }
    }

    let samples = untraced.wall.len() + traced.wall.len();
    eprintln!(
        "{}: seed {}, {samples} timed ops ({} traced), {attempted} attempted, {failed} failed",
        args.workload,
        args.seed,
        traced.wall.len()
    );
    // Wall time as measured is shown for a human reader only: it drifts
    // with the host's speed (see README.md).
    for (name, q) in [
        ("wall p50 of untraced ops", 0.5),
        ("wall p90 of untraced ops", 0.9),
    ] {
        eprintln!("  {name:<34} {:>14.4} ms", quantile(&untraced.wall, q));
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
