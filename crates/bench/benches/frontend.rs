//! Front-end benchmark: lex, parse and lower (`pata-cc`) timed separately
//! over the linux model at `--scale` 0.2, 1 and 4.
//!
//! Lexing and parsing are nested public entry points: `Lexer::lex` and
//! `Parser::parse_source` (lex + parse). Lowering is timed alone:
//! `lower_units` over units parsed before the timer starts and dropped
//! after it stops, with the module it returns dropped after it stops too.
//! A round times each layer once, back to back, at every scale in turn,
//! so a slow phase of the host hits every scale; the parse layer's time
//! in that round is `parse_source`'s minus `Lexer::lex`'s, and the
//! reported time is the median over the rounds. The parser pulls tokens
//! from the lexer without collecting them, so the parse layer is
//! `parse_source` minus a collecting `Lexer::lex`: the token vector's
//! cost is charged to lexing.
//!
//! Times depend on the machine and are only reported. The gate is on what
//! does not: at every pinned scale the token count, the module's
//! instruction count and the FNV-1a-64 hash of the printed module must
//! equal the values recorded before the front end stopped copying tokens
//! and ASTs. A faster front end must compile the same module.
//!
//! Headline numbers land in `results/BENCH_stage1.json` (section
//! `frontend`): per-layer milliseconds, tokens, IR instructions,
//! nanoseconds per token and lowering nanoseconds per IR instruction at
//! each scale, and `lower_ratio_4_02`, the last at scale 4 over scale 0.2
//! (lowering should cost the same per instruction at every scale).
//!
//! `--smoke` takes fewer rounds for CI; `--scale F` times one scale only.

use pata_bench::harness::time_once;
use pata_bench::results;
use pata_cc::{lower_units, Compiler, Lexer, Parser, Unit};
use pata_corpus::{Corpus, OsProfile};
use pata_ir::{print_module, Module};
use std::hint::black_box;

/// `(scale, tokens, IR instructions, printed-module hash)` of the linux
/// model at its profile seed.
const PINNED: &[(f64, usize, usize, u64)] = &[
    (0.2, 34_040, 7_766, 0x1143_1e3d_715c_58dd),
    (1.0, 171_073, 38_946, 0x99ae_85f1_85d3_52ee),
    (4.0, 683_961, 155_343, 0x5e59_7a31_f71e_7e07),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One scale's measurements.
struct Row {
    scale: f64,
    lex_ms: f64,
    parse_ms: f64,
    lower_ms: f64,
    tokens: usize,
    ir_insts: usize,
    hash: u64,
}

impl Row {
    fn ns_per_token(&self) -> f64 {
        (self.lex_ms + self.parse_ms + self.lower_ms) * 1e6 / self.tokens as f64
    }

    fn lower_ns_per_inst(&self) -> f64 {
        self.lower_ms * 1e6 / self.ir_insts as f64
    }
}

fn lex_all(corpus: &Corpus) -> usize {
    corpus
        .files
        .iter()
        .map(|f| Lexer::new(&f.path, &f.text).lex().expect("lexes").len())
        .sum()
}

fn parse_all(corpus: &Corpus) {
    for f in &corpus.files {
        black_box(Parser::parse_source(&f.path, &f.text).expect("parses"));
    }
}

fn parsed_units(corpus: &Corpus) -> Vec<Unit> {
    corpus
        .files
        .iter()
        .map(|f| Parser::parse_source(&f.path, &f.text).expect("parses"))
        .collect()
}

fn lower_all(units: &[Unit]) -> Module {
    let units: Vec<_> = units.iter().map(|u| (u, None)).collect();
    lower_units(&units).expect("lowers")
}

fn compile_all(corpus: &Corpus) -> Module {
    let mut cc = Compiler::new();
    for f in &corpus.files {
        cc.add_source(&f.path, &f.text);
    }
    cc.compile().expect("compiles")
}

/// Milliseconds one run of `f` takes.
fn ms<R>(f: impl FnOnce() -> R) -> f64 {
    let (r, s) = time_once(f);
    black_box(r);
    s * 1e3
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One scale's corpus, its machine-independent values and its samples.
struct Scale {
    scale: f64,
    corpus: Corpus,
    tokens: usize,
    ir_insts: usize,
    hash: u64,
    lex: Vec<f64>,
    parse: Vec<f64>,
    lower: Vec<f64>,
}

impl Scale {
    fn new(scale: f64) -> Scale {
        let corpus = Corpus::generate(&OsProfile::linux().with_scale(scale));
        let tokens = lex_all(&corpus);
        let module = compile_all(&corpus);
        let ir_insts = module.functions().iter().map(|f| f.inst_count()).sum();
        let hash = fnv1a64(print_module(&module).as_bytes());
        Scale {
            scale,
            corpus,
            tokens,
            ir_insts,
            hash,
            lex: Vec::new(),
            parse: Vec::new(),
            lower: Vec::new(),
        }
    }

    /// Times one round of the three layers.
    fn sample(&mut self) {
        let lexed = ms(|| lex_all(&self.corpus));
        let parsed = ms(|| parse_all(&self.corpus));
        let units = parsed_units(&self.corpus);
        let lowered = ms(|| lower_all(&units));
        drop(units);
        self.lex.push(lexed);
        self.parse.push((parsed - lexed).max(0.0));
        self.lower.push(lowered);
    }

    fn row(self) -> Row {
        Row {
            scale: self.scale,
            lex_ms: median(self.lex),
            parse_ms: median(self.parse),
            lower_ms: median(self.lower),
            tokens: self.tokens,
            ir_insts: self.ir_insts,
            hash: self.hash,
        }
    }
}

/// Samples every scale once per round, round by round.
fn measure(scales: &[f64], rounds: usize) -> Vec<Row> {
    let mut scales: Vec<Scale> = scales.iter().map(|&s| Scale::new(s)).collect();
    for _ in 0..rounds {
        for s in &mut scales {
            s.sample();
        }
    }
    scales.into_iter().map(Scale::row).collect()
}

fn list<T>(rows: &[Row], f: impl Fn(&Row) -> T) -> String
where
    T: std::fmt::Display,
{
    let items: Vec<String> = rows.iter().map(|r| f(r).to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scales: Vec<f64> = match args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
    {
        Some(s) => vec![s.parse().expect("--scale takes a number")],
        None => PINNED.iter().map(|p| p.0).collect(),
    };
    let rounds = if smoke { 5 } else { 21 };
    println!(
        "Front-end benchmark (linux profile, median of {rounds} rounds{})",
        if smoke { ", smoke mode" } else { "" }
    );

    let rows = measure(&scales, rounds);

    println!();
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>9}  module hash",
        "scale", "lex ms", "parse ms", "lower ms", "tokens", "IR insts", "ns/tok", "lower/ins"
    );
    println!("{}", "-".repeat(94));
    for r in &rows {
        println!(
            "{:>6} {:>9.2} {:>9.2} {:>9.2} {:>9} {:>9} {:>8.1} {:>9.1}  {:#018x}",
            r.scale,
            r.lex_ms,
            r.parse_ms,
            r.lower_ms,
            r.tokens,
            r.ir_insts,
            r.ns_per_token(),
            r.lower_ns_per_inst(),
            r.hash
        );
    }
    // Lowering's cost per instruction at the largest scale over the
    // smallest; recorded only when both were measured.
    let per_inst = |scale: f64| {
        rows.iter()
            .find(|r| r.scale == scale)
            .map(Row::lower_ns_per_inst)
    };
    let lower_ratio = per_inst(4.0)
        .zip(per_inst(0.2))
        .map(|(large, small)| large / small);
    if let Some(ratio) = lower_ratio {
        println!("lower ns/inst, scale 4 over scale 0.2: {ratio:.2}x");
    }

    let section = results::object(&[
        ("scales", list(&rows, |r| r.scale)),
        ("lex_ms", list(&rows, |r| format!("{:.3}", r.lex_ms))),
        ("parse_ms", list(&rows, |r| format!("{:.3}", r.parse_ms))),
        ("lower_ms", list(&rows, |r| format!("{:.3}", r.lower_ms))),
        ("tokens", list(&rows, |r| r.tokens)),
        ("ir_insts", list(&rows, |r| r.ir_insts)),
        (
            "ns_per_token",
            list(&rows, |r| format!("{:.1}", r.ns_per_token())),
        ),
        (
            "lower_ns_per_inst",
            list(&rows, |r| format!("{:.1}", r.lower_ns_per_inst())),
        ),
        (
            "lower_ratio_4_02",
            lower_ratio.map_or("null".to_owned(), |r| format!("{r:.3}")),
        ),
        (
            "module_hash",
            list(&rows, |r| {
                pata_core::json::quote(&format!("{:#018x}", r.hash))
            }),
        ),
    ]);
    results::write_section("frontend", &section).expect("write results/BENCH_stage1.json");
    println!();
    println!(
        "results: frontend section written to {}",
        results::bench_stage1_path().display()
    );

    let mut failures = Vec::new();
    for r in &rows {
        let Some(&(_, tokens, insts, hash)) = PINNED.iter().find(|p| p.0 == r.scale) else {
            println!("scale {}: no pinned values, not gated", r.scale);
            continue;
        };
        if (r.tokens, r.ir_insts, r.hash) != (tokens, insts, hash) {
            failures.push(format!(
                "scale {}: tokens/insts/hash {}/{}/{:#x}, pinned {tokens}/{insts}/{hash:#x}",
                r.scale, r.tokens, r.ir_insts, r.hash
            ));
        }
    }
    println!();
    if failures.is_empty() {
        println!("PASS: token counts, IR instruction counts and module hashes match the pins");
    } else {
        for f in &failures {
            println!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
