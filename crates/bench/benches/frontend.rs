//! Front-end benchmark: lex, parse and lower (`pata-cc`) timed separately
//! over the linux model at `--scale` 0.2, 1 and 4.
//!
//! The three layers are nested public entry points: `Lexer::lex`,
//! `Parser::parse_source` (lex + parse) and `Compiler::compile` (lex +
//! parse + lower). A round times each entry point once, back to back; a
//! layer's time in that round is its entry point's minus the one it
//! contains, and the reported time is the median over the rounds.
//!
//! Times depend on the machine and are only reported. The gate is on what
//! does not: at every pinned scale the token count, the module's
//! instruction count and the FNV-1a-64 hash of the printed module must
//! equal the values recorded before the front end stopped copying tokens
//! and ASTs. A faster front end must compile the same module.
//!
//! Headline numbers land in `results/BENCH_stage1.json` (section
//! `frontend`): per-layer milliseconds, tokens, IR instructions and
//! nanoseconds per token at each scale.
//!
//! `--smoke` takes fewer rounds for CI; `--scale F` times one scale only.

use pata_bench::harness::time_once;
use pata_bench::results;
use pata_cc::{Compiler, Lexer, Parser};
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

fn measure(scale: f64, rounds: usize) -> Row {
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(scale));
    let tokens = lex_all(&corpus);
    let module = compile_all(&corpus);
    let ir_insts = module.functions().iter().map(|f| f.inst_count()).sum();
    let hash = fnv1a64(print_module(&module).as_bytes());
    drop(module);

    let (mut lex, mut parse, mut lower) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let lexed = ms(|| lex_all(&corpus));
        let parsed = ms(|| parse_all(&corpus));
        let compiled = ms(|| compile_all(&corpus));
        lex.push(lexed);
        parse.push((parsed - lexed).max(0.0));
        lower.push((compiled - parsed).max(0.0));
    }
    Row {
        scale,
        lex_ms: median(lex),
        parse_ms: median(parse),
        lower_ms: median(lower),
        tokens,
        ir_insts,
        hash,
    }
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

    let rows: Vec<Row> = scales.iter().map(|&s| measure(s, rounds)).collect();

    println!();
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}  module hash",
        "scale", "lex ms", "parse ms", "lower ms", "tokens", "IR insts", "ns/tok"
    );
    println!("{}", "-".repeat(84));
    for r in &rows {
        println!(
            "{:>6} {:>9.2} {:>9.2} {:>9.2} {:>9} {:>9} {:>8.1}  {:#018x}",
            r.scale,
            r.lex_ms,
            r.parse_ms,
            r.lower_ms,
            r.tokens,
            r.ir_insts,
            r.ns_per_token(),
            r.hash
        );
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
