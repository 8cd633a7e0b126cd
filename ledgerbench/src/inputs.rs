//! Seeded inputs: the linux model, the deep-path module and the edit
//! sequence of `edit_serve`. The analyzer only ever sees the sources built
//! here.

use pata_core::json::quote;
use pata_core::{AnalysisRequest, BugKind, SourceFile};
use pata_corpus::{Corpus, OsProfile, Prng, Score};
use pata_ir::Module;

/// The linux model at scale 1.0 with the profile's own fixed seed, so the
/// pinned manifest score below holds for every benchmark seed. The
/// benchmark seed permutes the order of its files in the request.
pub fn linux_model(seed: u64) -> (Corpus, Vec<SourceFile>) {
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(1.0));
    let mut files: Vec<SourceFile> = corpus
        .files
        .iter()
        .map(|f| SourceFile {
            name: f.path.clone(),
            text: f.text.clone(),
        })
        .collect();
    Prng::seed_from_u64(seed ^ 0x5eed_f11e).shuffle(&mut files);
    (corpus, files)
}

pub fn request(files: &[SourceFile]) -> AnalysisRequest {
    AnalysisRequest {
        files: files.to_vec(),
    }
}

/// The NDJSON `analyze` frame a client would send for `files`.
pub fn analyze_frame(id: usize, files: &[SourceFile]) -> String {
    let mut frame = format!("{{\"id\": {id}, \"op\": \"analyze\", \"files\": [");
    for (i, f) in files.iter().enumerate() {
        if i > 0 {
            frame.push_str(", ");
        }
        frame.push_str(&format!(
            "{{\"name\": {}, \"text\": {}}}",
            quote(&f.name),
            quote(&f.text)
        ));
    }
    frame.push_str("]}");
    frame
}

/// The manifest score of the linux model's report, as `(kind, found, real)`
/// per kind plus `(false positives, missed)`. Pinned from the seed commit.
pub const PINNED_SCORE: ([(BugKind, usize, usize); 3], usize, usize) = (
    [
        (BugKind::NullPointerDeref, 148, 107),
        (BugKind::UninitVarAccess, 93, 53),
        (BugKind::MemoryLeak, 77, 77),
    ],
    81,
    48,
);

/// Whether `score` equals [`PINNED_SCORE`]; the error shows the score.
pub fn check_score(score: &Score) -> Result<(), String> {
    let (kinds, fps, missed) = PINNED_SCORE;
    let same = kinds
        .iter()
        .all(|&(kind, found, real)| (score.found_of(kind), score.real_of(kind)) == (found, real))
        && (score.false_positives, score.missed) == (fps, missed);
    if same {
        Ok(())
    } else {
        Err(format!(
            "manifest score {score:?} differs from the pinned one"
        ))
    }
}

/// Interface functions in the deep-path module that have deep paths.
pub const DEEP_ROOTS: usize = 12;
/// Constraint-distinct parameter branches per deep root. With the two
/// diamonds, the helper's branch and the NULL check, each root has 2^10
/// paths, under the default `max_paths` of 4096.
const DEEP_BRANCHES: usize = 6;

/// The deep-path module. Each `dp_probe` root opens with two symmetric
/// diamonds, the first calling the same helper with the same argument in
/// both arms (subsumption and callee-memo hits), then has
/// `2^DEEP_BRANCHES` constraint-distinct branches on its parameters, then
/// reaches its resource through a struct field and a helper (alias) and
/// dereferences it after a NULL check: a real NPD on the aliased field.
/// Each `dp_sync` root is the Fig. 9 alias-infeasible NPD trap, which path
/// validation drops. The seed only picks the branch thresholds, so line
/// numbers, verdicts and path counts are the same for every seed.
pub fn deep_module(seed: u64) -> Vec<SourceFile> {
    let mut rng = Prng::seed_from_u64(seed ^ 0xdee9_0a75);
    let mut s = String::new();
    s.push_str("struct dp_dev { int *res; int nlanes; int mode; int flags; };\n");
    s.push_str("struct dp_ctx { struct dp_dev *dev; int *slot; };\n");
    s.push_str("static int *dp_pick(struct dp_ctx *c) {\n");
    s.push_str("    struct dp_dev *d = c->dev;\n");
    s.push_str("    return d->res;\n");
    s.push_str("}\n");
    s.push_str("static int dp_clamp(int v) {\n");
    s.push_str("    if (v > 8) { v = 8; }\n");
    s.push_str("    return v;\n");
    s.push_str("}\n");
    let params: Vec<String> = (0..DEEP_BRANCHES).map(|b| format!("int a{b}")).collect();
    let mut ops = Vec::new();
    for r in 0..DEEP_ROOTS {
        s.push_str(&format!(
            "static int dp_probe{r}(struct dp_ctx *c, int lim, {}) {{\n",
            params.join(", ")
        ));
        s.push_str("    struct dp_dev *d = c->dev;\n");
        s.push_str("    int acc = 0;\n");
        s.push_str("    int w = 0;\n");
        s.push_str("    int k = 0;\n");
        s.push_str("    if (d->mode > 0) { w = dp_clamp(lim); } else { w = dp_clamp(lim); }\n");
        s.push_str("    if (d->flags > 0) { k = 4; } else { k = 4; }\n");
        for b in 0..DEEP_BRANCHES {
            let t = rng.gen_range(1, 100);
            s.push_str(&format!(
                "    if (a{b} > {t}) {{ acc = acc + {}; }} else {{ acc = acc - 1; }}\n",
                b + 1
            ));
        }
        s.push_str("    int *p = dp_pick(c);\n");
        s.push_str("    if (p == NULL) { acc = 0; }\n");
        s.push_str("    return *d->res + acc + w + k;\n");
        s.push_str("}\n");
        s.push_str(&format!(
            "static void dp_sync{r}(struct dp_dev *d, int *q) {{\n"
        ));
        s.push_str("    struct dp_dev *t;\n");
        s.push_str("    if (q == NULL) { d->nlanes = 0; }\n");
        s.push_str("    t = d;\n");
        s.push_str("    if (t->nlanes != 0) { *q = 1; }\n");
        s.push_str("}\n");
        ops.push(format!("dp_probe{r}"));
        ops.push(format!("dp_sync{r}"));
    }
    let fields: Vec<String> = ops
        .iter()
        .enumerate()
        .map(|(i, f)| format!(".op{i} = {f}"))
        .collect();
    s.push_str(&format!(
        "static struct dp_ops dp_driver = {{ {} }};\n",
        fields.join(", ")
    ));
    vec![SourceFile {
        name: "drivers/deep/dp_paths.c".to_owned(),
        text: s,
    }]
}

/// The three edit kinds of `edit_serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Change one integer constant in the function body.
    Const,
    /// Add an `if` statement at the top of the body.
    Stmt,
    /// Add an initialized local at the top of the body.
    Local,
}

impl EditKind {
    pub const ALL: [EditKind; 3] = [EditKind::Const, EditKind::Stmt, EditKind::Local];

    pub fn name(self) -> &'static str {
        match self {
            EditKind::Const => "const",
            EditKind::Stmt => "stmt",
            EditKind::Local => "local",
        }
    }
}

/// One applied edit.
#[derive(Debug, Clone)]
pub struct Edit {
    pub kind: EditKind,
    pub function: String,
}

/// The seeded edit sequence. Edit `i` has kind `ALL[(k0 + i) % 3]` and
/// lands in the file at position `frac(u0 + i·φ)` of the request, so every
/// run covers kinds and positions evenly whatever the seed; the seed picks
/// `k0`, `u0` and the function within the file.
pub struct EditGen {
    rng: Prng,
    k0: usize,
    u0: f64,
}

const GOLDEN: f64 = 0.618_033_988_749_894_9;

impl EditGen {
    pub fn new(seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed ^ 0xed17_5e9a);
        let k0 = rng.gen_range(0, 3);
        let u0 = rng.next_f64();
        EditGen { rng, k0, u0 }
    }

    /// Applies edit `i` in place to one function of `files` and returns it.
    /// Each candidate edit is compiled with its file and must change the
    /// function's IR: a constant can sit where the IR does not record it,
    /// such as an array length. A candidate that fails (or a function with
    /// no constant, for `Const`) moves on to the next function, then the
    /// next file.
    pub fn apply(&mut self, i: usize, files: &mut [SourceFile]) -> Edit {
        let kind = EditKind::ALL[(self.k0 + i) % 3];
        let start = ((self.u0 + i as f64 * GOLDEN).fract() * files.len() as f64) as usize;
        for step in 0..files.len() {
            let file = (start + step) % files.len();
            let name = &files[file].name;
            let before = pata_cc::compile_one(name, &files[file].text).expect("sources compile");
            let mut functions = function_names(&files[file].text);
            self.rng.shuffle(&mut functions);
            for function in functions {
                let Some(text) =
                    edit_function(&files[file].text, &function, kind, i, &mut self.rng)
                else {
                    continue;
                };
                let Ok(after) = pata_cc::compile_one(name, &text) else {
                    continue;
                };
                if function_ir(&after, &function) != function_ir(&before, &function) {
                    files[file].text = text;
                    return Edit { kind, function };
                }
            }
        }
        panic!("no file of the request accepts a {} edit", kind.name());
    }
}

fn function_ir(module: &Module, name: &str) -> Option<String> {
    let f = module.functions().iter().find(|f| f.name() == name)?;
    Some(pata_ir::function_text(module, f))
}

/// Names of the functions defined in `text`: generated sources open each
/// definition with a `static <type> name(...) {` line.
fn function_names(text: &str) -> Vec<String> {
    text.lines().filter_map(header_name).collect()
}

fn header_name(line: &str) -> Option<String> {
    if !line.starts_with("static ") || !line.trim_end().ends_with('{') || line.contains('=') {
        return None;
    }
    let head = &line[..line.find('(')?];
    let name = head.rsplit([' ', '*']).next()?;
    (!name.is_empty()).then(|| name.to_owned())
}

/// `text` with `kind` applied to `function`, or `None` when the function has
/// no place for it.
fn edit_function(
    text: &str,
    function: &str,
    kind: EditKind,
    i: usize,
    rng: &mut Prng,
) -> Option<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let header = lines
        .iter()
        .position(|l| header_name(l).as_deref() == Some(function))?;
    let end = header + lines[header..].iter().position(|l| l == "}")?;
    let k = rng.gen_range(2, 90);
    match kind {
        EditKind::Stmt => lines.insert(header + 1, format!("    if ({k} > 1) {{ }}")),
        EditKind::Local => lines.insert(header + 1, format!("    int bench_edit{i} = {k};")),
        EditKind::Const => {
            let sites: Vec<(usize, usize, usize)> = (header + 1..end)
                .flat_map(|l| {
                    int_literals(&lines[l])
                        .into_iter()
                        .map(move |(a, b)| (l, a, b))
                })
                .collect();
            if sites.is_empty() {
                return None;
            }
            let (l, a, b) = sites[rng.gen_range(0, sites.len())];
            let old: u64 = lines[l][a..b].parse().ok()?;
            let new = if old == k as u64 { k + 1 } else { k };
            lines[l].replace_range(a..b, &new.to_string());
        }
    }
    let mut out = lines.join("\n");
    if text.ends_with('\n') {
        out.push('\n');
    }
    Some(out)
}

/// Byte ranges of the decimal integer literals of `line`, outside string
/// literals and identifiers.
fn int_literals(line: &str) -> Vec<(usize, usize)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'"' {
            in_str = !in_str;
        } else if !in_str && c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                i += 1;
            }
            let ident_before =
                start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
            if !ident_before && line[start..i].bytes().all(|b| b.is_ascii_digit()) {
                out.push((start, i));
            }
            continue;
        }
        i += 1;
    }
    out
}
