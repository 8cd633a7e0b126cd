//! Code templates: injected real bugs, false-positive traps, and clean
//! distractor code.
//!
//! Each template models a bug pattern from the paper's case studies
//! (Figs. 1, 3, 9, 12) or its false-positive taxonomy (§5.2), instantiated
//! with per-file unique names. Templates record *marks* — the ground-truth
//! line of the bug (or trap) relative to the snippet start.

use pata_core::BugKind;

/// Per-file naming context.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Unique suffix appended to all identifiers.
    pub suffix: String,
    /// The file's device struct name.
    pub dev: String,
    /// The file's config struct name.
    pub cfg: String,
}

impl Ctx {
    /// Creates the context for file number `idx`.
    pub fn new(idx: usize) -> Self {
        let suffix = format!("f{idx}");
        Ctx {
            suffix: suffix.clone(),
            dev: format!("dev_{suffix}"),
            cfg: format!("cfg_{suffix}"),
        }
    }

    fn n(&self, base: &str) -> String {
        format!("{base}_{}", self.suffix)
    }
}

/// A ground-truth mark within a snippet.
#[derive(Debug, Clone)]
pub struct Mark {
    /// Bug type.
    pub kind: BugKind,
    /// Line index within the snippet (0-based).
    pub rel_line: usize,
    /// Containing function.
    pub function: String,
    /// `true` for false-positive traps (correct code some tools report).
    pub trap: bool,
    /// Template name.
    pub template: &'static str,
}

/// A generated code fragment.
#[derive(Debug, Clone, Default)]
pub struct Snippet {
    /// Source lines (no trailing newlines).
    pub lines: Vec<String>,
    /// Ground-truth marks.
    pub marks: Vec<Mark>,
    /// Functions to register through a function-pointer struct (making
    /// them module interface functions — the paper's D1 pattern).
    pub interfaces: Vec<String>,
}

impl Snippet {
    fn push(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    fn mark(&mut self, kind: BugKind, function: &str, trap: bool, template: &'static str) {
        // Marks the line that will be pushed next.
        self.marks.push(Mark {
            kind,
            rel_line: self.lines.len(),
            function: function.to_owned(),
            trap,
            template,
        });
    }
}

/// The struct definitions every generated file starts with.
pub fn struct_defs(ctx: &Ctx) -> Vec<String> {
    vec![
        format!(
            "struct {} {{ int frnd; int count; int *data; struct {} *next; int flags; int mode; }};",
            ctx.cfg, ctx.cfg
        ),
        format!(
            "struct {} {{ struct {} *user_data; int *res; int nlanes; int state; int lockw; \
struct {} *alt; int irq; int dma; }};",
            ctx.dev, ctx.cfg, ctx.cfg
        ),
    ]
}

/// A template: instantiates a snippet for a context.
pub type Template = fn(&Ctx) -> Snippet;

// ====================================================================
// Real-bug templates
// ====================================================================

/// Fig. 1: field checked against NULL, then dereferenced anyway.
fn npd_intra_field(ctx: &Ctx) -> Snippet {
    let f = ctx.n("probe");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push("    if (d->state == 9) {");
    s.push("        log_warn(\"late probe\");");
    s.push("    }");
    s.push("    if (d->res == NULL) {");
    s.push("        log_warn(\"missing resource\");");
    s.push("    }");
    s.mark(BugKind::NullPointerDeref, &f, false, "npd_intra_field");
    s.push("    return *d->res;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Single-variable check + dereference (the "easy" bug every tool finds).
fn npd_single_var(ctx: &Ctx) -> Snippet {
    let f = ctx.n("read");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push("    int *p = d->res;");
    s.push("    if (p == NULL) {");
    s.push("        report_error(1);");
    s.push("    }");
    s.mark(BugKind::NullPointerDeref, &f, false, "npd_single_var");
    s.push("    return *p;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Fig. 3 (Zephyr friend_set): NULL check in the caller, dereference
/// through an alias in the callee — only alias-aware interprocedural
/// analysis finds it.
fn npd_cross_fn(ctx: &Ctx) -> Snippet {
    let status = ctx.n("status");
    let set = ctx.n("set");
    let mut s = Snippet::default();
    s.push(format!("static void {status}(struct {} *d) {{", ctx.dev));
    s.push(format!("    struct {} *cfg = d->user_data;", ctx.cfg));
    s.mark(BugKind::NullPointerDeref, &status, false, "npd_cross_fn");
    s.push("    int v = cfg->frnd;");
    s.push("    use_value(v);");
    s.push("}");
    s.push(format!("static void {set}(struct {} *d) {{", ctx.dev));
    s.push(format!("    struct {} *cfg = d->user_data;", ctx.cfg));
    s.push("    if (!cfg) {");
    s.push("        goto send;");
    s.push("    }");
    s.push("    cfg->frnd = 1;");
    s.push("    return;");
    s.push("send:");
    s.push(format!("    {status}(d);"));
    s.push("}");
    s.interfaces.push(set);
    s
}

/// NULL stored through a field on one path, dereferenced later — the
/// store-const flavour (invisible to assignment-pattern matchers).
fn npd_null_store(ctx: &Ctx) -> Snippet {
    let f = ctx.n("reset");
    let mut s = Snippet::default();
    s.push(format!(
        "static void {f}(struct {} *d, int hard) {{",
        ctx.dev
    ));
    s.push("    if (hard) {");
    s.push("        d->res = NULL;");
    s.push("    }");
    s.push("    if (d->state > 2) {");
    s.mark(BugKind::NullPointerDeref, &f, false, "npd_null_store");
    s.push("        *d->res = 0;");
    s.push("    }");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Scalar local initialized on one branch only, used after the join.
fn uva_scalar_branch(ctx: &Ctx) -> Snippet {
    let f = ctx.n("calc");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push("    int ret;");
    s.push("    if (d->state > 0) {");
    s.push("        ret = d->count * 2;");
    s.push("    }");
    s.mark(BugKind::UninitVarAccess, &f, false, "uva_scalar_branch");
    s.push("    return ret;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Fig. 12d (TencentOS pthread_create): heap storage allocated, aliased,
/// and read field-wise without initialization.
fn uva_heap_field(ctx: &Ctx) -> Snippet {
    let f = ctx.n("spawn");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(int n) {{"));
    s.push("    int *stack = tos_mmheap_alloc(n);");
    s.push(format!(
        "    struct {} *ctl = (struct {} *)stack;",
        ctx.cfg, ctx.cfg
    ));
    s.mark(BugKind::UninitVarAccess, &f, false, "uva_heap_field");
    s.push("    int task = ctl->frnd;");
    s.push("    register_task(stack, task);");
    s.push("    return task;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Fig. 12c (RIOT make_message): allocation leaks on an error-handling
/// early return.
fn ml_error_path(ctx: &Ctx) -> Snippet {
    let f = ctx.n("make_msg");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(int size, int flags) {{"));
    s.push("    if (size > 4096) {");
    s.push("        size = 4096;");
    s.push("    }");
    s.push("    int *message = malloc(size);");
    s.push("    if (message == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    message[0] = size;");
    s.push("    if (flags < 0) {");
    s.mark(BugKind::MemoryLeak, &f, false, "ml_error_path");
    s.push("        return -2;");
    s.push("    }");
    s.push("    free(message);");
    s.push("    return 0;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Leak where the happy path frees through a callee; the error path drops
/// the object. Alias-unaware tracking double-reports, path-insensitive
/// tools miss it.
fn ml_callee_free(ctx: &Ctx) -> Snippet {
    let put = ctx.n("put_buf");
    let grab = ctx.n("grab");
    let mut s = Snippet::default();
    s.push(format!("static void {put}(int *b) {{"));
    s.push("    free(b);");
    s.push("}");
    s.push(format!("static int {grab}(int n) {{"));
    s.push("    int *p = malloc(n);");
    s.push("    if (p == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    if (n > 64) {");
    s.mark(BugKind::MemoryLeak, &grab, false, "ml_callee_free");
    s.push("        return -2;");
    s.push("    }");
    s.push(format!("    {put}(p);"));
    s.push("    return 0;");
    s.push("}");
    s.interfaces.push(grab);
    s
}

/// A `goto` jumps over the initialization — the uninitialized value is
/// read at the shared exit label (goto-heavy kernel error handling).
fn uva_goto_skip_init(ctx: &Ctx) -> Snippet {
    let f = ctx.n("parse");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push("    int len;");
    s.push("    if (d->state < 0) {");
    s.push("        goto out;");
    s.push("    }");
    s.push("    len = d->count;");
    s.push("out:");
    s.mark(BugKind::UninitVarAccess, &f, false, "uva_goto_skip_init");
    s.push("    return len;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Cascading error labels where the final label dereferences a pointer
/// that one incoming path proved NULL (the Fig. 12 error-path family).
fn npd_error_label(ctx: &Ctx) -> Snippet {
    let f = ctx.n("open");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push(format!("    struct {} *c = d->user_data;", ctx.cfg));
    s.push("    int *buf = kmalloc(16);");
    s.push("    if (buf == NULL) {");
    s.push("        return -12;");
    s.push("    }");
    s.push("    if (c == NULL) {");
    s.push("        goto err_free;");
    s.push("    }");
    s.push("    c->count = 1;");
    s.push("    free(buf);");
    s.push("    return 0;");
    s.push("err_free:");
    s.push("    free(buf);");
    s.mark(BugKind::NullPointerDeref, &f, false, "npd_error_label");
    s.push("    return c->frnd;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// The classic two-allocation bug: the second allocation's failure path
/// forgets to release the first (ubiquitous in real kernel probe code).
fn ml_second_alloc_fails(ctx: &Ctx) -> Snippet {
    let f = ctx.n("init2");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(int n) {{"));
    s.push("    int *a = malloc(n);");
    s.push("    if (a == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    int *b = malloc(n);");
    s.push("    if (b == NULL) {");
    s.mark(BugKind::MemoryLeak, &f, false, "ml_second_alloc_fails");
    s.push("        return -1;");
    s.push("    }");
    s.push("    a[0] = n;");
    s.push("    b[0] = n;");
    s.push("    free(a);");
    s.push("    free(b);");
    s.push("    return 0;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// A plain never-freed, never-escaping allocation — the leak class every
/// tool in the comparison can find (Saber's detectable case).
fn ml_never_freed(ctx: &Ctx) -> Snippet {
    let f = ctx.n("log_stat");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.mark(BugKind::MemoryLeak, &f, false, "ml_never_freed");
    s.push("    int *slot = malloc(16);");
    s.push("    if (slot == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    slot[0] = d->state;");
    s.push("    return slot[0];");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Double lock on a retry path; the lock object is reached through two
/// distinct GEP temporaries that only alias-aware tracking unifies.
fn dl_retry_path(ctx: &Ctx) -> Snippet {
    let f = ctx.n("worker");
    let mut s = Snippet::default();
    s.push(format!(
        "static int {f}(struct {} *d, int retry) {{",
        ctx.dev
    ));
    s.push("    spin_lock(&d->lockw);");
    s.push("    if (retry > 3) {");
    s.mark(BugKind::DoubleLock, &f, false, "dl_retry_path");
    s.push("        spin_lock(&d->lockw);");
    s.push("    }");
    s.push("    d->state = 1;");
    s.push("    spin_unlock(&d->lockw);");
    s.push("    return 0;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Array indexed with a value proven negative on the reported path.
fn aiu_negative(ctx: &Ctx) -> Snippet {
    let f = ctx.n("pick");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d, int idx) {{", ctx.dev));
    s.push("    int table[16];");
    s.push("    table[0] = d->count;");
    s.push("    if (idx < 0) {");
    s.mark(BugKind::ArrayIndexUnderflow, &f, false, "aiu_negative");
    s.push("        return table[idx];");
    s.push("    }");
    s.push("    return table[0];");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Division by a value the branch just proved zero.
fn dbz_checked_zero(ctx: &Ctx) -> Snippet {
    let f = ctx.n("rate");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d, int hz) {{", ctx.dev));
    s.push("    if (hz == 0) {");
    s.mark(BugKind::DivisionByZero, &f, false, "dbz_checked_zero");
    s.push("        return d->count / hz;");
    s.push("    }");
    s.push("    return d->count / hz;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Freed buffer read again on a late path (use-after-free; the framework's
/// seventh checker).
fn uaf_late_read(ctx: &Ctx) -> Snippet {
    let f = ctx.n("drain");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d, int n) {{", ctx.dev));
    s.push("    int *q = malloc(n);");
    s.push("    if (q == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    q[0] = d->state;");
    s.push("    free(q);");
    s.push("    if (d->state > 3) {");
    s.mark(BugKind::UseAfterFree, &f, false, "uaf_late_read");
    s.push("        return q[0];");
    s.push("    }");
    s.push("    return 0;");
    s.push("}");
    s.interfaces.push(f);
    s
}

// ====================================================================
// False-positive traps (§5.2 taxonomy)
// ====================================================================

/// External-contract NPD: `get_cfg_slot` never returns NULL in this
/// configuration, but no analyzer can know — everyone reports.
fn trap_npd_extern_contract(ctx: &Ctx) -> Snippet {
    let f = ctx.n("attach");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push(format!(
        "    struct {} *c = get_cfg_slot(d->state);",
        ctx.cfg
    ));
    s.push("    if (c == NULL) {");
    s.push("        log_warn(\"impossible by contract\");");
    s.push("    }");
    s.mark(
        BugKind::NullPointerDeref,
        &f,
        true,
        "trap_npd_extern_contract",
    );
    s.push("    return c->frnd;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Loop-guaranteed assignment (the caller contract guarantees `n >= 1`),
/// reported because loops are unrolled once (§5.2, loop false positives).
fn trap_npd_loop(ctx: &Ctx) -> Snippet {
    let f = ctx.n("scan");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d, int n) {{", ctx.dev));
    s.push(format!("    struct {} *hit = NULL;", ctx.cfg));
    s.push("    int i;");
    s.push("    for (i = 0; i < n; i++) {");
    s.push("        hit = d->user_data;");
    s.push("    }");
    s.mark(BugKind::NullPointerDeref, &f, true, "trap_npd_loop");
    s.push("    return hit->frnd;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Concurrency/contract UVA: `is_dma_ready` is always true when this
/// callback runs, so the memset always happens (§5.2, thread unawareness).
fn trap_uva_concurrent_init(ctx: &Ctx) -> Snippet {
    let f = ctx.n("readcfg");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(int n) {{"));
    s.push("    int *buf = kmalloc(n);");
    s.push("    if (buf == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    if (is_dma_ready()) {");
    s.push("        memset(buf, 0, n);");
    s.push("    }");
    s.mark(
        BugKind::UninitVarAccess,
        &f,
        true,
        "trap_uva_concurrent_init",
    );
    s.push("    int v = buf[0];");
    s.push("    free(buf);");
    s.push("    return v;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Fig. 9: the dereference path is infeasible because the guard field and
/// the stored field alias. PATA's shared-symbol validation drops it;
/// per-variable encodings report it (the Table 6 gap).
fn trap_npd_infeasible_alias(ctx: &Ctx) -> Snippet {
    let f = ctx.n("sync");
    let mut s = Snippet::default();
    s.push(format!("static void {f}(struct {} *d, int *q) {{", ctx.dev));
    s.push(format!("    struct {} *t;", ctx.dev));
    s.push("    if (q == NULL) {");
    s.push("        d->nlanes = 0;");
    s.push("    }");
    s.push("    t = d;");
    s.push("    if (t->nlanes != 0) {");
    s.mark(
        BugKind::NullPointerDeref,
        &f,
        true,
        "trap_npd_infeasible_alias",
    );
    s.push("        *q = 1;");
    s.push("    }");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Correct callee-free: alias-unaware leak tracking false-positives here.
fn trap_ml_callee_free(ctx: &Ctx) -> Snippet {
    let put = ctx.n("put2");
    let send = ctx.n("send");
    let mut s = Snippet::default();
    s.push(format!("static void {put}(int *b) {{"));
    s.push("    free(b);");
    s.push("}");
    s.push(format!(
        "static int {send}(struct {} *d, int n) {{",
        ctx.dev
    ));
    s.mark(BugKind::MemoryLeak, &send, true, "trap_ml_callee_free");
    s.push("    int *buf = malloc(n);");
    s.push("    if (buf == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    buf[0] = d->state;");
    s.push(format!("    {put}(buf);"));
    s.push("    return 0;");
    s.push("}");
    s.interfaces.push(send);
    s
}

/// Out-parameter initialization: alias-blind UVA checkers report.
fn trap_uva_out_param(ctx: &Ctx) -> Snippet {
    let fetch = ctx.n("fetch");
    let query = ctx.n("query");
    let mut s = Snippet::default();
    s.push(format!("static void {fetch}(int *out) {{"));
    s.push("    *out = 7;");
    s.push("}");
    s.push(format!("static int {query}(void) {{"));
    s.push("    int val;");
    s.push(format!("    {fetch}(&val);"));
    s.mark(BugKind::UninitVarAccess, &query, true, "trap_uva_out_param");
    s.push("    return val;");
    s.push("}");
    s.interfaces.push(query);
    s
}

/// Flow-insensitive NPD trap: `p` starts NULL but is reassigned and
/// guarded before the dereference.
fn trap_npd_flow_insensitive(ctx: &Ctx) -> Snippet {
    let f = ctx.n("route");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push("    int *p = NULL;");
    s.push("    if (d->state > 0) {");
    s.push("        p = d->res;");
    s.push("        if (p != NULL) {");
    s.mark(
        BugKind::NullPointerDeref,
        &f,
        true,
        "trap_npd_flow_insensitive",
    );
    s.push("            return *p;");
    s.push("        }");
    s.push("    }");
    s.push("    return 0;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// The paper's §5.2 array false positive: `buf[i + 1]` is written, then
/// read back as `buf[j]` with `j == i + 1` — semantically the same
/// element, but the two access paths differ, so the element looks
/// uninitialized to PATA's array-insensitive alias graph.
fn trap_uva_array(ctx: &Ctx) -> Snippet {
    let f = ctx.n("fold");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d, int i) {{", ctx.dev));
    s.push("    int *buf = kmalloc(32);");
    s.push("    if (buf == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    buf[i + 1] = d->count;");
    s.push("    int j = i + 1;");
    s.mark(BugKind::UninitVarAccess, &f, true, "trap_uva_array");
    s.push("    int v = buf[j];");
    s.push("    kfree(buf);");
    s.push("    return v;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// External-contract division trap: `read_step` never returns zero, but
/// the zero branch is feasible for the analysis (Table 7 FP source).
fn trap_dbz_contract(ctx: &Ctx) -> Snippet {
    let f = ctx.n("div_guard");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push("    int step = read_step();");
    s.push("    if (step == 0) {");
    s.push("        log_warn(\"impossible by contract\");");
    s.push("    }");
    s.mark(BugKind::DivisionByZero, &f, true, "trap_dbz_contract");
    s.push("    return d->count / step;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// External-contract index trap: `pos` is documented non-negative, so the
/// wrapped index cannot be negative — but the analysis cannot know.
fn trap_aiu_contract(ctx: &Ctx) -> Snippet {
    let f = ctx.n("wrap");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d, int pos) {{", ctx.dev));
    s.push("    int ring[8];");
    s.push("    ring[0] = d->count;");
    s.push("    int idx = pos % 8;");
    s.push("    if (idx < 0) {");
    s.push("        log_warn(\"negative wrap\");");
    s.push("    }");
    s.mark(BugKind::ArrayIndexUnderflow, &f, true, "trap_aiu_contract");
    s.push("    return ring[idx];");
    s.push("}");
    s.interfaces.push(f);
    s
}

// ====================================================================
// Clean distractor templates
// ====================================================================

fn clean_guarded_deref(ctx: &Ctx) -> Snippet {
    let f = ctx.n("info");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push("    if (d->res == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    return *d->res;");
    s.push("}");
    s.interfaces.push(f);
    s
}

fn clean_balanced_lock(ctx: &Ctx) -> Snippet {
    let f = ctx.n("tick");
    let mut s = Snippet::default();
    s.push(format!("static void {f}(struct {} *d) {{", ctx.dev));
    s.push("    spin_lock(&d->lockw);");
    s.push("    d->state = d->state + 1;");
    s.push("    spin_unlock(&d->lockw);");
    s.push("}");
    s.interfaces.push(f);
    s
}

fn clean_alloc_free(ctx: &Ctx) -> Snippet {
    let f = ctx.n("copy");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(int n) {{"));
    s.push("    int *tmp = kzalloc(n);");
    s.push("    if (tmp == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    int total = tmp[0] + n;");
    s.push("    free(tmp);");
    s.push("    return total;");
    s.push("}");
    s.interfaces.push(f);
    s
}

fn clean_helper_chain(ctx: &Ctx) -> Snippet {
    let clamp = ctx.n("clamp");
    let scale = ctx.n("scale");
    let mut s = Snippet::default();
    s.push(format!("static int {clamp}(int v, int lo, int hi) {{"));
    s.push("    if (v < lo) { return lo; }");
    s.push("    if (v > hi) { return hi; }");
    s.push("    return v;");
    s.push("}");
    s.push(format!(
        "static int {scale}(struct {} *d, int k) {{",
        ctx.dev
    ));
    s.push("    int raw = d->count * k;");
    s.push(format!("    return {clamp}(raw, 0, 4096);"));
    s.push("}");
    s.interfaces.push(scale);
    s
}

/// Feature-flag tuning: a run of independent symmetric diamonds (both arms
/// assign the same locals, control falls through) — the quirks-table /
/// config-flag shape that dominates real probe functions. Path count is
/// exponential in the diamond count while the analysis state reconverges at
/// every join.
fn clean_feature_tune(ctx: &Ctx) -> Snippet {
    let f = ctx.n("tune");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push("    int rate = 0;");
    s.push("    int burst = 0;");
    s.push("    int win = 0;");
    s.push("    int depth = 0;");
    s.push("    if (d->flags > 0) { rate = 100; } else { rate = 10; }");
    s.push("    if (d->mode > 1) { burst = 8; } else { burst = 1; }");
    s.push("    if (d->irq > 0) { win = 4; } else { win = 2; }");
    s.push("    if (d->dma > 0) { depth = 16; } else { depth = 2; }");
    s.push("    if (d->nlanes > 1) { rate = rate + burst; } else { rate = rate - burst; }");
    s.push("    if (d->state > 0) { win = win + depth; } else { win = win - depth; }");
    s.push("    return rate + win;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Both arms of each branch acknowledge through the same small helper —
/// the notify/ack idiom. The two call sites reach the helper with identical
/// analysis state, so the callee summary recorded at the first site replays
/// at the second.
fn clean_ack_paths(ctx: &Ctx) -> Snippet {
    let ping = ctx.n("ping");
    let f = ctx.n("poll");
    let mut s = Snippet::default();
    s.push(format!("static int {ping}(int n) {{"));
    s.push("    if (n > 0) { n = n - 1; }");
    s.push("    if (n > 4) { n = 4; }");
    s.push("    return n;");
    s.push("}");
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push("    int a = 0;");
    s.push("    int b = 0;");
    s.push("    if (d->irq > 0) {");
    s.push(format!("        a = {ping}(2);"));
    s.push("    } else {");
    s.push(format!("        a = {ping}(2);"));
    s.push("    }");
    s.push("    if (d->dma > 0) {");
    s.push(format!("        b = {ping}(3);"));
    s.push("    } else {");
    s.push(format!("        b = {ping}(3);"));
    s.push("    }");
    s.push("    return a + b;");
    s.push("}");
    s.interfaces.push(f);
    s
}

fn clean_loop_sum(ctx: &Ctx) -> Snippet {
    let f = ctx.n("sum");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(int *vals, int n) {{"));
    s.push("    int total = 0;");
    s.push("    int i;");
    s.push("    for (i = 0; i < n; i++) {");
    s.push("        total += vals[i];");
    s.push("    }");
    s.push("    return total;");
    s.push("}");
    s.interfaces.push(f);
    s
}

fn clean_state_machine(ctx: &Ctx) -> Snippet {
    let f = ctx.n("step");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d, int ev) {{", ctx.dev));
    s.push("    if (ev == 1 && d->state == 0) {");
    s.push("        d->state = 1;");
    s.push("        return 0;");
    s.push("    }");
    s.push("    if (ev == 2 || d->state > 1) {");
    s.push("        d->state = 2;");
    s.push("        return 1;");
    s.push("    }");
    s.push("    return -1;");
    s.push("}");
    s.interfaces.push(f);
    s
}

fn clean_init_path(ctx: &Ctx) -> Snippet {
    let f = ctx.n("setup");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push(format!("    struct {} *cfg = d->user_data;", ctx.cfg));
    s.push("    if (cfg == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    cfg->count = 0;");
    s.push("    cfg->frnd = d->nlanes;");
    s.push("    return 0;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Long alias chain over one config object — the paper's motivation for
/// merging typestates: every link joins the same alias set.
fn clean_alias_chain(ctx: &Ctx) -> Snippet {
    let f = ctx.n("chain");
    let mut s = Snippet::default();
    s.push(format!("static int {f}(struct {} *d) {{", ctx.dev));
    s.push(format!("    struct {} *a = d->user_data;", ctx.cfg));
    s.push(format!("    struct {} *b = a;", ctx.cfg));
    s.push(format!("    struct {} *c2 = b;", ctx.cfg));
    s.push(format!("    struct {} *e = c2;", ctx.cfg));
    s.push("    if (e == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    int acc = e->frnd + b->count;");
    s.push("    acc += c2->flags;");
    s.push("    return acc;");
    s.push("}");
    s.interfaces.push(f);
    s
}

/// Three-deep call pipeline re-deriving the same field pointer in every
/// frame — the Fig. 7 pattern where `foo:t` and `bar:t` share one node.
fn clean_call_pipeline(ctx: &Ctx) -> Snippet {
    let l3 = ctx.n("commit");
    let l2 = ctx.n("apply");
    let l1 = ctx.n("dispatch");
    let mut s = Snippet::default();
    s.push(format!("static int {l3}(struct {} *d) {{", ctx.dev));
    s.push(format!("    struct {} *cfg = d->user_data;", ctx.cfg));
    s.push("    if (cfg == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    cfg->count = cfg->count + 1;");
    s.push("    return cfg->count;");
    s.push("}");
    s.push(format!(
        "static int {l2}(struct {} *d, int mode) {{",
        ctx.dev
    ));
    s.push(format!("    struct {} *cfg = d->user_data;", ctx.cfg));
    s.push("    if (cfg == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push("    if (mode > 0) {");
    s.push("        cfg->mode = mode;");
    s.push("    }");
    s.push(format!("    return {l3}(d);"));
    s.push("}");
    s.push(format!(
        "static int {l1}(struct {} *d, int mode) {{",
        ctx.dev
    ));
    s.push(format!("    struct {} *cfg = d->user_data;", ctx.cfg));
    s.push("    if (cfg == NULL) {");
    s.push("        return -1;");
    s.push("    }");
    s.push(format!("    return {l2}(d, mode);"));
    s.push("}");
    s.interfaces.push(l1);
    s
}

// ====================================================================
// Registries
// ====================================================================

/// Real-bug templates for the three main checkers (Table 5 workload).
pub fn main_bug_templates() -> Vec<(&'static str, Template)> {
    vec![
        ("npd_intra_field", npd_intra_field as Template),
        ("npd_single_var", npd_single_var),
        ("npd_cross_fn", npd_cross_fn),
        ("npd_null_store", npd_null_store),
        ("uva_scalar_branch", uva_scalar_branch),
        ("uva_heap_field", uva_heap_field),
        ("ml_error_path", ml_error_path),
        ("ml_callee_free", ml_callee_free),
        ("ml_never_freed", ml_never_freed),
        ("uva_goto_skip_init", uva_goto_skip_init),
        ("npd_error_label", npd_error_label),
        ("ml_second_alloc_fails", ml_second_alloc_fails),
    ]
}

/// Additional-checker bug templates (Table 7 workload).
pub fn extra_bug_templates() -> Vec<(&'static str, Template)> {
    vec![
        ("dl_retry_path", dl_retry_path as Template),
        ("aiu_negative", aiu_negative),
        ("dbz_checked_zero", dbz_checked_zero),
        ("uaf_late_read", uaf_late_read),
    ]
}

/// False-positive traps.
pub fn trap_templates() -> Vec<(&'static str, Template)> {
    vec![
        (
            "trap_npd_extern_contract",
            trap_npd_extern_contract as Template,
        ),
        ("trap_npd_loop", trap_npd_loop),
        ("trap_uva_concurrent_init", trap_uva_concurrent_init),
        ("trap_npd_infeasible_alias", trap_npd_infeasible_alias),
        ("trap_ml_callee_free", trap_ml_callee_free),
        ("trap_uva_out_param", trap_uva_out_param),
        ("trap_npd_flow_insensitive", trap_npd_flow_insensitive),
        ("trap_uva_array", trap_uva_array),
        ("trap_dbz_contract", trap_dbz_contract),
        ("trap_aiu_contract", trap_aiu_contract),
    ]
}

/// Clean distractor templates (the bulk of every OS).
pub fn clean_templates() -> Vec<(&'static str, Template)> {
    vec![
        ("clean_guarded_deref", clean_guarded_deref as Template),
        ("clean_balanced_lock", clean_balanced_lock),
        ("clean_alloc_free", clean_alloc_free),
        ("clean_helper_chain", clean_helper_chain),
        ("clean_feature_tune", clean_feature_tune),
        ("clean_ack_paths", clean_ack_paths),
        ("clean_loop_sum", clean_loop_sum),
        ("clean_state_machine", clean_state_machine),
        ("clean_init_path", clean_init_path),
        ("clean_alias_chain", clean_alias_chain),
        ("clean_call_pipeline", clean_call_pipeline),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_templates() -> Vec<(&'static str, Template)> {
        let mut all = main_bug_templates();
        all.extend(extra_bug_templates());
        all.extend(trap_templates());
        all.extend(clean_templates());
        all
    }

    #[test]
    fn every_template_compiles_standalone() {
        for (name, t) in all_templates() {
            let ctx = Ctx::new(0);
            let snippet = t(&ctx);
            let mut text = struct_defs(&ctx).join("\n");
            text.push('\n');
            text.push_str(&snippet.lines.join("\n"));
            let result = pata_cc::compile_one(&format!("{name}.c"), &text);
            assert!(
                result.is_ok(),
                "template {name} fails to compile: {:?}",
                result.err()
            );
        }
    }

    #[test]
    fn bug_templates_mark_exactly_one_real_bug() {
        for (name, t) in main_bug_templates()
            .into_iter()
            .chain(extra_bug_templates())
        {
            let s = t(&Ctx::new(1));
            let real: Vec<_> = s.marks.iter().filter(|m| !m.trap).collect();
            assert_eq!(real.len(), 1, "{name}");
            assert!(
                real[0].rel_line < s.lines.len(),
                "{name}: mark out of range"
            );
        }
    }

    #[test]
    fn trap_templates_mark_only_traps() {
        for (name, t) in trap_templates() {
            let s = t(&Ctx::new(2));
            assert!(!s.marks.is_empty(), "{name}");
            assert!(s.marks.iter().all(|m| m.trap), "{name}");
        }
    }

    #[test]
    fn clean_templates_mark_nothing() {
        for (name, t) in clean_templates() {
            let s = t(&Ctx::new(3));
            assert!(s.marks.is_empty(), "{name}");
            assert!(!s.interfaces.is_empty(), "{name}: needs an analysis root");
        }
    }

    #[test]
    fn contexts_produce_unique_names() {
        let a = npd_cross_fn(&Ctx::new(1));
        let b = npd_cross_fn(&Ctx::new(2));
        assert_ne!(a.lines, b.lines);
    }
}
