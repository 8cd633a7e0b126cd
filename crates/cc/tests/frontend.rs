//! Front-end integration tests: tricky syntax, control flow and lowering
//! corners that the corpus generator and real OS code rely on.

use pata_cc::{
    compile_one, AstBinOp, Compiler, DiagKind, Expr, ExprKind, Lexer, Parser, StmtKind, MAX_NESTING,
};
use pata_corpus::{Corpus, OsProfile};
use pata_ir::{print_module, verify_module, Callee, InstKind, Operand, Terminator, VarId};

fn compile(src: &str) -> pata_ir::Module {
    let m = compile_one("fe.c", src).expect("compiles");
    assert!(verify_module(&m).is_ok(), "verify: {:?}", verify_module(&m));
    m
}

fn body_kinds(m: &pata_ir::Module, func: &str) -> Vec<String> {
    let f = m.function(m.function_by_name(func).unwrap());
    f.blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .map(|i| format!("{:?}", std::mem::discriminant(&i.kind)))
        .collect()
}

#[test]
fn goto_backward_forms_loop() {
    let m = compile(
        r#"
        int f(int n) {
            int total = 0;
        again:
            total = total + 1;
            if (total < n) {
                goto again;
            }
            return total;
        }
        "#,
    );
    let f = m.function(m.function_by_name("f").unwrap());
    let has_back = f
        .blocks()
        .iter()
        .enumerate()
        .any(|(bi, b)| b.term.successors().iter().any(|s| s.index() < bi));
    assert!(has_back, "backward goto must create a back edge");
}

#[test]
fn while_true_with_break() {
    let m = compile(
        r#"
        int f(int n) {
            int i = 0;
            while (1) {
                i = i + 1;
                if (i > n) {
                    break;
                }
            }
            return i;
        }
        "#,
    );
    assert!(m.function_by_name("f").is_some());
}

#[test]
fn continue_in_for() {
    compile(
        r#"
        int f(int n) {
            int acc = 0;
            int i;
            for (i = 0; i < n; i++) {
                if (i == 3) {
                    continue;
                }
                acc += i;
            }
            return acc;
        }
        "#,
    );
}

#[test]
fn nested_field_chain() {
    let m = compile(
        r#"
        struct inner { int x; };
        struct middle { struct inner *in; };
        struct outer { struct middle *mid; };
        int f(struct outer *o) {
            return o->mid->in->x;
        }
        "#,
    );
    let geps = body_kinds(&m, "f")
        .iter()
        .filter(|k| {
            let probe = InstKind::Gep {
                dst: pata_ir::VarId::from_index(0),
                base: pata_ir::VarId::from_index(0),
                field: m.interner.get("x").unwrap(),
            };
            **k == format!("{:?}", std::mem::discriminant(&probe))
        })
        .count();
    assert_eq!(geps, 3, "three field hops");
}

#[test]
fn for_with_empty_clauses() {
    compile(
        r#"
        int f(void) {
            int i = 0;
            for (;;) {
                i++;
                if (i > 3) {
                    break;
                }
            }
            return i;
        }
        "#,
    );
}

#[test]
fn global_read_write() {
    let m = compile(
        r#"
        int g_counter;
        void bump(void) { g_counter = g_counter + 1; }
        int read_it(void) { return g_counter; }
        "#,
    );
    let g = m.globals();
    assert_eq!(g.len(), 1);
    assert_eq!(m.var(g[0]).name, "g_counter");
}

#[test]
fn call_chain_in_expression() {
    let m = compile(
        r#"
        int a(int x) { return x + 1; }
        int b(int x) { return a(x) * a(x + 1); }
        "#,
    );
    let f = m.function(m.function_by_name("b").unwrap());
    let calls = f
        .blocks()
        .iter()
        .flat_map(|bl| &bl.insts)
        .filter(|i| {
            matches!(
                i.kind,
                InstKind::Call {
                    callee: Callee::Direct(_),
                    ..
                }
            )
        })
        .count();
    assert_eq!(calls, 2);
}

#[test]
fn cast_chain_transparent() {
    compile(
        r#"
        struct a { int x; };
        struct b { int y; };
        int f(int *raw) {
            struct a *pa = (struct a *)raw;
            struct b *pb = (struct b *)(struct a *)raw;
            return pa->x + pb->y;
        }
        "#,
    );
}

#[test]
fn char_and_hex_literals() {
    compile(
        r#"
        int f(int c) {
            if (c == 'x') {
                return 0x1F;
            }
            return 'a' + 1;
        }
        "#,
    );
}

#[test]
fn string_literals_as_arguments() {
    compile(
        r#"
        void f(int code) {
            log_warn("something failed", code);
            panic("fatal: unrecoverable\n");
        }
        "#,
    );
}

#[test]
fn logical_ops_in_value_position() {
    compile(
        r#"
        int f(int a, int b) {
            int both = a > 0 && b > 0;
            int either = a > 0 || b > 0;
            return both + either;
        }
        "#,
    );
}

#[test]
fn unary_minus_and_bitnot() {
    compile(
        r#"
        int f(int x) {
            int neg = -x;
            int inv = ~x;
            return neg ^ inv;
        }
        "#,
    );
}

#[test]
fn return_in_all_branches() {
    let m = compile(
        r#"
        int f(int c) {
            if (c > 0) {
                return 1;
            } else {
                return 2;
            }
        }
        "#,
    );
    let f = m.function(m.function_by_name("f").unwrap());
    let rets = f
        .blocks()
        .iter()
        .filter(|b| matches!(b.term, Terminator::Ret(Some(_))))
        .count();
    assert!(rets >= 2);
}

#[test]
fn break_outside_loop_is_sema_error() {
    let mut cc = Compiler::new();
    cc.add_source("bad.c", "void f(void) { break; }");
    let err = cc.compile().unwrap_err();
    assert!(err.iter().any(|d| d.message.contains("break")), "{err:?}");
}

#[test]
fn unknown_variable_assignment_is_sema_error() {
    let mut cc = Compiler::new();
    cc.add_source("bad.c", "void f(void) { nonexistent = 1; }");
    let err = cc.compile().unwrap_err();
    assert!(
        err.iter().any(|d| d.message.contains("unknown variable")),
        "{err:?}"
    );
}

#[test]
fn multiple_files_share_structs() {
    let mut cc = Compiler::new();
    cc.add_source("defs.c", "struct shared { int v; };");
    cc.add_source(
        "use.c",
        "struct shared { int v; }; int f(struct shared *s) { return s->v; }",
    );
    let m = cc.compile().unwrap();
    assert!(m.struct_by_name("shared").is_some());
}

#[test]
fn scopes_shadow_correctly() {
    compile(
        r#"
        int f(int x) {
            int y = x;
            if (x > 0) {
                int y = 2 * x;
                return y;
            }
            return y;
        }
        "#,
    );
}

#[test]
fn array_field_in_struct() {
    compile(
        r#"
        struct buf { int data[16]; int len; };
        int f(struct buf *b) {
            return b->len;
        }
        "#,
    );
}

#[test]
fn function_pointer_value_lowered_as_funcaddr() {
    let m = compile(
        r#"
        int cb(int x) { return x; }
        void reg(void) {
            install_handler(cb);
        }
        "#,
    );
    let f = m.function(m.function_by_name("reg").unwrap());
    let has_fa = f
        .blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .any(|i| matches!(i.kind, InstKind::FuncAddr { .. }));
    assert!(has_fa);
}

#[test]
fn assignment_in_condition_value() {
    let m = compile(
        r#"
        int f(void) {
            int *p;
            if ((p = acquire()) == NULL) {
                return -1;
            }
            return *p;
        }
        "#,
    );
    assert!(m.function_by_name("f").is_some());
}

#[test]
fn lines_attributed_to_source() {
    let m = compile("int f(void)\n{\n    int x = 1;\n    return x;\n}\n");
    let f = m.function(m.function_by_name("f").unwrap());
    let lines: Vec<u32> = f
        .blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .map(|i| i.loc.line)
        .collect();
    assert!(lines.contains(&3), "{lines:?}");
}

// --------------------------------------------------------------------
// Identity: the modules compiled from the generated corpora are pinned.
// --------------------------------------------------------------------

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compiles `profile` at scale 1.0 with its files added in generation
/// order and returns the printed module's hash and its instruction count.
fn module_identity(profile: OsProfile) -> (u64, usize) {
    let corpus = Corpus::generate(&profile.with_scale(1.0));
    let mut cc = Compiler::new();
    for f in &corpus.files {
        cc.add_source(&f.path, &f.text);
    }
    let m = cc.compile().expect("corpus compiles");
    let insts = m.functions().iter().map(|f| f.inst_count()).sum();
    (fnv1a64(print_module(&m).as_bytes()), insts)
}

#[test]
fn pinned_module_hashes() {
    let pinned = [
        (OsProfile::linux(), 0x99ae_85f1_85d3_52ee, 38_946),
        (OsProfile::zephyr(), 0xde06_a1ee_5067_4731, 3_446),
        (OsProfile::riot(), 0x2c41_5c63_443c_31d8, 7_091),
        (OsProfile::tencent(), 0xfc42_52b1_2086_d47a, 3_400),
    ];
    for (profile, hash, insts) in pinned {
        let name = profile.name;
        let got = module_identity(profile);
        assert_eq!(got, (hash, insts), "{name}: (module hash, instructions)");
    }
}

#[test]
fn pinned_linux_token_count() {
    let corpus = Corpus::generate(&OsProfile::linux().with_scale(1.0));
    let tokens: usize = corpus
        .files
        .iter()
        .map(|f| Lexer::new(&f.path, &f.text).lex().expect("lexes").len())
        .sum();
    assert_eq!(tokens, 171_073);
}

// --------------------------------------------------------------------
// Precedence and associativity: AST shapes.
// --------------------------------------------------------------------

fn e(kind: ExprKind) -> Expr {
    Expr::new(kind, 1)
}

fn id(name: &str) -> Expr {
    e(ExprKind::Ident(name.to_owned()))
}

fn bin(op: AstBinOp, lhs: Expr, rhs: Expr) -> Expr {
    e(ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)))
}

/// The statements of `f`'s body, parsed from a one-line source.
fn body(stmts: &str) -> Vec<pata_cc::Stmt> {
    let src = format!("void f(void) {{ {stmts} }}");
    let unit = Parser::parse_source("prec.c", &src).expect("parses");
    unit.functions
        .into_iter()
        .next()
        .expect("one function")
        .body
}

/// The expression of `return <expr>;`.
fn returned(expr: &str) -> Expr {
    match body(&format!("return {expr};")).remove(0).kind {
        StmtKind::Return(Some(e)) => e,
        other => panic!("not a return: {other:?}"),
    }
}

#[test]
fn binary_operators_are_left_associative() {
    use AstBinOp::*;
    assert_eq!(
        returned("a - b - c"),
        bin(Sub, bin(Sub, id("a"), id("b")), id("c"))
    );
}

#[test]
fn precedence_levels() {
    use AstBinOp::*;
    assert_eq!(
        returned("a || b && c"),
        bin(LogOr, id("a"), bin(LogAnd, id("b"), id("c")))
    );
    assert_eq!(
        returned("a < b << c"),
        bin(Lt, id("a"), bin(Shl, id("b"), id("c")))
    );
    assert_eq!(
        returned("a & b == c"),
        bin(BitAnd, id("a"), bin(Eq, id("b"), id("c")))
    );
    assert_eq!(
        returned("-a * b"),
        bin(Mul, e(ExprKind::Neg(Box::new(id("a")))), id("b"))
    );
    assert_eq!(
        returned("!p || p->f"),
        bin(
            LogOr,
            e(ExprKind::Not(Box::new(id("p")))),
            e(ExprKind::Arrow(Box::new(id("p")), "f".to_owned()))
        )
    );
}

#[test]
fn compound_assignment_desugars_around_the_whole_rhs() {
    let stmt = body("x += y - z;").remove(0);
    let StmtKind::Assign { lhs, rhs } = stmt.kind else {
        panic!("not an assignment: {stmt:?}");
    };
    assert_eq!(lhs, id("x"));
    assert_eq!(
        rhs,
        bin(AstBinOp::Add, id("x"), bin(AstBinOp::Sub, id("y"), id("z")))
    );
}

// --------------------------------------------------------------------
// Scoping: shadowing, `for`-init scopes and function-wide labels.
// --------------------------------------------------------------------

/// `(dst, src)` of every `move` in `func`, in block order.
fn moves(m: &pata_ir::Module, func: &str) -> Vec<(VarId, VarId)> {
    let f = m.function(m.function_by_name(func).unwrap());
    f.blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .filter_map(|i| match i.kind {
            InstKind::Move { dst, src } => Some((dst, src)),
            _ => None,
        })
        .collect()
}

/// The variables of `func` named `name`, in declaration order.
fn vars_named(m: &pata_ir::Module, func: &str, name: &str) -> Vec<VarId> {
    let fid = m.function_by_name(func).unwrap();
    (0..m.var_count())
        .map(VarId::from_index)
        .filter(|&v| m.var(v).func == Some(fid) && m.var(v).name == name)
        .collect()
}

/// The variable returned by `func`'s only value return.
fn returned_var(m: &pata_ir::Module, func: &str) -> VarId {
    let f = m.function(m.function_by_name(func).unwrap());
    let rets: Vec<VarId> = f
        .blocks()
        .iter()
        .filter_map(|b| match b.term {
            Terminator::Ret(Some(Operand::Var(v))) => Some(v),
            _ => None,
        })
        .collect();
    assert_eq!(rets.len(), 1, "one value return");
    rets[0]
}

#[test]
fn shadowing_across_nested_blocks() {
    let m = compile(
        r#"
        int f(int x) {
            int y = x;
            {
                int x = 5;
                y = x;
                {
                    int x = 7;
                    y = x;
                }
                y = x;
            }
            return x;
        }
        "#,
    );
    let xs = vars_named(&m, "f", "x");
    assert_eq!(xs.len(), 3, "the parameter and two shadowing locals");
    let (param, outer, inner) = (xs[0], xs[1], xs[2]);
    let srcs: Vec<VarId> = moves(&m, "f").into_iter().map(|(_, src)| src).collect();
    assert_eq!(srcs, vec![param, outer, inner, outer]);
    assert_eq!(returned_var(&m, "f"), param);
}

#[test]
fn for_init_declaration_is_scoped_to_the_loop() {
    let m = compile(
        r#"
        int f(int n) {
            int i = 100;
            int s = 0;
            for (int i = 0; i < n; i++) {
                s = i;
            }
            return i;
        }
        "#,
    );
    let is = vars_named(&m, "f", "i");
    assert_eq!(is.len(), 2);
    let s = vars_named(&m, "f", "s")[0];
    let into_s: Vec<VarId> = moves(&m, "f")
        .into_iter()
        .filter(|&(dst, _)| dst == s)
        .map(|(_, src)| src)
        .collect();
    assert_eq!(into_s, vec![is[1]], "the loop body reads the loop's `i`");
    assert_eq!(returned_var(&m, "f"), is[0], "after the loop, `i` is outer");
}

#[test]
fn goto_labels_span_scopes_forward_and_backward() {
    let m = compile(
        r#"
        int f(int n) {
            int r = 0;
            if (n > 0) {
                goto out;
            }
            {
            again:
                r = r + 1;
                if (r < n) {
                    goto again;
                }
            }
            if (r > 10) {
                goto again;
            }
        out:
            return r;
        }
        "#,
    );
    let f = m.function(m.function_by_name("f").unwrap());
    let mut preds = vec![0usize; f.blocks().len()];
    for b in f.blocks() {
        for s in b.term.successors() {
            preds[s.index()] += 1;
        }
    }
    // `again:` is entered by falling into it and by both gotos.
    let again = f
        .blocks()
        .iter()
        .position(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i.kind, InstKind::Bin { .. }))
        })
        .expect("the block computing r + 1");
    assert_eq!(preds[again], 3, "fallthrough, inner and outer goto");
    // `out:` is entered by the forward goto and by falling into it.
    let out = f
        .blocks()
        .iter()
        .position(|b| matches!(b.term, Terminator::Ret(Some(_))))
        .expect("the return block");
    assert_eq!(preds[out], 2, "forward goto and fallthrough");
}

// --------------------------------------------------------------------
// Nesting limit: deep input is a parse error, never a stack overflow.
// --------------------------------------------------------------------

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("does not overflow")
}

/// Sources whose deepest construct nests exactly `depth` levels, one per
/// kind of nesting the parser counts.
fn nested_sources(depth: u32) -> Vec<(&'static str, String)> {
    let n = depth as usize;
    // A statement and its expression take two levels.
    let e = n - 2;
    vec![
        (
            "parentheses",
            format!(
                "int f(int x) {{ return {}x{}; }}",
                "(".repeat(e),
                ")".repeat(e)
            ),
        ),
        (
            "blocks",
            format!("void f(void) {{ {}{} }}", "{".repeat(n), "}".repeat(n)),
        ),
        (
            "unary chain",
            format!("int f(int x) {{ return {}x; }}", "!".repeat(e)),
        ),
        (
            "condition chain",
            format!("int f(int x) {{ if ({}x) {{ }} return 0; }}", "!".repeat(e)),
        ),
        (
            "field chain",
            format!(
                "struct s {{ struct s *n; }};\nint f(struct s *p) {{ return p{}; }}",
                "->n".repeat(e)
            ),
        ),
        (
            "binary chain",
            format!("int f(int x) {{ return x{}; }}", " - x".repeat(e)),
        ),
        (
            "if bodies",
            format!(
                "int f(int x) {{ {} return x; }}",
                "if (x) ".repeat(n - 1) + ";"
            ),
        ),
    ]
}

#[test]
fn input_at_the_nesting_limit_compiles_on_a_small_stack() {
    for (shape, src) in nested_sources(MAX_NESTING) {
        let result = on_small_stack(move || compile_one("deep.c", &src).map(|m| m.var_count()));
        assert!(result.is_ok(), "{shape}: {result:?}");
    }
}

#[test]
fn input_past_the_nesting_limit_is_a_parse_error() {
    for (shape, src) in nested_sources(MAX_NESTING + 1) {
        let result = on_small_stack(move || compile_one("deep.c", &src).map(|m| m.var_count()));
        let diags = result.expect_err(shape);
        assert_eq!(diags.len(), 1, "{shape}");
        assert_eq!(diags[0].kind, DiagKind::Parse, "{shape}");
        assert_eq!(diags[0].message, "nesting too deep", "{shape}");
    }
}

#[test]
fn deeply_nested_reproducers_are_errors() {
    let depth = 20_000;
    for src in [
        format!(
            "int f(int x) {{ return {}x{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        ),
        format!(
            "void f(void) {{ {}{} }}",
            "{".repeat(depth),
            "}".repeat(depth)
        ),
        format!("int f(int x) {{ return {}x; }}", "!".repeat(depth)),
    ] {
        let err = compile_one("deep.c", &src).expect_err("refused");
        assert!(err[0].message.contains("nesting too deep"), "{err:?}");
    }
}
