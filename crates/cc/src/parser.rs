//! Recursive-descent parser for mini-C.
//!
//! The parser pulls tokens from the [`Lexer`] through a window of three,
//! its deepest lookahead ([`Parser::peek_at`]`(2)`), and takes each token
//! once ([`Parser::bump`]); no token vector is built. The diagnostic is
//! the one lexing the whole file first would give: the file's first
//! lexical error wins over any parse error, so a parse error lexes the rest
//! of the file before it is returned. Binary expressions are parsed by
//! precedence climbing over one operator table. Every construct that
//! deepens the AST (statement bodies, expressions, prefix operators,
//! postfix and binary folds, pointer declarators) counts against
//! [`MAX_NESTING`], so neither the parser nor the recursive lowering over
//! its output can exhaust the stack.
//!
//! Statement lists and call arguments are gathered on two stacks the
//! parser reuses, then moved into a `Vec` of exactly their length: an AST
//! kept alive across compilations holds no spare capacity.

use crate::ast::*;
use crate::diag::{Diag, DiagKind};
use crate::lexer::{Lexeme, Lexer};
use crate::name::Name;
use crate::token::Kind;

/// How deep constructs may nest before the parser refuses the input with a
/// "nesting too deep" [`Diag`]. Input at this depth still parses and lowers
/// on a 2 MiB thread stack in an unoptimized build.
pub const MAX_NESTING: u32 = 256;

/// How many tokens the parser sees at once: the current one and two more.
const WINDOW: usize = 3;

/// Parses one mini-C translation unit.
///
/// # Example
///
/// ```
/// use pata_cc::Parser;
///
/// let unit = Parser::parse_source("u.c", "int f(int x) { return x + 1; }").unwrap();
/// assert_eq!(unit.functions.len(), 1);
/// assert_eq!(unit.functions[0].name, "f");
/// ```
#[derive(Debug)]
pub struct Parser<'s> {
    file: &'s str,
    lexer: Lexer<'s>,
    /// The current token and the two after it, starting at `head` and
    /// wrapping around.
    window: [Lexeme; WINDOW],
    head: usize,
    depth: u32,
    /// Statements of the blocks being parsed; a nested block pushes above
    /// its parent's and drains its own.
    stmts: Vec<Stmt>,
    /// Arguments of the calls being parsed, stacked the same way.
    args: Vec<Expr>,
    /// The parameters of the function being parsed.
    params: Vec<ParamDecl>,
}

impl<'s> Parser<'s> {
    /// Lexes and parses `source` into a [`Unit`].
    ///
    /// # Errors
    ///
    /// Returns the first lexical error of the file if it has one, and
    /// otherwise the first syntactic error.
    pub fn parse_source(file: &'s str, source: &'s str) -> Result<Unit, Diag> {
        let mut lexer = Lexer::new(file, source);
        let window = [(); WINDOW].map(|()| lexer.next_lexeme());
        let mut parser = Parser {
            file,
            lexer,
            window,
            head: 0,
            depth: 0,
            // Room for the nesting of typical functions, so that the stacks
            // of a small file do not grow step by step.
            stmts: Vec::with_capacity(32),
            args: Vec::with_capacity(16),
            params: Vec::new(),
        };
        // A lexical error stops the lexer and fills the window with
        // end-of-input tokens; it is returned whatever the parser makes of
        // them.
        let parsed = parser.parse_unit();
        if parsed.is_err() {
            // A lexical error later in the file wins too.
            while parser.lexer.next_lexeme().kind != Kind::Eof {}
        }
        if let Some(d) = parser.lexer.error() {
            return Err(d);
        }
        let mut unit = parsed?;
        // The parser stopped at the end of input, which sits on line
        // `newlines + 1`. A final line without a newline counts too, as in
        // `str::lines`.
        let newlines = parser.line() - 1;
        unit.lines = newlines + u32::from(!source.is_empty() && !source.ends_with('\n'));
        Ok(unit)
    }

    fn peek(&self) -> Kind {
        self.window[self.head].kind
    }

    /// The kind of the token `offset` places after the current one
    /// (`offset < 3`).
    fn peek_at(&self, offset: usize) -> Kind {
        let i = self.head + offset;
        self.window[if i >= WINDOW { i - WINDOW } else { i }].kind
    }

    fn line(&self) -> u32 {
        self.window[self.head].line
    }

    /// Takes the current token and advances; the lexer fills the freed
    /// slot with the token two after the new current one. At the end of
    /// input this keeps returning `Eof`.
    fn bump(&mut self) -> Lexeme {
        let slot = &mut self.window[self.head];
        let token = *slot;
        *slot = self.lexer.next_lexeme();
        self.head = if self.head + 1 == WINDOW {
            0
        } else {
            self.head + 1
        };
        token
    }

    /// How a diagnostic names `token`.
    fn describe(&self, token: &Lexeme) -> String {
        self.lexer.token_kind(token).describe()
    }

    /// Descends one nesting level; past [`MAX_NESTING`] the input is refused.
    /// Every error abandons the whole parse, so error returns skip the
    /// matching [`Parser::leave`].
    fn enter(&mut self) -> Result<(), Diag> {
        if self.depth >= MAX_NESTING {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Ascends `levels` nesting levels.
    fn leave(&mut self, levels: u32) {
        self.depth -= levels;
    }

    fn at(&self, kind: Kind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: Kind) -> bool {
        let hit = self.at(kind);
        if hit {
            self.bump();
        }
        hit
    }

    /// Takes a token of `kind`, a kind that carries no value.
    fn expect(&mut self, kind: Kind) -> Result<(), Diag> {
        if self.at(kind) {
            self.bump();
            Ok(())
        } else {
            let expected = kind.fixed().expect("a kind without a value");
            let found = self.describe(&self.window[self.head]);
            Err(self.err(format!("expected {}, found {found}", expected.describe())))
        }
    }

    fn expect_ident(&mut self) -> Result<Name, Diag> {
        let token = self.bump();
        if token.kind == Kind::Ident {
            Ok(self.lexer.name(&token))
        } else {
            let found = self.describe(&token);
            Err(self.err(format!("expected identifier, found {found}")))
        }
    }

    fn err(&self, message: impl Into<String>) -> Diag {
        Diag::new(DiagKind::Parse, self.file, self.line(), message)
    }

    fn parse_unit(&mut self) -> Result<Unit, Diag> {
        let mut unit = Unit {
            file: self.file.to_owned(),
            ..Unit::default()
        };
        while !self.at(Kind::Eof) {
            self.parse_top_level(&mut unit)?;
        }
        Ok(unit)
    }

    fn skip_qualifiers(&mut self) {
        while matches!(
            self.peek(),
            Kind::KwStatic | Kind::KwConst | Kind::KwInline | Kind::KwUnsigned
        ) {
            self.bump();
        }
    }

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            Kind::KwInt
                | Kind::KwVoid
                | Kind::KwChar
                | Kind::KwLong
                | Kind::KwUnsigned
                | Kind::KwStruct
                | Kind::KwConst
        )
    }

    /// Parses a base type plus pointer stars.
    fn parse_type(&mut self) -> Result<TypeExpr, Diag> {
        self.skip_qualifiers();
        let token = self.bump();
        let base = match token.kind {
            Kind::KwInt | Kind::KwChar | Kind::KwLong => TypeExpr::Int,
            Kind::KwVoid => TypeExpr::Void,
            Kind::KwStruct => {
                let name = self.expect_ident()?;
                TypeExpr::Struct(name)
            }
            _ => {
                let found = self.describe(&token);
                return Err(self.err(format!("expected type, found {found}")));
            }
        };
        let mut levels = 0;
        loop {
            self.skip_qualifiers();
            if self.eat(Kind::Star) {
                self.enter()?;
                levels += 1;
            } else {
                break;
            }
        }
        self.leave(levels);
        Ok(base.with_pointers(levels as usize))
    }

    fn parse_top_level(&mut self, unit: &mut Unit) -> Result<(), Diag> {
        self.skip_qualifiers();
        let line = self.line();
        // struct definition: `struct name { … };`
        if self.at(Kind::KwStruct)
            && matches!(self.peek_at(1), Kind::Ident)
            && matches!(self.peek_at(2), Kind::LBrace)
        {
            self.bump();
            let name = self.expect_ident()?;
            self.expect(Kind::LBrace)?;
            let mut fields = Vec::new();
            while !self.at(Kind::RBrace) {
                let fty = self.parse_type()?;
                let fname = self.expect_ident()?;
                // Fixed-size array fields become the element type (the
                // analysis is array-insensitive anyway).
                if self.eat(Kind::LBracket) {
                    while !matches!(self.peek(), Kind::RBracket | Kind::Eof) {
                        self.bump();
                    }
                    self.expect(Kind::RBracket)?;
                }
                self.expect(Kind::Semi)?;
                fields.push((fname, fty));
            }
            self.expect(Kind::RBrace)?;
            self.expect(Kind::Semi)?;
            unit.structs.push(StructDecl { name, fields, line });
            return Ok(());
        }

        let ty = self.parse_type()?;
        let name = self.expect_ident()?;

        if self.at(Kind::LParen) {
            // Function definition or prototype.
            self.bump();
            self.params.clear();
            if !self.at(Kind::RParen) {
                loop {
                    if self.at(Kind::KwVoid) && matches!(self.peek_at(1), Kind::RParen) {
                        self.bump();
                        break;
                    }
                    let pty = self.parse_type()?;
                    let pname = match self.peek() {
                        Kind::Ident => self.expect_ident()?,
                        // Unnamed parameter (prototype) — synthesize.
                        _ => format!("__arg{}", self.params.len()).into(),
                    };
                    if self.eat(Kind::LBracket) {
                        self.expect(Kind::RBracket)?;
                    }
                    self.params.push(ParamDecl {
                        name: pname,
                        ty: pty,
                    });
                    if !self.eat(Kind::Comma) {
                        break;
                    }
                }
            }
            self.expect(Kind::RParen)?;
            if self.eat(Kind::Semi) {
                // Prototype: declaration only, no body — ignore.
                return Ok(());
            }
            self.expect(Kind::LBrace)?;
            let params = self.params.drain(..).collect();
            let body = self.parse_block_body()?;
            unit.functions.push(FuncDecl {
                name,
                ret: ty,
                params,
                body,
                line,
            });
            return Ok(());
        }

        // Global variable, possibly with designated initializers.
        let mut registered = Vec::new();
        if self.eat(Kind::Assign) {
            if self.eat(Kind::LBrace) {
                while !self.at(Kind::RBrace) {
                    if self.eat(Kind::Dot) {
                        let _field = self.expect_ident()?;
                        self.expect(Kind::Assign)?;
                        if matches!(self.peek(), Kind::Ident) {
                            registered.push(self.expect_ident()?);
                        } else {
                            // Non-function initializer value.
                            let _ = self.parse_assignment()?;
                        }
                    } else {
                        let _ = self.parse_assignment()?;
                    }
                    if !self.eat(Kind::Comma) {
                        break;
                    }
                }
                self.expect(Kind::RBrace)?;
            } else {
                let _ = self.parse_assignment()?;
            }
        }
        self.expect(Kind::Semi)?;
        unit.globals.push(GlobalDecl {
            name,
            ty,
            registered_funcs: registered,
            line,
        });
        Ok(())
    }

    /// Parses statements until the closing `}` (which is consumed).
    fn parse_block_body(&mut self) -> Result<Vec<Stmt>, Diag> {
        let mark = self.stmts.len();
        while !self.at(Kind::RBrace) {
            if self.at(Kind::Eof) {
                return Err(self.err("unexpected end of input in block"));
            }
            self.parse_stmt()?;
        }
        self.expect(Kind::RBrace)?;
        // A drain knows its length, so the `Vec` is allocated exactly.
        Ok(self.stmts.drain(mark..).collect())
    }

    /// One statement, pushed onto the statement stack (a statement is
    /// large, so it is not moved through a return value). Every level of
    /// statement nesting repeats this frame, so it only picks the
    /// statement's parser and calls it once.
    fn parse_stmt(&mut self) -> Result<(), Diag> {
        self.enter()?;
        let line = self.line();
        let parse: fn(&mut Self) -> Result<StmtKind, Diag> = match self.peek() {
            Kind::LBrace => Self::parse_block_stmt,
            Kind::KwIf => Self::parse_if,
            Kind::KwWhile => Self::parse_while,
            Kind::KwFor => Self::parse_for,
            Kind::KwReturn => Self::parse_return,
            Kind::KwGoto | Kind::KwBreak | Kind::KwContinue => Self::parse_jump,
            Kind::Ident if matches!(self.peek_at(1), Kind::Colon) => Self::parse_label,
            Kind::Semi => Self::parse_empty,
            _ => Self::parse_expr_stmt,
        };
        let kind = parse(self)?;
        self.leave(1);
        self.stmts.push(Stmt::new(kind, line));
        Ok(())
    }

    fn parse_block_stmt(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        Ok(StmtKind::Block(self.parse_block_body()?))
    }

    fn parse_if(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        let cond = self.parse_condition()?;
        let then_body = self.parse_stmt_as_block()?;
        let else_body = if self.eat(Kind::KwElse) {
            self.parse_stmt_as_block()?
        } else {
            Vec::new()
        };
        Ok(StmtKind::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn parse_while(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        let cond = self.parse_condition()?;
        let body = self.parse_stmt_as_block()?;
        Ok(StmtKind::While { cond, body })
    }

    /// `( expression )` after `if` or `while`.
    fn parse_condition(&mut self) -> Result<Expr, Diag> {
        self.expect(Kind::LParen)?;
        let cond = self.parse_assignment()?;
        self.expect(Kind::RParen)?;
        Ok(cond)
    }

    fn parse_for(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        self.expect(Kind::LParen)?;
        let init = if self.eat(Kind::Semi) {
            None
        } else {
            let s = self.parse_simple_stmt()?;
            self.expect(Kind::Semi)?;
            Some(Box::new(s))
        };
        let cond = if self.at(Kind::Semi) {
            None
        } else {
            Some(self.parse_assignment()?)
        };
        self.expect(Kind::Semi)?;
        let step = if self.at(Kind::RParen) {
            None
        } else {
            Some(Box::new(self.parse_simple_stmt()?))
        };
        self.expect(Kind::RParen)?;
        let body = self.parse_stmt_as_block()?;
        Ok(StmtKind::For {
            init,
            cond,
            step,
            body,
        })
    }

    fn parse_return(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        let value = if self.at(Kind::Semi) {
            None
        } else {
            Some(self.parse_assignment()?)
        };
        self.expect(Kind::Semi)?;
        Ok(StmtKind::Return(value))
    }

    /// `goto label;`, `break;` or `continue;`.
    fn parse_jump(&mut self) -> Result<StmtKind, Diag> {
        let kind = match self.bump().kind {
            Kind::KwGoto => StmtKind::Goto(self.expect_ident()?),
            Kind::KwBreak => StmtKind::Break,
            _ => StmtKind::Continue,
        };
        self.expect(Kind::Semi)?;
        Ok(kind)
    }

    fn parse_label(&mut self) -> Result<StmtKind, Diag> {
        let label = self.expect_ident()?;
        self.expect(Kind::Colon)?;
        Ok(StmtKind::Label(label))
    }

    /// A lone `;`: an empty block.
    fn parse_empty(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        Ok(StmtKind::Block(Vec::new()))
    }

    fn parse_expr_stmt(&mut self) -> Result<StmtKind, Diag> {
        let s = self.parse_simple_stmt()?;
        self.expect(Kind::Semi)?;
        Ok(s.kind)
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<Stmt>, Diag> {
        if self.eat(Kind::LBrace) {
            self.parse_block_body()
        } else {
            let mark = self.stmts.len();
            self.parse_stmt()?;
            Ok(self.stmts.drain(mark..).collect())
        }
    }

    /// A declaration or expression statement, *without* the trailing `;`
    /// (shared between statement and `for`-clause positions).
    fn parse_simple_stmt(&mut self) -> Result<Stmt, Diag> {
        let line = self.line();
        if self.at_type_start() {
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            let mut is_array = false;
            if self.eat(Kind::LBracket) {
                while !matches!(self.peek(), Kind::RBracket | Kind::Eof) {
                    self.bump();
                }
                self.expect(Kind::RBracket)?;
                is_array = true;
            }
            let init = if self.eat(Kind::Assign) {
                Some(self.parse_assignment()?)
            } else {
                None
            };
            return Ok(Stmt::new(
                StmtKind::Decl {
                    ty,
                    name,
                    init,
                    is_array,
                },
                line,
            ));
        }
        // A statement takes an assignment's two sides as they are parsed,
        // without boxing them into an expression first.
        let kind = match self.parse_assignment_parts()? {
            (lhs, Some(rhs), _) => StmtKind::Assign { lhs, rhs },
            (expr, None, _) => match expr.kind {
                // A prefix update (`++i;`) is an assignment expression.
                ExprKind::Assign(lhs, rhs) => StmtKind::Assign {
                    lhs: *lhs,
                    rhs: *rhs,
                },
                _ => StmtKind::Expr(expr),
            },
        };
        Ok(Stmt::new(kind, line))
    }

    /// assignment := binary (`=` assignment)? | compound/incdec sugar
    fn parse_assignment(&mut self) -> Result<Expr, Diag> {
        Ok(match self.parse_assignment_parts()? {
            (target, Some(value), line) => {
                Expr::new(ExprKind::Assign(Box::new(target), Box::new(value)), line)
            }
            (expr, None, _) => expr,
        })
    }

    /// [`Parser::parse_assignment`] in parts: the expression, or the
    /// target and the value of an assignment, with its line.
    fn parse_assignment_parts(&mut self) -> Result<(Expr, Option<Expr>, u32), Diag> {
        self.enter()?;
        let line = self.line();
        let target = self.parse_binary(0)?;
        let value = if matches!(
            self.peek(),
            Kind::Assign | Kind::PlusAssign | Kind::MinusAssign | Kind::PlusPlus | Kind::MinusMinus
        ) {
            Some(self.parse_assigned_value(&target, line)?)
        } else {
            None
        };
        self.leave(1);
        Ok((target, value, line))
    }

    /// The assignment operator after `target`, and the value assigned;
    /// compound and postfix updates desugar to plain assignments.
    fn parse_assigned_value(&mut self, target: &Expr, line: u32) -> Result<Expr, Diag> {
        let (op, rhs) = match self.bump().kind {
            Kind::Assign => return self.parse_assignment(),
            Kind::PlusAssign => (AstBinOp::Add, self.parse_assignment()?),
            Kind::MinusAssign => (AstBinOp::Sub, self.parse_assignment()?),
            Kind::PlusPlus => (AstBinOp::Add, Expr::new(ExprKind::Int(1), line)),
            _ => (AstBinOp::Sub, Expr::new(ExprKind::Int(1), line)),
        };
        Ok(updated(target, op, rhs, line))
    }

    /// The binary operator at the cursor with its precedence level, from
    /// `||` (loosest, 0) to the multiplicative operators (tightest, 9). All
    /// of them are left-associative.
    fn binop(&self) -> Option<(AstBinOp, u8)> {
        let op = match self.peek() {
            Kind::OrOr => (AstBinOp::LogOr, 0),
            Kind::AndAnd => (AstBinOp::LogAnd, 1),
            Kind::Pipe => (AstBinOp::BitOr, 2),
            Kind::Caret => (AstBinOp::BitXor, 3),
            Kind::Amp => (AstBinOp::BitAnd, 4),
            Kind::EqEq => (AstBinOp::Eq, 5),
            Kind::NotEq => (AstBinOp::Ne, 5),
            Kind::Lt => (AstBinOp::Lt, 6),
            Kind::Le => (AstBinOp::Le, 6),
            Kind::Gt => (AstBinOp::Gt, 6),
            Kind::Ge => (AstBinOp::Ge, 6),
            Kind::Shl => (AstBinOp::Shl, 7),
            Kind::Shr => (AstBinOp::Shr, 7),
            Kind::Plus => (AstBinOp::Add, 8),
            Kind::Minus => (AstBinOp::Sub, 8),
            Kind::Star => (AstBinOp::Mul, 9),
            Kind::Slash => (AstBinOp::Div, 9),
            Kind::Percent => (AstBinOp::Rem, 9),
            _ => return None,
        };
        Some(op)
    }

    /// Precedence climbing: parses a unary operand, then folds every
    /// operator binding at least as tightly as `min_level`. Each fold
    /// deepens the tree, so it counts as one nesting level.
    fn parse_binary(&mut self, min_level: u8) -> Result<Expr, Diag> {
        let mut lhs = self.parse_unary()?;
        let mut folds = 0;
        while let Some((op, level)) = self.binop() {
            if level < min_level {
                break;
            }
            let line = self.line();
            self.bump();
            self.enter()?;
            folds += 1;
            let rhs = self.parse_binary(level + 1)?;
            lhs = Expr::new(ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)), line);
        }
        self.leave(folds);
        Ok(lhs)
    }

    /// A unary expression: prefix operators (each one nesting level) over a
    /// postfix expression.
    fn parse_unary(&mut self) -> Result<Expr, Diag> {
        if !self.at_prefix_op() {
            return self.parse_postfix();
        }
        self.enter()?;
        let e = self.parse_prefixed()?;
        self.leave(1);
        Ok(e)
    }

    /// Whether the cursor is at a prefix operator, `sizeof` or a cast.
    fn at_prefix_op(&self) -> bool {
        match self.peek() {
            Kind::Star
            | Kind::Amp
            | Kind::Not
            | Kind::Minus
            | Kind::Tilde
            | Kind::PlusPlus
            | Kind::MinusMinus
            | Kind::KwSizeof => true,
            Kind::LParen => self.is_cast_start(),
            _ => false,
        }
    }

    /// A prefix operator, `sizeof` or cast with its operand.
    fn parse_prefixed(&mut self) -> Result<Expr, Diag> {
        let line = self.line();
        let wrap: fn(Box<Expr>) -> ExprKind = match self.bump().kind {
            Kind::Star => ExprKind::Deref,
            Kind::Amp => ExprKind::AddrOf,
            Kind::Not => ExprKind::Not,
            Kind::Minus => ExprKind::Neg,
            Kind::Tilde => ExprKind::BitNot,
            Kind::PlusPlus => return self.parse_prefix_update(AstBinOp::Add, line),
            Kind::MinusMinus => return self.parse_prefix_update(AstBinOp::Sub, line),
            Kind::KwSizeof => return self.parse_sizeof(line),
            _ => {
                let ty = self.parse_type()?;
                self.expect(Kind::RParen)?;
                let e = self.parse_unary()?;
                return Ok(Expr::new(ExprKind::Cast(ty, Box::new(e)), line));
            }
        };
        let e = self.parse_unary()?;
        Ok(Expr::new(wrap(Box::new(e)), line))
    }

    /// Prefix increment/decrement as statement sugar.
    fn parse_prefix_update(&mut self, op: AstBinOp, line: u32) -> Result<Expr, Diag> {
        let e = self.parse_unary()?;
        let one = Expr::new(ExprKind::Int(1), line);
        Ok(update(e, op, one, line))
    }

    /// `sizeof(type)`, `sizeof(expr)` or `sizeof expr`: an opaque constant.
    fn parse_sizeof(&mut self, line: u32) -> Result<Expr, Diag> {
        if self.eat(Kind::LParen) {
            // Skip to the matching parenthesis.
            let mut open = 1;
            while open > 0 {
                match self.bump().kind {
                    Kind::LParen => open += 1,
                    Kind::RParen => open -= 1,
                    Kind::Eof => return Err(self.err("unterminated sizeof")),
                    _ => {}
                }
            }
        } else {
            let _ = self.parse_unary()?;
        }
        Ok(Expr::new(ExprKind::Sizeof, line))
    }

    /// Whether the upcoming `(`-token starts a cast like `(struct s *)`.
    fn is_cast_start(&self) -> bool {
        debug_assert_eq!(self.peek(), Kind::LParen);
        matches!(
            self.peek_at(1),
            Kind::KwInt
                | Kind::KwVoid
                | Kind::KwChar
                | Kind::KwLong
                | Kind::KwUnsigned
                | Kind::KwStruct
                | Kind::KwConst
        )
    }

    /// A primary expression and its postfix chain; each `->`, `.`, `[]` or
    /// call wraps the tree once more and counts as one nesting level.
    fn parse_postfix(&mut self) -> Result<Expr, Diag> {
        let mut e = self.parse_primary()?;
        let mut folds = 0;
        while matches!(
            self.peek(),
            Kind::Arrow | Kind::Dot | Kind::LBracket | Kind::LParen
        ) {
            self.enter()?;
            folds += 1;
            e = self.parse_postfix_op(e)?;
        }
        self.leave(folds);
        Ok(e)
    }

    /// One `->field`, `.field`, `[index]` or `(args)` applied to `e`.
    fn parse_postfix_op(&mut self, e: Expr) -> Result<Expr, Diag> {
        let line = self.line();
        let base = Box::new(e);
        let kind = match self.bump().kind {
            Kind::Arrow => ExprKind::Arrow(base, self.expect_ident()?),
            Kind::Dot => ExprKind::Dot(base, self.expect_ident()?),
            Kind::LBracket => {
                let idx = self.parse_assignment()?;
                self.expect(Kind::RBracket)?;
                ExprKind::Index(base, Box::new(idx))
            }
            _ => {
                let mark = self.args.len();
                if !self.at(Kind::RParen) {
                    loop {
                        let arg = self.parse_assignment()?;
                        self.args.push(arg);
                        if !self.eat(Kind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Kind::RParen)?;
                ExprKind::Call(base, self.args.drain(mark..).collect())
            }
        };
        Ok(Expr::new(kind, line))
    }

    fn parse_primary(&mut self) -> Result<Expr, Diag> {
        let line = self.line();
        let token = self.bump();
        let kind = match token.kind {
            Kind::Int => ExprKind::Int(token.int()),
            Kind::KwNull => ExprKind::Null,
            Kind::Str => ExprKind::Str(self.lexer.string(&token)),
            Kind::Ident => ExprKind::Ident(self.lexer.name(&token)),
            Kind::LParen => {
                let e = self.parse_assignment()?;
                self.expect(Kind::RParen)?;
                return Ok(e);
            }
            _ => {
                let found = self.describe(&token);
                return Err(Diag::new(
                    DiagKind::Parse,
                    self.file,
                    line,
                    format!("expected expression, found {found}"),
                ));
            }
        };
        Ok(Expr::new(kind, line))
    }
}

/// `target op rhs`: the value `+=`, `-=`, `++` and `--` assign.
fn updated(target: &Expr, op: AstBinOp, rhs: Expr, line: u32) -> Expr {
    Expr::new(
        ExprKind::Bin(op, Box::new(target.clone()), Box::new(rhs)),
        line,
    )
}

/// `target = target op rhs`: the desugaring of `+=`, `-=`, `++` and `--`.
fn update(target: Expr, op: AstBinOp, rhs: Expr, line: u32) -> Expr {
    let value = updated(&target, op, rhs, line);
    Expr::new(ExprKind::Assign(Box::new(target), Box::new(value)), line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Unit {
        Parser::parse_source("t.c", src).unwrap()
    }

    #[test]
    fn struct_definition() {
        let u = parse("struct dev { int *data; struct dev *next; };");
        assert_eq!(u.structs.len(), 1);
        assert_eq!(u.structs[0].fields.len(), 2);
        assert_eq!(
            u.structs[0].fields[1].1,
            TypeExpr::Ptr(Box::new(TypeExpr::Struct("dev".into())))
        );
    }

    #[test]
    fn driver_registration_global() {
        let u = parse(
            "static struct platform_driver s5p_mfc_driver = {\
              .probe = s5p_mfc_probe, .remove = s5p_mfc_remove };",
        );
        assert_eq!(u.globals.len(), 1);
        assert_eq!(
            u.globals[0].registered_funcs,
            vec!["s5p_mfc_probe", "s5p_mfc_remove"]
        );
    }

    #[test]
    fn function_with_control_flow() {
        let u = parse(
            "int f(struct a *p, int n) {\n\
               int i;\n\
               for (i = 0; i < n; i++) {\n\
                 if (p->data == NULL) { goto fail; }\n\
               }\n\
               return 0;\n\
             fail:\n\
               return -1;\n\
             }",
        );
        assert_eq!(u.functions.len(), 1);
        let f = &u.functions[0];
        assert_eq!(f.params.len(), 2);
        assert!(matches!(f.body[1].kind, StmtKind::For { .. }));
        assert!(matches!(f.body[3].kind, StmtKind::Label(_)));
    }

    #[test]
    fn prototypes_are_skipped() {
        let u = parse("int declared_only(int x);\nint real(void) { return 0; }");
        assert_eq!(u.functions.len(), 1);
        assert_eq!(u.functions[0].name, "real");
    }

    #[test]
    fn expression_forms() {
        let u = parse(
            "int f(struct s *p, int *a, int i) {\n\
               int x = p->f + a[i] * 2;\n\
               x += *a;\n\
               x = (int)x << 3 & 7;\n\
               if (!p || p->g != NULL && x >= 0) { x = -x; }\n\
               return sizeof(struct s) + x;\n\
             }",
        );
        assert_eq!(u.functions.len(), 1);
    }

    #[test]
    fn assign_in_condition() {
        let u =
            parse("int g(void) { int *m; if ((m = alloc(4)) == NULL) { return -1; } return 0; }");
        let f = &u.functions[0];
        assert!(matches!(f.body[1].kind, StmtKind::If { .. }));
    }

    #[test]
    fn increments_desugar_to_assign() {
        let u = parse("void f(void) { int i = 0; i++; --i; i += 2; }");
        let f = &u.functions[0];
        assert!(f.body[1..]
            .iter()
            .all(|s| matches!(s.kind, StmtKind::Assign { .. })));
    }

    #[test]
    fn error_reports_line() {
        let err = Parser::parse_source("t.c", "int f(void) {\n  return 1 +;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn line_count_recorded() {
        let u = parse("int f(void)\n{\n return 0;\n}\n");
        assert_eq!(u.lines, 4);
        for src in [
            "",
            "\n",
            "int x;",
            "int x;\n\n",
            "int x;\r\n/* a\nb */ int y;",
        ] {
            assert_eq!(parse(src).lines as usize, src.lines().count(), "{src:?}");
        }
    }
}
