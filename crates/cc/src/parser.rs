//! Recursive-descent parser for mini-C.
//!
//! Tokens are moved out of the lexed vector exactly once ([`Parser::bump`]);
//! binary expressions are parsed by precedence climbing over one operator
//! table. Every construct that deepens the AST (statement bodies,
//! expressions, prefix operators, postfix and binary folds, pointer
//! declarators) counts against [`MAX_NESTING`], so neither the parser nor
//! the recursive lowering over its output can exhaust the stack.
//!
//! Statement lists and call arguments are gathered on two stacks the
//! parser reuses, then moved into a `Vec` of exactly their length: an AST
//! kept alive across compilations holds no spare capacity.

use crate::ast::*;
use crate::diag::{Diag, DiagKind};
use crate::lexer::Lexer;
use crate::name::Name;
use crate::token::{Token, TokenKind};

/// How deep constructs may nest before the parser refuses the input with a
/// "nesting too deep" [`Diag`]. Input at this depth still parses and lowers
/// on a 2 MiB thread stack in an unoptimized build.
pub const MAX_NESTING: u32 = 256;

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
pub struct Parser {
    file: String,
    tokens: Vec<Token>,
    pos: usize,
    depth: u32,
    /// Statements of the blocks being parsed; a nested block pushes above
    /// its parent's and drains its own.
    stmts: Vec<Stmt>,
    /// Arguments of the calls being parsed, stacked the same way.
    args: Vec<Expr>,
}

impl Parser {
    /// Lexes and parses `source` into a [`Unit`].
    ///
    /// # Errors
    ///
    /// Returns the first lexical or syntactic error.
    pub fn parse_source(file: &str, source: &str) -> Result<Unit, Diag> {
        let tokens = Lexer::new(file, source).lex()?;
        // The lexer counts every newline: the end-of-input token sits on
        // line `newlines + 1`. A final line without a newline counts too,
        // as in `str::lines`.
        let newlines = tokens.last().map_or(0, |t| t.line - 1);
        let lines = newlines + u32::from(!source.is_empty() && !source.ends_with('\n'));
        let mut parser = Parser {
            file: file.to_owned(),
            tokens,
            pos: 0,
            depth: 0,
            stmts: Vec::new(),
            args: Vec::new(),
        };
        let mut unit = parser.parse_unit()?;
        unit.lines = lines;
        Ok(unit)
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    /// Moves the current token out (each token is consumed once; the last,
    /// `Eof`, is left in place) and advances.
    fn bump(&mut self) -> TokenKind {
        let last = self.tokens.len() - 1;
        if self.pos >= last {
            self.pos = self.tokens.len();
            return TokenKind::Eof;
        }
        self.pos += 1;
        std::mem::replace(&mut self.tokens[self.pos - 1].kind, TokenKind::Eof)
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

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), Diag> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<Name, Diag> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn err(&self, message: impl Into<String>) -> Diag {
        Diag::new(DiagKind::Parse, &self.file, self.line(), message)
    }

    fn parse_unit(&mut self) -> Result<Unit, Diag> {
        let mut unit = Unit {
            file: self.file.clone(),
            ..Unit::default()
        };
        while self.peek() != &TokenKind::Eof {
            self.parse_top_level(&mut unit)?;
        }
        Ok(unit)
    }

    fn skip_qualifiers(&mut self) {
        while matches!(
            self.peek(),
            TokenKind::KwStatic | TokenKind::KwConst | TokenKind::KwInline | TokenKind::KwUnsigned
        ) {
            self.bump();
        }
    }

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::KwInt
                | TokenKind::KwVoid
                | TokenKind::KwChar
                | TokenKind::KwLong
                | TokenKind::KwUnsigned
                | TokenKind::KwStruct
                | TokenKind::KwConst
        )
    }

    /// Parses a base type plus pointer stars.
    fn parse_type(&mut self) -> Result<TypeExpr, Diag> {
        self.skip_qualifiers();
        let base = match self.bump() {
            TokenKind::KwInt | TokenKind::KwChar | TokenKind::KwLong => TypeExpr::Int,
            TokenKind::KwVoid => TypeExpr::Void,
            TokenKind::KwStruct => {
                let name = self.expect_ident()?;
                TypeExpr::Struct(name)
            }
            other => return Err(self.err(format!("expected type, found {other}"))),
        };
        let mut levels = 0;
        loop {
            self.skip_qualifiers();
            if self.eat(&TokenKind::Star) {
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
        if self.peek() == &TokenKind::KwStruct
            && matches!(self.peek_at(1), TokenKind::Ident(_))
            && self.peek_at(2) == &TokenKind::LBrace
        {
            self.bump();
            let name = self.expect_ident()?;
            self.expect(TokenKind::LBrace)?;
            let mut fields = Vec::new();
            while self.peek() != &TokenKind::RBrace {
                let fty = self.parse_type()?;
                let fname = self.expect_ident()?;
                // Fixed-size array fields become the element type (the
                // analysis is array-insensitive anyway).
                if self.eat(&TokenKind::LBracket) {
                    while self.peek() != &TokenKind::RBracket {
                        self.bump();
                    }
                    self.expect(TokenKind::RBracket)?;
                }
                self.expect(TokenKind::Semi)?;
                fields.push((fname, fty));
            }
            self.expect(TokenKind::RBrace)?;
            self.expect(TokenKind::Semi)?;
            unit.structs.push(StructDecl { name, fields, line });
            return Ok(());
        }

        let ty = self.parse_type()?;
        let name = self.expect_ident()?;

        if self.peek() == &TokenKind::LParen {
            // Function definition or prototype.
            self.bump();
            let mut params = Vec::new();
            if self.peek() != &TokenKind::RParen {
                loop {
                    if self.peek() == &TokenKind::KwVoid && self.peek_at(1) == &TokenKind::RParen {
                        self.bump();
                        break;
                    }
                    let pty = self.parse_type()?;
                    let pname = match self.peek() {
                        TokenKind::Ident(_) => self.expect_ident()?,
                        // Unnamed parameter (prototype) — synthesize.
                        _ => format!("__arg{}", params.len()).into(),
                    };
                    if self.eat(&TokenKind::LBracket) {
                        self.expect(TokenKind::RBracket)?;
                    }
                    params.push(ParamDecl {
                        name: pname,
                        ty: pty,
                    });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
            if self.eat(&TokenKind::Semi) {
                // Prototype: declaration only, no body — ignore.
                return Ok(());
            }
            self.expect(TokenKind::LBrace)?;
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
        if self.eat(&TokenKind::Assign) {
            if self.eat(&TokenKind::LBrace) {
                while self.peek() != &TokenKind::RBrace {
                    if self.eat(&TokenKind::Dot) {
                        let _field = self.expect_ident()?;
                        self.expect(TokenKind::Assign)?;
                        if matches!(self.peek(), TokenKind::Ident(_)) {
                            registered.push(self.expect_ident()?);
                        } else {
                            // Non-function initializer value.
                            let _ = self.parse_assignment()?;
                        }
                    } else {
                        let _ = self.parse_assignment()?;
                    }
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBrace)?;
            } else {
                let _ = self.parse_assignment()?;
            }
        }
        self.expect(TokenKind::Semi)?;
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
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(self.err("unexpected end of input in block"));
            }
            let stmt = self.parse_stmt()?;
            self.stmts.push(stmt);
        }
        self.expect(TokenKind::RBrace)?;
        // A drain knows its length, so the `Vec` is allocated exactly.
        Ok(self.stmts.drain(mark..).collect())
    }

    /// One statement. Every level of statement nesting repeats this frame,
    /// so it only picks the statement's parser and calls it once.
    fn parse_stmt(&mut self) -> Result<Stmt, Diag> {
        self.enter()?;
        let line = self.line();
        let parse: fn(&mut Self) -> Result<StmtKind, Diag> = match self.peek() {
            TokenKind::LBrace => Self::parse_block_stmt,
            TokenKind::KwIf => Self::parse_if,
            TokenKind::KwWhile => Self::parse_while,
            TokenKind::KwFor => Self::parse_for,
            TokenKind::KwReturn => Self::parse_return,
            TokenKind::KwGoto | TokenKind::KwBreak | TokenKind::KwContinue => Self::parse_jump,
            TokenKind::Ident(_) if self.peek_at(1) == &TokenKind::Colon => Self::parse_label,
            TokenKind::Semi => Self::parse_empty,
            _ => Self::parse_expr_stmt,
        };
        let kind = parse(self)?;
        self.leave(1);
        Ok(Stmt::new(kind, line))
    }

    fn parse_block_stmt(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        Ok(StmtKind::Block(self.parse_block_body()?))
    }

    fn parse_if(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        let cond = self.parse_condition()?;
        let then_body = self.parse_stmt_as_block()?;
        let else_body = if self.eat(&TokenKind::KwElse) {
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
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_assignment()?;
        self.expect(TokenKind::RParen)?;
        Ok(cond)
    }

    fn parse_for(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        self.expect(TokenKind::LParen)?;
        let init = if self.eat(&TokenKind::Semi) {
            None
        } else {
            let s = self.parse_simple_stmt()?;
            self.expect(TokenKind::Semi)?;
            Some(Box::new(s))
        };
        let cond = if self.peek() == &TokenKind::Semi {
            None
        } else {
            Some(self.parse_assignment()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.peek() == &TokenKind::RParen {
            None
        } else {
            Some(Box::new(self.parse_simple_stmt()?))
        };
        self.expect(TokenKind::RParen)?;
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
        let value = if self.peek() == &TokenKind::Semi {
            None
        } else {
            Some(self.parse_assignment()?)
        };
        self.expect(TokenKind::Semi)?;
        Ok(StmtKind::Return(value))
    }

    /// `goto label;`, `break;` or `continue;`.
    fn parse_jump(&mut self) -> Result<StmtKind, Diag> {
        let kind = match self.bump() {
            TokenKind::KwGoto => StmtKind::Goto(self.expect_ident()?),
            TokenKind::KwBreak => StmtKind::Break,
            _ => StmtKind::Continue,
        };
        self.expect(TokenKind::Semi)?;
        Ok(kind)
    }

    fn parse_label(&mut self) -> Result<StmtKind, Diag> {
        let label = self.expect_ident()?;
        self.expect(TokenKind::Colon)?;
        Ok(StmtKind::Label(label))
    }

    /// A lone `;`: an empty block.
    fn parse_empty(&mut self) -> Result<StmtKind, Diag> {
        self.bump();
        Ok(StmtKind::Block(Vec::new()))
    }

    fn parse_expr_stmt(&mut self) -> Result<StmtKind, Diag> {
        let s = self.parse_simple_stmt()?;
        self.expect(TokenKind::Semi)?;
        Ok(s.kind)
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<Stmt>, Diag> {
        if self.eat(&TokenKind::LBrace) {
            self.parse_block_body()
        } else {
            Ok(vec![self.parse_stmt()?])
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
            if self.eat(&TokenKind::LBracket) {
                while self.peek() != &TokenKind::RBracket {
                    self.bump();
                }
                self.expect(TokenKind::RBracket)?;
                is_array = true;
            }
            let init = if self.eat(&TokenKind::Assign) {
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
        let expr = self.parse_assignment()?;
        match expr.kind {
            ExprKind::Assign(lhs, rhs) => Ok(Stmt::new(
                StmtKind::Assign {
                    lhs: *lhs,
                    rhs: *rhs,
                },
                line,
            )),
            _ => Ok(Stmt::new(StmtKind::Expr(expr), line)),
        }
    }

    /// assignment := binary (`=` assignment)? | compound/incdec sugar
    fn parse_assignment(&mut self) -> Result<Expr, Diag> {
        self.enter()?;
        let line = self.line();
        let mut e = self.parse_binary(0)?;
        if matches!(
            self.peek(),
            TokenKind::Assign
                | TokenKind::PlusAssign
                | TokenKind::MinusAssign
                | TokenKind::PlusPlus
                | TokenKind::MinusMinus
        ) {
            e = self.parse_assign_op(e, line)?;
        }
        self.leave(1);
        Ok(e)
    }

    /// The assignment operator after `lhs`, with its right-hand side;
    /// compound and postfix updates desugar to plain assignments.
    fn parse_assign_op(&mut self, lhs: Expr, line: u32) -> Result<Expr, Diag> {
        let (op, rhs) = match self.bump() {
            TokenKind::Assign => {
                let rhs = self.parse_assignment()?;
                return Ok(Expr::new(
                    ExprKind::Assign(Box::new(lhs), Box::new(rhs)),
                    line,
                ));
            }
            TokenKind::PlusAssign => (AstBinOp::Add, self.parse_assignment()?),
            TokenKind::MinusAssign => (AstBinOp::Sub, self.parse_assignment()?),
            TokenKind::PlusPlus => (AstBinOp::Add, Expr::new(ExprKind::Int(1), line)),
            _ => (AstBinOp::Sub, Expr::new(ExprKind::Int(1), line)),
        };
        Ok(update(lhs, op, rhs, line))
    }

    /// The binary operator at the cursor with its precedence level, from
    /// `||` (loosest, 0) to the multiplicative operators (tightest, 9). All
    /// of them are left-associative.
    fn binop(&self) -> Option<(AstBinOp, u8)> {
        let op = match self.peek() {
            TokenKind::OrOr => (AstBinOp::LogOr, 0),
            TokenKind::AndAnd => (AstBinOp::LogAnd, 1),
            TokenKind::Pipe => (AstBinOp::BitOr, 2),
            TokenKind::Caret => (AstBinOp::BitXor, 3),
            TokenKind::Amp => (AstBinOp::BitAnd, 4),
            TokenKind::EqEq => (AstBinOp::Eq, 5),
            TokenKind::NotEq => (AstBinOp::Ne, 5),
            TokenKind::Lt => (AstBinOp::Lt, 6),
            TokenKind::Le => (AstBinOp::Le, 6),
            TokenKind::Gt => (AstBinOp::Gt, 6),
            TokenKind::Ge => (AstBinOp::Ge, 6),
            TokenKind::Shl => (AstBinOp::Shl, 7),
            TokenKind::Shr => (AstBinOp::Shr, 7),
            TokenKind::Plus => (AstBinOp::Add, 8),
            TokenKind::Minus => (AstBinOp::Sub, 8),
            TokenKind::Star => (AstBinOp::Mul, 9),
            TokenKind::Slash => (AstBinOp::Div, 9),
            TokenKind::Percent => (AstBinOp::Rem, 9),
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
            TokenKind::Star
            | TokenKind::Amp
            | TokenKind::Not
            | TokenKind::Minus
            | TokenKind::Tilde
            | TokenKind::PlusPlus
            | TokenKind::MinusMinus
            | TokenKind::KwSizeof => true,
            TokenKind::LParen => self.is_cast_start(),
            _ => false,
        }
    }

    /// A prefix operator, `sizeof` or cast with its operand.
    fn parse_prefixed(&mut self) -> Result<Expr, Diag> {
        let line = self.line();
        let wrap: fn(Box<Expr>) -> ExprKind = match self.bump() {
            TokenKind::Star => ExprKind::Deref,
            TokenKind::Amp => ExprKind::AddrOf,
            TokenKind::Not => ExprKind::Not,
            TokenKind::Minus => ExprKind::Neg,
            TokenKind::Tilde => ExprKind::BitNot,
            TokenKind::PlusPlus => return self.parse_prefix_update(AstBinOp::Add, line),
            TokenKind::MinusMinus => return self.parse_prefix_update(AstBinOp::Sub, line),
            TokenKind::KwSizeof => return self.parse_sizeof(line),
            _ => {
                let ty = self.parse_type()?;
                self.expect(TokenKind::RParen)?;
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
        if self.eat(&TokenKind::LParen) {
            // Skip to the matching parenthesis.
            let mut open = 1;
            while open > 0 {
                match self.bump() {
                    TokenKind::LParen => open += 1,
                    TokenKind::RParen => open -= 1,
                    TokenKind::Eof => return Err(self.err("unterminated sizeof")),
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
        debug_assert_eq!(self.peek(), &TokenKind::LParen);
        matches!(
            self.peek_at(1),
            TokenKind::KwInt
                | TokenKind::KwVoid
                | TokenKind::KwChar
                | TokenKind::KwLong
                | TokenKind::KwUnsigned
                | TokenKind::KwStruct
                | TokenKind::KwConst
        )
    }

    /// A primary expression and its postfix chain; each `->`, `.`, `[]` or
    /// call wraps the tree once more and counts as one nesting level.
    fn parse_postfix(&mut self) -> Result<Expr, Diag> {
        let mut e = self.parse_primary()?;
        let mut folds = 0;
        while matches!(
            self.peek(),
            TokenKind::Arrow | TokenKind::Dot | TokenKind::LBracket | TokenKind::LParen
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
        let kind = match self.bump() {
            TokenKind::Arrow => ExprKind::Arrow(base, self.expect_ident()?),
            TokenKind::Dot => ExprKind::Dot(base, self.expect_ident()?),
            TokenKind::LBracket => {
                let idx = self.parse_assignment()?;
                self.expect(TokenKind::RBracket)?;
                ExprKind::Index(base, Box::new(idx))
            }
            _ => {
                let mark = self.args.len();
                if self.peek() != &TokenKind::RParen {
                    loop {
                        let arg = self.parse_assignment()?;
                        self.args.push(arg);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RParen)?;
                ExprKind::Call(base, self.args.drain(mark..).collect())
            }
        };
        Ok(Expr::new(kind, line))
    }

    fn parse_primary(&mut self) -> Result<Expr, Diag> {
        let line = self.line();
        let kind = match self.bump() {
            TokenKind::Int(v) => ExprKind::Int(v),
            TokenKind::KwNull => ExprKind::Null,
            TokenKind::Str(s) => ExprKind::Str(s),
            TokenKind::Ident(name) => ExprKind::Ident(name),
            TokenKind::LParen => {
                let e = self.parse_assignment()?;
                self.expect(TokenKind::RParen)?;
                return Ok(e);
            }
            other => {
                return Err(Diag::new(
                    DiagKind::Parse,
                    &self.file,
                    line,
                    format!("expected expression, found {other}"),
                ))
            }
        };
        Ok(Expr::new(kind, line))
    }
}

/// `target = target op rhs`: the desugaring of `+=`, `-=`, `++` and `--`.
fn update(target: Expr, op: AstBinOp, rhs: Expr, line: u32) -> Expr {
    let value = Expr::new(
        ExprKind::Bin(op, Box::new(target.clone()), Box::new(rhs)),
        line,
    );
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
