//! The mini-C abstract syntax tree.

use crate::name::Name;

/// A parsed type expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    /// `int` (also `char`, `long`, `unsigned …`).
    Int,
    /// `void`.
    Void,
    /// `struct name`.
    Struct(Name),
    /// A pointer to another type.
    Ptr(Box<TypeExpr>),
}

impl TypeExpr {
    /// Wraps this type in `levels` pointers.
    pub fn with_pointers(self, levels: usize) -> TypeExpr {
        (0..levels).fold(self, |t, _| TypeExpr::Ptr(Box::new(t)))
    }
}

/// Binary operators at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
}

impl AstBinOp {
    /// Whether this operator is a comparison producing a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            AstBinOp::Eq | AstBinOp::Ne | AstBinOp::Lt | AstBinOp::Le | AstBinOp::Gt | AstBinOp::Ge
        )
    }

    /// Whether this operator short-circuits.
    pub fn is_logical(self) -> bool {
        matches!(self, AstBinOp::LogAnd | AstBinOp::LogOr)
    }
}

/// An expression with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// The expression's shape.
    pub kind: ExprKind,
    /// 1-based source line.
    pub line: u32,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, line: u32) -> Self {
        Expr { kind, line }
    }
}

/// Expression shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// `NULL`.
    Null,
    /// String literal (only valid as a call argument).
    Str(String),
    /// A variable reference.
    Ident(Name),
    /// `e->field`.
    Arrow(Box<Expr>, Name),
    /// `e.field`.
    Dot(Box<Expr>, Name),
    /// `e[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// `*e`.
    Deref(Box<Expr>),
    /// `&e`.
    AddrOf(Box<Expr>),
    /// `!e`.
    Not(Box<Expr>),
    /// `-e`.
    Neg(Box<Expr>),
    /// `~e`.
    BitNot(Box<Expr>),
    /// `lhs op rhs`.
    Bin(AstBinOp, Box<Expr>, Box<Expr>),
    /// `callee(args…)`; callee is an expression to allow `obj->op(x)`.
    Call(Box<Expr>, Vec<Expr>),
    /// `sizeof(…)` — evaluates to an opaque positive constant.
    Sizeof,
    /// `(type)e` cast — transparent to the analysis.
    Cast(TypeExpr, Box<Expr>),
    /// `lhs = rhs` used in expression position (e.g. `if ((p = f()) == NULL)`).
    Assign(Box<Expr>, Box<Expr>),
}

/// A statement with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// The statement's shape.
    pub kind: StmtKind,
    /// 1-based source line.
    pub line: u32,
}

impl Stmt {
    /// Creates a statement node.
    pub fn new(kind: StmtKind, line: u32) -> Self {
        Stmt { kind, line }
    }
}

/// Statement shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// Local declaration `type name [= init];` or array `type name[n];`.
    Decl {
        /// Declared type.
        ty: TypeExpr,
        /// Variable name.
        name: Name,
        /// Optional initializer.
        init: Option<Expr>,
        /// Whether declared with `[]` (array of the base type).
        is_array: bool,
    },
    /// `lhs = rhs;` where lhs is an lvalue expression.
    Assign {
        /// Assigned lvalue.
        lhs: Expr,
        /// Value expression.
        rhs: Expr,
    },
    /// An expression evaluated for effect (usually a call, `i++`, …).
    Expr(Expr),
    /// `if (cond) then [else els]`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Initialization statement, if any.
        init: Option<Box<Stmt>>,
        /// Condition, if any (absent = infinite).
        cond: Option<Expr>,
        /// Step statement, if any.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return [e];`.
    Return(Option<Expr>),
    /// `goto label;`.
    Goto(Name),
    /// `label:` (attaches to the following statement position).
    Label(Name),
    /// `break;`.
    Break,
    /// `continue;`.
    Continue,
    /// A nested block.
    Block(Vec<Stmt>),
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDecl {
    /// Struct name.
    pub name: Name,
    /// Fields in order.
    pub fields: Vec<(Name, TypeExpr)>,
    /// Source line of the definition.
    pub line: u32,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: Name,
    /// Parameter type.
    pub ty: TypeExpr,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncDecl {
    /// Function name.
    pub name: Name,
    /// Return type.
    pub ret: TypeExpr,
    /// Parameters.
    pub params: Vec<ParamDecl>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source line of the definition.
    pub line: u32,
}

/// A global variable, possibly with a designated-initializer list that
/// registers function pointers (`.probe = s5p_mfc_probe`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDecl {
    /// Global name.
    pub name: Name,
    /// Declared type.
    pub ty: TypeExpr,
    /// Functions referenced by designated initializers — these become
    /// *module interface functions* (no explicit caller, paper's D1).
    pub registered_funcs: Vec<Name>,
    /// Source line.
    pub line: u32,
}

/// One parsed translation unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Unit {
    /// File name the unit came from.
    pub file: String,
    /// Number of source lines (for LOC accounting).
    pub lines: u32,
    /// Struct definitions.
    pub structs: Vec<StructDecl>,
    /// Globals.
    pub globals: Vec<GlobalDecl>,
    /// Functions.
    pub functions: Vec<FuncDecl>,
}
