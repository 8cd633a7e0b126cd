//! Tokens of the mini-C language.

use crate::name::Name;
use std::fmt;

/// The kind of one lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier (`dev`, `probe`, …).
    Ident(Name),
    /// An integer literal.
    Int(i64),
    /// `struct`
    KwStruct,
    /// `int`
    KwInt,
    /// `void`
    KwVoid,
    /// `char` (treated as `int`)
    KwChar,
    /// `long` (treated as `int`)
    KwLong,
    /// `unsigned` (modifier, ignored)
    KwUnsigned,
    /// `static`
    KwStatic,
    /// `const` (ignored qualifier)
    KwConst,
    /// `inline` (ignored qualifier)
    KwInline,
    /// `if`
    KwIf,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `for`
    KwFor,
    /// `return`
    KwReturn,
    /// `goto`
    KwGoto,
    /// `break`
    KwBreak,
    /// `continue`
    KwContinue,
    /// `NULL`
    KwNull,
    /// `sizeof`
    KwSizeof,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!`
    Not,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `:`
    Colon,
    /// A string literal (kept only for call arguments like format strings).
    Str(String),
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Str(_) => "string literal".to_owned(),
            TokenKind::Eof => "end of input".to_owned(),
            other => format!("`{}`", other.literal()),
        }
    }

    fn literal(&self) -> &'static str {
        match self {
            TokenKind::KwStruct => "struct",
            TokenKind::KwInt => "int",
            TokenKind::KwVoid => "void",
            TokenKind::KwChar => "char",
            TokenKind::KwLong => "long",
            TokenKind::KwUnsigned => "unsigned",
            TokenKind::KwStatic => "static",
            TokenKind::KwConst => "const",
            TokenKind::KwInline => "inline",
            TokenKind::KwIf => "if",
            TokenKind::KwElse => "else",
            TokenKind::KwWhile => "while",
            TokenKind::KwFor => "for",
            TokenKind::KwReturn => "return",
            TokenKind::KwGoto => "goto",
            TokenKind::KwBreak => "break",
            TokenKind::KwContinue => "continue",
            TokenKind::KwNull => "NULL",
            TokenKind::KwSizeof => "sizeof",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Semi => ";",
            TokenKind::Comma => ",",
            TokenKind::Dot => ".",
            TokenKind::Arrow => "->",
            TokenKind::Assign => "=",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::Not => "!",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Amp => "&",
            TokenKind::Pipe => "|",
            TokenKind::Caret => "^",
            TokenKind::Tilde => "~",
            TokenKind::Shl => "<<",
            TokenKind::Shr => ">>",
            TokenKind::PlusPlus => "++",
            TokenKind::MinusMinus => "--",
            TokenKind::PlusAssign => "+=",
            TokenKind::MinusAssign => "-=",
            TokenKind::Colon => ":",
            _ => "?",
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: u32,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, line: u32) -> Self {
        Token { kind, line }
    }
}
