//! Tokens of the mini-C language.
//!
//! One list of the punctuation and keyword kinds gives both the public
//! [`TokenKind`], which carries an identifier's name, an integer's value
//! and a string's text, and the crate's [`Kind`], which carries nothing
//! and is `Copy`: the parser's window holds [`Kind`]s and takes a value
//! from the source only when it keeps it.

use crate::name::Name;
use std::fmt;

/// Declares [`TokenKind`] and [`Kind`] with the kinds that carry no
/// value, each with the text it is spelled as.
macro_rules! token_kinds {
    ($($(#[$doc:meta])* $variant:ident = $text:literal,)*) => {
        /// The kind of one lexed token.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TokenKind {
            /// An identifier (`dev`, `probe`, …).
            Ident(Name),
            /// An integer literal.
            Int(i64),
            /// A string literal (kept only for call arguments like format
            /// strings).
            Str(String),
            /// End of input.
            Eof,
            $($(#[$doc])* $variant,)*
        }

        /// A [`TokenKind`] without its value.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Kind {
            Ident,
            Int,
            Str,
            Eof,
            $($variant,)*
        }

        impl Kind {
            /// The token kind, for a kind that carries no value.
            pub(crate) fn fixed(self) -> Option<TokenKind> {
                match self {
                    Kind::Eof => Some(TokenKind::Eof),
                    $(Kind::$variant => Some(TokenKind::$variant),)*
                    Kind::Ident | Kind::Int | Kind::Str => None,
                }
            }
        }

        impl TokenKind {
            fn literal(&self) -> &'static str {
                match self {
                    $(TokenKind::$variant => $text,)*
                    _ => "?",
                }
            }
        }
    };
}

token_kinds! {
    /// `struct`
    KwStruct = "struct",
    /// `int`
    KwInt = "int",
    /// `void`
    KwVoid = "void",
    /// `char` (treated as `int`)
    KwChar = "char",
    /// `long` (treated as `int`)
    KwLong = "long",
    /// `unsigned` (modifier, ignored)
    KwUnsigned = "unsigned",
    /// `static`
    KwStatic = "static",
    /// `const` (ignored qualifier)
    KwConst = "const",
    /// `inline` (ignored qualifier)
    KwInline = "inline",
    /// `if`
    KwIf = "if",
    /// `else`
    KwElse = "else",
    /// `while`
    KwWhile = "while",
    /// `for`
    KwFor = "for",
    /// `return`
    KwReturn = "return",
    /// `goto`
    KwGoto = "goto",
    /// `break`
    KwBreak = "break",
    /// `continue`
    KwContinue = "continue",
    /// `NULL`
    KwNull = "NULL",
    /// `sizeof`
    KwSizeof = "sizeof",
    /// `(`
    LParen = "(",
    /// `)`
    RParen = ")",
    /// `{`
    LBrace = "{",
    /// `}`
    RBrace = "}",
    /// `[`
    LBracket = "[",
    /// `]`
    RBracket = "]",
    /// `;`
    Semi = ";",
    /// `,`
    Comma = ",",
    /// `.`
    Dot = ".",
    /// `->`
    Arrow = "->",
    /// `=`
    Assign = "=",
    /// `+`
    Plus = "+",
    /// `-`
    Minus = "-",
    /// `*`
    Star = "*",
    /// `/`
    Slash = "/",
    /// `%`
    Percent = "%",
    /// `==`
    EqEq = "==",
    /// `!=`
    NotEq = "!=",
    /// `<`
    Lt = "<",
    /// `<=`
    Le = "<=",
    /// `>`
    Gt = ">",
    /// `>=`
    Ge = ">=",
    /// `!`
    Not = "!",
    /// `&&`
    AndAnd = "&&",
    /// `||`
    OrOr = "||",
    /// `&`
    Amp = "&",
    /// `|`
    Pipe = "|",
    /// `^`
    Caret = "^",
    /// `~`
    Tilde = "~",
    /// `<<`
    Shl = "<<",
    /// `>>`
    Shr = ">>",
    /// `++`
    PlusPlus = "++",
    /// `--`
    MinusMinus = "--",
    /// `+=`
    PlusAssign = "+=",
    /// `-=`
    MinusAssign = "-=",
    /// `:`
    Colon = ":",
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
