//! The mini-C lexer.
//!
//! The parser pulls one [`Lexeme`] at a time ([`Lexer::next_lexeme`]) and keeps
//! no token vector; [`Lexer::lex`] collects the same stream as [`Token`]s
//! for callers that want it whole. A lexeme is the token's kind, line and
//! span: the parser takes an identifier's name or a string's text from
//! the source only for the tokens it keeps. Only an identifier of keyword
//! length is matched against the keywords, and newlines are counted only
//! where they can occur: in trivia and literals.

use crate::diag::{Diag, DiagKind};
use crate::name::Name;
use crate::token::{Kind, Token, TokenKind};

/// `text`, at most 8 bytes, packed into a word (first byte lowest).
/// Identifier bytes are never zero, so two identifiers of at most 8 bytes
/// pack alike only when they are equal.
const fn word(text: &[u8]) -> u64 {
    let mut w = 0;
    let mut i = 0;
    while i < text.len() {
        w |= (text[i] as u64) << (8 * i);
        i += 1;
    }
    w
}

/// Declares a word constant per keyword and [`keyword`], which finds a
/// keyword with one integer match.
macro_rules! keywords {
    ($($word:ident = $text:literal => $kind:ident,)*) => {
        $(const $word: u64 = word($text);)*

        /// The keyword `text` spells, if it is one.
        fn keyword(text: &[u8]) -> Option<Kind> {
            if !(2..=8).contains(&text.len()) {
                return None;
            }
            match word(text) {
                $($word => Some(Kind::$kind),)*
                _ => None,
            }
        }
    };
}

keywords! {
    STRUCT = b"struct" => KwStruct,
    INT = b"int" => KwInt,
    VOID = b"void" => KwVoid,
    CHAR = b"char" => KwChar,
    LONG = b"long" => KwLong,
    UNSIGNED = b"unsigned" => KwUnsigned,
    STATIC = b"static" => KwStatic,
    CONST = b"const" => KwConst,
    INLINE = b"inline" => KwInline,
    IF = b"if" => KwIf,
    ELSE = b"else" => KwElse,
    WHILE = b"while" => KwWhile,
    FOR = b"for" => KwFor,
    RETURN = b"return" => KwReturn,
    GOTO = b"goto" => KwGoto,
    BREAK = b"break" => KwBreak,
    CONTINUE = b"continue" => KwContinue,
    NULL = b"NULL" => KwNull,
    SIZEOF = b"sizeof" => KwSizeof,
}

/// One token as the parser's window holds it: its kind and line, and the
/// bytes it spans or an integer's value, in 16 bytes. It owns nothing, so
/// the window copies it and a call returns it in registers;
/// [`Lexer::name`], [`Lexer::string`] and [`Lexer::token_kind`] give the
/// values a [`TokenKind`] carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lexeme {
    pub(crate) kind: Kind,
    pub(crate) line: u32,
    /// An identifier's or string literal's bytes are `a..b` (the lexer
    /// refuses a source of 4 GiB or more); an integer's value is `a`
    /// (low half) and `b` (high half).
    a: u32,
    b: u32,
}

impl Lexeme {
    /// An integer literal's value.
    pub(crate) fn int(&self) -> i64 {
        debug_assert_eq!(self.kind, Kind::Int);
        (u64::from(self.a) | u64::from(self.b) << 32) as i64
    }

    /// The bytes an identifier or string literal spans.
    fn span(&self) -> std::ops::Range<usize> {
        self.a as usize..self.b as usize
    }
}

/// Lexes mini-C source text into a token stream.
///
/// Handles `//` line comments, `/* */` block comments, string and character
/// literals, decimal and hex integers, and all mini-C punctuation.
///
/// # Example
///
/// ```
/// use pata_cc::{Lexer, TokenKind};
///
/// let tokens = Lexer::new("file.c", "if (p != NULL) { }").lex().unwrap();
/// assert!(matches!(tokens[0].kind, TokenKind::KwIf));
/// assert!(matches!(tokens.last().unwrap().kind, TokenKind::Eof));
/// ```
#[derive(Debug)]
pub struct Lexer<'s> {
    file: &'s str,
    text: &'s str,
    src: &'s [u8],
    pos: usize,
    line: u32,
    /// The first lexical error; lexing stops there.
    error: Option<Diag>,
}

impl<'s> Lexer<'s> {
    /// Creates a lexer over `source`, attributing diagnostics to `file`.
    pub fn new(file: &'s str, source: &'s str) -> Self {
        let mut lexer = Lexer {
            file,
            text: source,
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            error: None,
        };
        if u32::try_from(source.len()).is_err() {
            lexer.fail(1, "source file of 4 GiB or more");
        }
        lexer
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    /// Takes one byte of trivia or of a literal, counting a newline.
    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    /// Takes the next byte if it is `next`.
    fn eat(&mut self, next: u8) -> bool {
        let hit = self.peek() == next;
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Records the lexical error at `line` and ends the input there: this
    /// token and every later one is `Eof`.
    #[cold]
    fn fail(&mut self, line: u32, message: impl Into<String>) -> Kind {
        self.error = Some(Diag::new(DiagKind::Lex, self.file, line, message));
        self.pos = self.src.len();
        Kind::Eof
    }

    /// Skips to the end of the line (a `//` comment or a preprocessor
    /// line). A NUL byte ends the input, as everywhere.
    fn skip_line(&mut self) {
        self.pos += self.src[self.pos..]
            .iter()
            .position(|&c| c == b'\n' || c == 0)
            .unwrap_or(self.src.len() - self.pos);
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                }
                b'/' if self.peek2() == b'/' => self.skip_line(),
                b'/' if self.peek2() == b'*' => {
                    let start = self.line;
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            0 => {
                                self.fail(start, "unterminated block comment");
                                return;
                            }
                            b'*' if self.peek2() == b'/' => {
                                self.pos += 2;
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                // Preprocessor-style lines are ignored wholesale.
                b'#' => self.skip_line(),
                _ => return,
            }
        }
    }

    fn ident_or_kw(&mut self) -> Kind {
        let start = self.pos;
        self.pos += self.src[start..]
            .iter()
            .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_'))
            .unwrap_or(self.src.len() - start);
        keyword(&self.src[start..self.pos]).unwrap_or(Kind::Ident)
    }

    /// The value of the digits at the cursor in `radix` (10 or 16), or
    /// `None` when there are none or the value overflows an `i64`.
    fn digits(&mut self, radix: u32) -> Option<i64> {
        let start = self.pos;
        let mut value: Option<i64> = Some(0);
        while let Some(d) = char::from(self.peek()).to_digit(radix) {
            value = value
                .and_then(|v| v.checked_mul(i64::from(radix)))
                .and_then(|v| v.checked_add(i64::from(d)));
            self.pos += 1;
        }
        value.filter(|_| self.pos > start)
    }

    /// An integer literal's kind and value.
    fn number(&mut self, line: u32) -> (Kind, i64) {
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.pos += 2;
            return match self.digits(16) {
                Some(v) => (Kind::Int, v),
                None => (self.fail(line, "bad hex literal"), 0),
            };
        }
        let value = self.digits(10);
        // Swallow C suffixes (UL, LL, …).
        while matches!(self.peek(), b'u' | b'U' | b'l' | b'L') {
            self.pos += 1;
        }
        match value {
            Some(v) => (Kind::Int, v),
            None => (self.fail(line, "integer literal overflows"), 0),
        }
    }

    /// A string literal, through its closing quote; [`Lexer::string`]
    /// reads its text.
    fn string_literal(&mut self, line: u32) -> Kind {
        self.pos += 1; // opening quote
        loop {
            match self.bump() {
                0 => return self.fail(line, "unterminated string literal"),
                b'"' => return Kind::Str,
                b'\\' => {
                    self.bump();
                }
                _ => {}
            }
        }
    }

    /// A character literal's kind and value.
    fn char_literal(&mut self, line: u32) -> (Kind, i64) {
        self.bump();
        let mut v = self.bump();
        if v == b'\\' {
            v = match self.bump() {
                b'n' => b'\n',
                b't' => b'\t',
                b'0' => 0,
                other => other,
            };
        }
        if self.bump() == b'\'' {
            (Kind::Int, i64::from(v))
        } else {
            (self.fail(line, "unterminated char literal"), 0)
        }
    }

    /// Lexes the next token; at the end of the input, and every time after
    /// that, the end-of-input token. A lexical error (unterminated
    /// comment/string, bad literal, or an unexpected byte) ends the input
    /// too: it is kept for [`Lexer::error`].
    pub(crate) fn next_lexeme(&mut self) -> Lexeme {
        self.skip_trivia();
        let line = self.line;
        let start = self.pos;
        let (kind, value) = match self.peek() {
            c if c.is_ascii_alphabetic() || c == b'_' => (self.ident_or_kw(), 0),
            c if c.is_ascii_digit() => self.number(line),
            0 => (Kind::Eof, 0),
            b'"' => (self.string_literal(line), 0),
            b'\'' => self.char_literal(line),
            _ => (self.punct(line), 0),
        };
        let (a, b) = match kind {
            Kind::Int => (value as u32, ((value as u64) >> 32) as u32),
            _ => (start as u32, self.pos as u32),
        };
        Lexeme { kind, line, a, b }
    }

    /// The first lexical error, once lexing has met it.
    pub(crate) fn error(&mut self) -> Option<Diag> {
        self.error.take()
    }

    /// An identifier's name.
    pub(crate) fn name(&self, lexeme: &Lexeme) -> Name {
        debug_assert_eq!(lexeme.kind, Kind::Ident);
        Name::new(&self.text[lexeme.span()])
    }

    /// A string literal's text, escapes resolved.
    pub(crate) fn string(&self, lexeme: &Lexeme) -> String {
        debug_assert_eq!(lexeme.kind, Kind::Str);
        let mut out = String::new();
        let span = lexeme.span();
        let mut body = self.src[span.start + 1..span.end - 1].iter();
        while let Some(&c) = body.next() {
            out.push(match c {
                b'\\' => match body.next() {
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(&other) => other as char,
                    None => unreachable!("an escape always takes the next byte"),
                },
                c => c as char,
            });
        }
        out
    }

    /// The token kind of `lexeme`, with its value.
    pub(crate) fn token_kind(&self, lexeme: &Lexeme) -> TokenKind {
        match lexeme.kind {
            Kind::Ident => TokenKind::Ident(self.name(lexeme)),
            Kind::Int => TokenKind::Int(lexeme.int()),
            Kind::Str => TokenKind::Str(self.string(lexeme)),
            kind => kind.fixed().expect("a kind without a value"),
        }
    }

    /// One or two bytes of punctuation.
    fn punct(&mut self, line: u32) -> Kind {
        let c = self.peek();
        self.pos += 1;
        let pair = |hit: bool, two: Kind, one: Kind| if hit { two } else { one };
        match c {
            b'(' => Kind::LParen,
            b')' => Kind::RParen,
            b'{' => Kind::LBrace,
            b'}' => Kind::RBrace,
            b'[' => Kind::LBracket,
            b']' => Kind::RBracket,
            b';' => Kind::Semi,
            b',' => Kind::Comma,
            b'.' => Kind::Dot,
            b':' => Kind::Colon,
            b'~' => Kind::Tilde,
            b'^' => Kind::Caret,
            b'*' => Kind::Star,
            b'/' => Kind::Slash,
            b'%' => Kind::Percent,
            b'=' => pair(self.eat(b'='), Kind::EqEq, Kind::Assign),
            b'!' => pair(self.eat(b'='), Kind::NotEq, Kind::Not),
            b'&' => pair(self.eat(b'&'), Kind::AndAnd, Kind::Amp),
            b'|' => pair(self.eat(b'|'), Kind::OrOr, Kind::Pipe),
            b'+' if self.eat(b'+') => Kind::PlusPlus,
            b'+' => pair(self.eat(b'='), Kind::PlusAssign, Kind::Plus),
            b'-' if self.eat(b'-') => Kind::MinusMinus,
            b'-' if self.eat(b'>') => Kind::Arrow,
            b'-' => pair(self.eat(b'='), Kind::MinusAssign, Kind::Minus),
            b'<' if self.eat(b'<') => Kind::Shl,
            b'<' => pair(self.eat(b'='), Kind::Le, Kind::Lt),
            b'>' if self.eat(b'>') => Kind::Shr,
            b'>' => pair(self.eat(b'='), Kind::Ge, Kind::Gt),
            other => self.fail(line, format!("unexpected character `{}`", other as char)),
        }
    }

    /// Lexes the whole input.
    ///
    /// # Errors
    ///
    /// Returns the first lexical error (unterminated comment/string, bad
    /// literal, or an unexpected byte).
    pub fn lex(mut self) -> Result<Vec<Token>, Diag> {
        let mut out = Vec::new();
        loop {
            let lexeme = self.next_lexeme();
            out.push(Token::new(self.token_kind(&lexeme), lexeme.line));
            if lexeme.kind == Kind::Eof {
                return self.error().map_or(Ok(out), Err);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new("t.c", src)
            .lex()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        let ks = kinds("struct dev probe");
        assert_eq!(
            ks,
            vec![
                TokenKind::KwStruct,
                TokenKind::Ident("dev".into()),
                TokenKind::Ident("probe".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn punctuation_pairs() {
        let ks = kinds("-> != == <= >= && || << >> ++ -- += -=");
        assert_eq!(
            ks,
            vec![
                TokenKind::Arrow,
                TokenKind::NotEq,
                TokenKind::EqEq,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::PlusPlus,
                TokenKind::MinusMinus,
                TokenKind::PlusAssign,
                TokenKind::MinusAssign,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        let ks = kinds("42 0x1f 7UL");
        assert_eq!(
            ks,
            vec![
                TokenKind::Int(42),
                TokenKind::Int(31),
                TokenKind::Int(7),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_and_preprocessor_skipped() {
        let ks = kinds("#include <x.h>\n// line\nint /* block\nspanning */ x");
        assert_eq!(
            ks,
            vec![
                TokenKind::KwInt,
                TokenKind::Ident("x".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = Lexer::new("t.c", "int\nx\n=\n1;").lex().unwrap();
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3, 4, 4, 4]);
    }

    #[test]
    fn string_and_char_literals() {
        let ks = kinds(r#""hi\n" 'a'"#);
        assert_eq!(
            ks,
            vec![
                TokenKind::Str("hi\n".into()),
                TokenKind::Int(97),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(Lexer::new("t.c", "/* oops").lex().is_err());
        assert!(Lexer::new("t.c", "\"oops").lex().is_err());
    }
}
