//! The mini-C lexer.

use crate::diag::{Diag, DiagKind};
use crate::name::Name;
use crate::token::{Token, TokenKind};

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
    file: String,
    src: &'s [u8],
    pos: usize,
    line: u32,
}

impl<'s> Lexer<'s> {
    /// Creates a lexer over `source`, attributing diagnostics to `file`.
    pub fn new(file: &str, source: &'s str) -> Self {
        Lexer {
            file: file.to_owned(),
            src: source.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn skip_trivia(&mut self) -> Result<(), Diag> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        if self.peek() == 0 {
                            return Err(Diag::new(
                                DiagKind::Lex,
                                &self.file,
                                start,
                                "unterminated block comment",
                            ));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                b'#' => {
                    // Preprocessor-style lines are ignored wholesale.
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn ident_or_kw(&mut self) -> TokenKind {
        let start = self.pos;
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        match text {
            "struct" => TokenKind::KwStruct,
            "int" => TokenKind::KwInt,
            "void" => TokenKind::KwVoid,
            "char" => TokenKind::KwChar,
            "long" => TokenKind::KwLong,
            "unsigned" => TokenKind::KwUnsigned,
            "static" => TokenKind::KwStatic,
            "const" => TokenKind::KwConst,
            "inline" => TokenKind::KwInline,
            "if" => TokenKind::KwIf,
            "else" => TokenKind::KwElse,
            "while" => TokenKind::KwWhile,
            "for" => TokenKind::KwFor,
            "return" => TokenKind::KwReturn,
            "goto" => TokenKind::KwGoto,
            "break" => TokenKind::KwBreak,
            "continue" => TokenKind::KwContinue,
            "NULL" => TokenKind::KwNull,
            "sizeof" => TokenKind::KwSizeof,
            _ => TokenKind::Ident(Name::new(text)),
        }
    }

    fn number(&mut self) -> Result<TokenKind, Diag> {
        let start = self.pos;
        let line = self.line;
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.bump();
            self.bump();
            let hex_start = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[hex_start..self.pos]).unwrap_or("");
            return i64::from_str_radix(text, 16)
                .map(TokenKind::Int)
                .map_err(|_| Diag::new(DiagKind::Lex, &self.file, line, "bad hex literal"));
        }
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        // Swallow C suffixes (UL, LL, …).
        while matches!(self.peek(), b'u' | b'U' | b'l' | b'L') {
            self.bump();
        }
        let digits_end = self.src[start..self.pos]
            .iter()
            .position(|c| !c.is_ascii_digit())
            .map(|i| start + i)
            .unwrap_or(self.pos);
        let text = std::str::from_utf8(&self.src[start..digits_end]).unwrap_or("");
        text.parse::<i64>()
            .map(TokenKind::Int)
            .map_err(|_| Diag::new(DiagKind::Lex, &self.file, line, "integer literal overflows"))
    }

    fn string(&mut self) -> Result<TokenKind, Diag> {
        let line = self.line;
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                0 => {
                    return Err(Diag::new(
                        DiagKind::Lex,
                        &self.file,
                        line,
                        "unterminated string literal",
                    ))
                }
                b'"' => break,
                b'\\' => {
                    let esc = self.bump();
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                c => out.push(c as char),
            }
        }
        Ok(TokenKind::Str(out))
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
            self.skip_trivia()?;
            let line = self.line;
            let kind = match self.peek() {
                0 => {
                    out.push(Token::new(TokenKind::Eof, line));
                    return Ok(out);
                }
                c if c.is_ascii_alphabetic() || c == b'_' => self.ident_or_kw(),
                c if c.is_ascii_digit() => self.number()?,
                b'"' => self.string()?,
                b'\'' => {
                    // Character literal → its integer value.
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
                    if self.bump() != b'\'' {
                        return Err(Diag::new(
                            DiagKind::Lex,
                            &self.file,
                            line,
                            "unterminated char literal",
                        ));
                    }
                    TokenKind::Int(i64::from(v))
                }
                _ => {
                    let c = self.bump();
                    match c {
                        b'(' => TokenKind::LParen,
                        b')' => TokenKind::RParen,
                        b'{' => TokenKind::LBrace,
                        b'}' => TokenKind::RBrace,
                        b'[' => TokenKind::LBracket,
                        b']' => TokenKind::RBracket,
                        b';' => TokenKind::Semi,
                        b',' => TokenKind::Comma,
                        b'.' => TokenKind::Dot,
                        b':' => TokenKind::Colon,
                        b'~' => TokenKind::Tilde,
                        b'^' => TokenKind::Caret,
                        b'+' => match self.peek() {
                            b'+' => {
                                self.bump();
                                TokenKind::PlusPlus
                            }
                            b'=' => {
                                self.bump();
                                TokenKind::PlusAssign
                            }
                            _ => TokenKind::Plus,
                        },
                        b'-' => match self.peek() {
                            b'-' => {
                                self.bump();
                                TokenKind::MinusMinus
                            }
                            b'=' => {
                                self.bump();
                                TokenKind::MinusAssign
                            }
                            b'>' => {
                                self.bump();
                                TokenKind::Arrow
                            }
                            _ => TokenKind::Minus,
                        },
                        b'*' => TokenKind::Star,
                        b'/' => TokenKind::Slash,
                        b'%' => TokenKind::Percent,
                        b'=' => {
                            if self.peek() == b'=' {
                                self.bump();
                                TokenKind::EqEq
                            } else {
                                TokenKind::Assign
                            }
                        }
                        b'!' => {
                            if self.peek() == b'=' {
                                self.bump();
                                TokenKind::NotEq
                            } else {
                                TokenKind::Not
                            }
                        }
                        b'<' => match self.peek() {
                            b'=' => {
                                self.bump();
                                TokenKind::Le
                            }
                            b'<' => {
                                self.bump();
                                TokenKind::Shl
                            }
                            _ => TokenKind::Lt,
                        },
                        b'>' => match self.peek() {
                            b'=' => {
                                self.bump();
                                TokenKind::Ge
                            }
                            b'>' => {
                                self.bump();
                                TokenKind::Shr
                            }
                            _ => TokenKind::Gt,
                        },
                        b'&' => {
                            if self.peek() == b'&' {
                                self.bump();
                                TokenKind::AndAnd
                            } else {
                                TokenKind::Amp
                            }
                        }
                        b'|' => {
                            if self.peek() == b'|' {
                                self.bump();
                                TokenKind::OrOr
                            } else {
                                TokenKind::Pipe
                            }
                        }
                        other => {
                            return Err(Diag::new(
                                DiagKind::Lex,
                                &self.file,
                                line,
                                format!("unexpected character `{}`", other as char),
                            ))
                        }
                    }
                }
            };
            out.push(Token::new(kind, line));
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
