//! A minimal JSON reader/writer for the crate's machine-readable outputs.
//!
//! The workspace is intentionally dependency-free, so the versioned report
//! schema ([`crate::report::Report`]) and the telemetry snapshot
//! ([`crate::telemetry::TelemetrySnapshot`]) serialize through this module
//! instead of an external serde stack. The writer side is a handful of
//! escape/format helpers. The reader side is one pull reader, [`Reader`],
//! which walks a document value by value without building anything; the
//! [`JsonValue`] tree is one client of it, and the on-disk analysis store
//! and the serve loop's request frames read straight into their own types
//! through it.
//!
//! Numbers are split into [`JsonValue::Int`] (when the literal is an
//! integer that fits `i64`) and [`JsonValue::Float`] (everything else).
//! That keeps `u32`/`u64` counters exact through a round-trip, which the
//! report and telemetry schemas rely on.
//!
//! # Accepted grammar
//!
//! [`Reader`] accepts every RFC 8259 document (`-0` included) and this
//! exact superset of it; everything else is a [`JsonError`]:
//!
//! * **Numbers.** A number starts with `-` or a digit (so `+1` and `.5`
//!   are refused) and runs over the longest stretch of `0-9 . e E + -`
//!   after it. The stretch must be an integer literal with any number
//!   of digits, read as [`JsonValue::Int`] when it fits `i64`, or a
//!   float literal: digits with an optional `.` and optional fraction
//!   digits, or a `.` and fraction digits, then an optional exponent
//!   (`e`/`E`, an optional sign, digits). So leading zeros (`007`,
//!   `-007`, `01.5`), a point with no fraction (`1.`, `1.e5`) and a point
//!   with no integer part after the minus (`-.5`) parse; `-`, `1-2` and
//!   `1.5E` do not. An integer outside `i64` reads as a
//!   [`JsonValue::Float`], and an exponent past `f64`'s range as an
//!   infinity.
//! * **Strings.** Raw characters U+0000 to U+001F (a tab, U+0001) stand for
//!   themselves: only `"` and `\` are special inside a string. A `\u`
//!   escape reads its four bytes as a hexadecimal number that may carry
//!   a leading `+` (`\u+041` is `A`). A `\u` escape of a high surrogate
//!   directly followed by one of a low surrogate reads as the one
//!   character the pair encodes (`\uD83D\uDE00` is U+1F600), as RFC 8259
//!   writes characters outside the Basic Multilingual Plane; any other
//!   surrogate escape, a lone one, reads as U+FFFD.
//!
//! Whitespace, the literals `true`, `false` and `null`, arrays, objects and
//! the other escapes are RFC 8259's. An object may repeat a key: the tree
//! keeps both, and its lookups, like the store's reader, take the first.
//! Arrays and objects nest at most [`MAX_DEPTH`] deep.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// How deep arrays and objects may nest. Every document this crate writes
/// stays within a handful of levels; deeper input is refused with a
/// [`JsonError`] instead of recursing until the stack overflows.
pub const MAX_DEPTH: u32 = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document. The whole input must be one value (plus
    /// surrounding whitespace).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut r = Reader::new(text);
        let v = r.tree()?;
        r.finish()?;
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A number literal, as [`JsonValue::Int`] or [`JsonValue::Float`] holds
/// it, without the tree's drop glue.
#[derive(Clone, Copy)]
enum Number {
    Int(i64),
    Float(f64),
}

/// A pull reader over one JSON document: the crate's only tokenizer.
///
/// A client walks the document value by value. [`Reader::begin_object`]
/// and [`Reader::begin_array`] open a container, then
/// [`Reader::next_key`] or [`Reader::next_item`] step through it until
/// they report its end; every key or item they announce must be consumed
/// by one read ([`Reader::str`], [`Reader::int`], a nested container) or
/// by [`Reader::skip_value`]. [`Reader::finish`] checks that only
/// whitespace follows the document. [`JsonValue::parse`] is the
/// tree-building client.
///
/// The typed reads are lenient about types and strict about syntax: a
/// well-formed value of another type is consumed and reads as `None` (or
/// `false`), while malformed input is a [`JsonError`]. Keys and strings
/// are borrowed from the input unless they hold escapes. Containers nest
/// at most [`MAX_DEPTH`] deep, so no input can exhaust the stack.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: u32,
    /// The innermost open container has announced no key or item yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`'s one value.
    pub fn new(text: &'a str) -> Reader<'a> {
        let mut r = Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            fresh: false,
        };
        r.skip_ws();
        r
    }

    /// Checks that only whitespace follows the value just read.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// Opens the next value when it is an object and returns `true`;
    /// consumes any other value and returns `false`.
    pub fn begin_object(&mut self) -> Result<bool, JsonError> {
        self.begin(b'{')
    }

    /// Opens the next value when it is an array and returns `true`;
    /// consumes any other value and returns `false`.
    pub fn begin_array(&mut self) -> Result<bool, JsonError> {
        self.begin(b'[')
    }

    fn begin(&mut self, open: u8) -> Result<bool, JsonError> {
        if self.peek() != Some(open) {
            self.skip_value()?;
            return Ok(false);
        }
        self.open()?;
        Ok(true)
    }

    /// Enters the array or object at the cursor, one level deeper, within
    /// [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        self.fresh = true;
        Ok(())
    }

    /// Steps past the closing bracket at the cursor.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.fresh = false;
    }

    /// The next key of the open object, its value next at the cursor, or
    /// `None` once the object has closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.fresh {
            if self.peek() == Some(b'}') {
                self.close();
                return Ok(None);
            }
        } else {
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
        self.fresh = false;
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Whether the open array has another item, next at the cursor;
    /// `false` once the array has closed.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        if self.fresh {
            if self.peek() == Some(b']') {
                self.close();
                return Ok(false);
            }
        } else {
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.close();
                    return Ok(false);
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
        self.fresh = false;
        Ok(true)
    }

    /// Reads the next value: its text when it is a string, `None` for any
    /// other value.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.peek() != Some(b'"') {
            self.skip_value()?;
            return Ok(None);
        }
        self.string().map(Some)
    }

    /// Reads the next value: an integer literal that fits `i64` (what
    /// [`JsonValue::Int`] holds), `None` for any other value.
    pub fn int(&mut self) -> Result<Option<i64>, JsonError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.skip_value()?;
            return Ok(None);
        }
        match self.number()? {
            Number::Int(i) => Ok(Some(i)),
            Number::Float(_) => Ok(None),
        }
    }

    /// Consumes the next value, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => {
                self.open()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.open()?;
                while self.next_item()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            _ => {
                self.scalar()?;
            }
        }
        Ok(())
    }

    /// Builds the next value as a tree.
    fn tree(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => {
                self.open()?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    fields.push((key.into_owned(), self.tree()?));
                }
                Ok(JsonValue::Obj(fields))
            }
            Some(b'[') => {
                self.open()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.tree()?);
                }
                Ok(JsonValue::Arr(items))
            }
            _ => self.scalar(),
        }
    }

    /// Reads a value that is not an array or object.
    fn scalar(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => Ok(match self.number()? {
                Number::Int(i) => JsonValue::Int(i),
                Number::Float(f) => JsonValue::Float(f),
            }),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.to_owned(),
        }
    }

    /// The byte at the cursor: the first byte of the next value when one
    /// is due.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    /// The error of [`Reader::expect`], out of the way of its hot path.
    #[cold]
    fn expected(&self, b: u8) -> JsonError {
        self.err(&format!("expected `{}`", b as char))
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Decodes a string. One without escapes is borrowed from the input;
    /// otherwise unescaped runs are copied whole, and only the escapes
    /// between them are decoded, into one allocation.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let Some(first) = find_quote_or_backslash(self.bytes, self.pos) else {
            self.pos = self.bytes.len();
            return Err(self.err("unterminated string"));
        };
        if self.bytes[first] == b'"' {
            let out = &self.text[self.pos..first];
            self.pos = first + 1;
            return Ok(Cow::Borrowed(out));
        }
        let mut out = String::with_capacity(self.raw_len(first));
        loop {
            // The run ends at an ASCII byte, so both ends are char
            // boundaries of the original &str.
            let Some(end) = find_quote_or_backslash(self.bytes, self.pos) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..end]);
            if self.bytes[end] == b'"' {
                self.pos = end + 1;
                return Ok(Cow::Owned(out));
            }
            let (c, next) = escape_at(self.bytes, end).map_err(|(pos, message)| JsonError {
                pos,
                message: message.to_owned(),
            })?;
            out.push(c);
            self.pos = next;
        }
    }

    /// Consumes the next value and returns `true` when it is a string that
    /// decodes to `want`; otherwise leaves the cursor where it was and
    /// returns `false`. The string is compared in its escaped form: each
    /// byte between escapes against the same byte of `want`, eight at a
    /// time, and each escape against `want`'s next char, as
    /// [`Reader::str`] would decode it. So a string that matches is
    /// validated but never decoded, and one that differs or is malformed
    /// is left for [`Reader::str`] to decode or to report.
    pub(crate) fn string_is(&mut self, want: &str) -> bool {
        const QUOTES: u64 = LO * b'"' as u64;
        const BACKSLASHES: u64 = LO * b'\\' as u64;
        if self.peek() != Some(b'"') {
            return false;
        }
        let (bytes, want) = (self.bytes, want.as_bytes());
        let (mut at, mut w) = (self.pos + 1, 0);
        loop {
            // Step over bytes that equal `want`'s and are neither `"` nor
            // `\`, a word at a time, up to the first byte that is.
            while let (Some(a), Some(b)) = (bytes.get(at..at + 8), want.get(w..w + 8)) {
                let a = u64::from_le_bytes(a.try_into().expect("an 8-byte chunk"));
                let b = u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"));
                let stop = (a ^ b) | zero_bytes(a ^ QUOTES) | zero_bytes(a ^ BACKSLASHES);
                if stop != 0 {
                    let n = (stop.trailing_zeros() / 8) as usize;
                    at += n;
                    w += n;
                    break;
                }
                at += 8;
                w += 8;
            }
            let decoded = match bytes.get(at) {
                None => return false,
                Some(b'"') => {
                    if w != want.len() {
                        return false;
                    }
                    self.pos = at + 1;
                    return true;
                }
                Some(b'\\') => match bytes.get(at + 1) {
                    Some(b'u') => {
                        let Ok((c, next)) = escape_at(bytes, at) else {
                            return false;
                        };
                        let mut buf = [0; 4];
                        let c = c.encode_utf8(&mut buf).as_bytes();
                        if want.get(w..w + c.len()) != Some(c) {
                            return false;
                        }
                        w += c.len();
                        at = next;
                        continue;
                    }
                    Some(&e) => {
                        let Some(d) = simple_escape(e) else {
                            return false;
                        };
                        at += 1;
                        d as u8
                    }
                    None => return false,
                },
                Some(&b) => b,
            };
            if want.get(w) != Some(&decoded) {
                return false;
            }
            at += 1;
            w += 1;
        }
    }

    /// Bytes from the cursor to the closing quote of the string it is in,
    /// searched from `from`: the first `"` after an even run of
    /// backslashes. Every escape decodes to at most as many bytes as it
    /// spans, so this bounds the decoded length. Without a closing quote,
    /// the rest of the input.
    fn raw_len(&self, from: usize) -> usize {
        let mut at = from;
        while let Some(quote) = find_byte(self.bytes, at, b'"') {
            let backslashes = self.bytes[..quote]
                .iter()
                .rev()
                .take_while(|&&b| b == b'\\')
                .count();
            if backslashes % 2 == 0 {
                return quote - self.pos;
            }
            at = quote + 1;
        }
        self.bytes.len() - self.pos
    }

    fn number(&mut self) -> Result<Number, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The literal is ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err("bad number literal"))
    }
}

/// Decodes the escape whose `\` is at `at`: the char it stands for and
/// where the input goes on after it. A `\u` escape of a high surrogate
/// followed by one of a low surrogate is the char the pair encodes; any
/// other surrogate is U+FFFD. An error carries its position (the byte
/// after the `\`) and message.
fn escape_at(bytes: &[u8], at: usize) -> Result<(char, usize), (usize, &'static str)> {
    let e = bytes.get(at + 1).copied();
    if let Some(c) = e.and_then(simple_escape) {
        return Ok((c, at + 2));
    }
    match e {
        Some(b'u') => {
            let code = hex_escape(bytes, at)?;
            if (0xd800..0xdc00).contains(&code) && bytes.get(at + 6) == Some(&b'\\') {
                if let Ok(low @ 0xdc00..=0xdfff) = hex_escape(bytes, at + 6) {
                    let pair = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    let c = char::from_u32(pair).expect("a surrogate pair encodes a char");
                    return Ok((c, at + 12));
                }
            }
            Ok((char::from_u32(code).unwrap_or('\u{fffd}'), at + 6))
        }
        _ => Err((at + 1, "bad escape sequence")),
    }
}

/// The char a one-letter escape `\e` stands for.
fn simple_escape(e: u8) -> Option<char> {
    Some(match e {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'b' => '\u{8}',
        b'f' => '\u{c}',
        _ => return None,
    })
}

/// The code unit of the `\u` escape whose `\` is at `at`: four bytes
/// read as a hexadecimal number (a leading `+` included, as
/// `u32::from_str_radix` reads it).
fn hex_escape(bytes: &[u8], at: usize) -> Result<u32, (usize, &'static str)> {
    let err = |message| (at + 1, message);
    if bytes.get(at + 1) != Some(&b'u') {
        return Err(err("bad escape sequence"));
    }
    let hex = bytes
        .get(at + 2..at + 6)
        .ok_or_else(|| err("truncated \\u escape"))?;
    let hex = std::str::from_utf8(hex).map_err(|_| err("non-ASCII \\u escape"))?;
    u32::from_str_radix(hex, 16).map_err(|_| err("bad \\u escape"))
}

// --------------------------------------------------------------------
// Word-at-a-time byte search
// --------------------------------------------------------------------

/// `0x01` in every byte of a word.
const LO: u64 = u64::from_le_bytes([1; 8]);

/// Sets the high bit of each zero byte of `w`. The lowest set bit is
/// exact; a borrow may also flag a byte above a zero byte, never one
/// below it, so the first match of a search is always right.
fn zero_bytes(w: u64) -> u64 {
    w.wrapping_sub(LO) & !w & (LO << 7)
}

/// The first index at or after `from` whose byte `hit` flags, testing
/// eight bytes per step with `word_hits`.
fn find_by(
    bytes: &[u8],
    from: usize,
    word_hits: impl Fn(u64) -> u64,
    hit: impl Fn(u8) -> bool,
) -> Option<usize> {
    let mut at = from;
    while let Some(chunk) = bytes.get(at..at + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
        let hits = word_hits(word);
        if hits != 0 {
            return Some(at + (hits.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let rest = bytes.get(at..)?;
    rest.iter().position(|&b| hit(b)).map(|i| at + i)
}

/// The first `b` at or after `from`.
fn find_byte(bytes: &[u8], from: usize, b: u8) -> Option<usize> {
    let pattern = LO * u64::from(b);
    find_by(bytes, from, |w| zero_bytes(w ^ pattern), |x| x == b)
}

/// The first `"` or `\` at or after `from`: where an unescaped run of a
/// string ends.
fn find_quote_or_backslash(bytes: &[u8], from: usize) -> Option<usize> {
    const QUOTES: u64 = LO * b'"' as u64;
    const BACKSLASHES: u64 = LO * b'\\' as u64;
    find_by(
        bytes,
        from,
        |w| zero_bytes(w ^ QUOTES) | zero_bytes(w ^ BACKSLASHES),
        |b| b == b'"' || b == b'\\',
    )
}

// --------------------------------------------------------------------
// Writer helpers
// --------------------------------------------------------------------

/// Escapes a string for embedding between JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends `s`, escaped for embedding between JSON double quotes.
fn escape_into(out: &mut String, s: &str) {
    // Runs between escapes are copied whole. Every escaped byte is ASCII,
    // so each run starts and ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Renders a quoted, escaped JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(&mut out, s);
    out
}

/// Appends `s` as a quoted, escaped JSON string: [`quote`] without the
/// allocation.
pub(crate) fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_corpus::Prng;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-42").unwrap(), JsonValue::Int(-42));
        assert_eq!(JsonValue::parse("2.5").unwrap(), JsonValue::Float(2.5));
        assert_eq!(
            JsonValue::parse("\"a\\nb\"").unwrap(),
            JsonValue::Str("a\nb".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_bool(), Some(false));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn big_counters_survive_exactly() {
        let n = u64::MAX / 2;
        let v = JsonValue::parse(&n.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
    }

    #[test]
    fn escape_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let parsed = JsonValue::parse(&quote(original)).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn unicode_escape() {
        let v = JsonValue::parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let depth = MAX_DEPTH as usize;
        let at_limit = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&at_limit).is_ok());
        let objects = format!("{}1{}", "{\"a\": ".repeat(depth), "}".repeat(depth));
        assert!(JsonValue::parse(&objects).is_ok());
        for past in [
            format!("[{at_limit}]"),
            format!("{{\"a\": {objects}}}"),
            "[".repeat(100_000),
        ] {
            let err = JsonValue::parse(&past).unwrap_err();
            assert_eq!(err.message, "nesting too deep");
        }
    }

    /// The string decoder as it was before it copied runs: one `char` at a
    /// time into an unreserved `String`. The oracle for the one in use.
    fn reference_string(p: &mut Reader) -> Result<String, JsonError> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = reference_hex(p)?;
                            p.pos += 4;
                            let escape_follows = (0xd800..0xdc00).contains(&code)
                                && p.bytes.get(p.pos + 1) == Some(&b'\\')
                                && p.bytes.get(p.pos + 2) == Some(&b'u');
                            let mut pair = None;
                            if escape_follows {
                                let back = p.pos;
                                p.pos += 2;
                                match reference_hex(p) {
                                    Ok(low @ 0xdc00..=0xdfff) => {
                                        p.pos += 4;
                                        pair = char::from_u32(
                                            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00),
                                        );
                                    }
                                    _ => p.pos = back,
                                }
                            }
                            out.push(pair.or(char::from_u32(code)).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(p.err("bad escape sequence")),
                    }
                    p.pos += 1;
                }
                Some(_) => {
                    let c = p.text[p.pos..].chars().next().unwrap();
                    out.push(c);
                    p.pos += c.len_utf8();
                }
            }
        }
    }

    /// The `\u` escape whose `u` is at the cursor, as a number.
    fn reference_hex(p: &Reader) -> Result<u32, JsonError> {
        let hex = p
            .bytes
            .get(p.pos + 1..p.pos + 5)
            .ok_or_else(|| p.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| p.err("non-ASCII \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| p.err("bad \\u escape"))
    }

    /// Runs `decode` on `text` from byte 0; returns its result and where
    /// the cursor stopped.
    fn decode_with(
        text: &str,
        decode: fn(&mut Reader) -> Result<String, JsonError>,
    ) -> (Result<String, JsonError>, usize) {
        let mut p = Reader::new(text);
        let result = decode(&mut p);
        (result, p.pos)
    }

    /// A seeded string literal: runs of plain text (long enough to cross
    /// word boundaries), escapes, multi-byte UTF-8, and now and then a bad
    /// escape, a truncated `\u` or no closing quote.
    fn random_literal(rng: &mut Prng) -> String {
        let mut next = |n: usize| rng.gen_range(0, n);
        const PIECES: [&str; 26] = [
            "\\n",
            "\\\"",
            "\\\\",
            "\\/",
            "\\t",
            "\\r",
            "\\b",
            "\\f",
            "\\u0041",
            "\\u00e9",
            "\\u4e2d",
            "\\uD83D",
            "\\uDE00",
            "\\uDBFF\\uDFFF",
            "\\u+041",
            "\\u00\u{e9}",
            "é",
            "中",
            "🦀",
            "\u{1}",
            " ",
            "x",
            "\\x",
            "\\",
            "\\u12",
            "\\u",
        ];
        let mut out = String::from("\"");
        for _ in 0..next(12) {
            if next(3) == 0 {
                let run = next(40);
                out.extend((0..run).map(|i| (b'a' + (i % 26) as u8) as char));
            } else {
                // The last four pieces break the literal.
                let bad = next(8) == 0;
                let pick = next(if bad { 26 } else { 22 });
                out.push_str(PIECES[pick]);
            }
        }
        if next(10) != 0 {
            out.push('"');
            if next(4) == 0 {
                out.push_str(", \"tail\"");
            }
        }
        out
    }

    #[test]
    fn string_decoding_matches_the_char_by_char_oracle() {
        let mut rng = Prng::seed_from_u64(0x5eed);
        let (mut ok, mut failed) = (0, 0);
        for case in 0..20_000 {
            let text = random_literal(&mut rng);
            let (got, got_end) = decode_with(&text, |p| p.string().map(Cow::into_owned));
            let (want, want_end) = decode_with(&text, reference_string);
            assert_eq!(got, want, "case {case}: {text:?}");
            // The escaped-form comparison accepts exactly the decoded text
            // and consumes what decoding consumes; on a miss the cursor
            // stays put.
            let compare = |want: &str| {
                let mut r = Reader::new(&text);
                (r.string_is(want), r.pos)
            };
            match &got {
                Ok(s) => {
                    assert_eq!(got_end, want_end, "case {case}: {text:?}");
                    // One allocation, sized by the raw length.
                    assert_eq!(s.capacity(), got_end - 2, "case {case}: {text:?}");
                    assert_eq!(compare(s), (true, got_end), "case {case}: {text:?}");
                    assert_eq!(compare(&format!("{s}x")), (false, 0), "case {case}");
                    let mut shorter = s.clone();
                    if let Some(last) = shorter.pop() {
                        assert_eq!(compare(&shorter), (false, 0), "case {case}: {text:?}");
                        let other = if last == 'y' { 'z' } else { 'y' };
                        assert_eq!(compare(&format!("{shorter}{other}")), (false, 0));
                    }
                    ok += 1;
                }
                Err(_) => {
                    assert_eq!(compare(""), (false, 0), "case {case}: {text:?}");
                    failed += 1;
                }
            }
        }
        assert!(
            ok > 10_000 && failed > 1_000,
            "{ok} decoded, {failed} refused"
        );
    }

    #[test]
    fn escape_copies_runs_between_escapes() {
        for s in ["", "plain", "a\"b", "\"", "é\n中\t🦀\r\u{1f}x\\", "tail\n"] {
            let quoted = quote(s);
            assert_eq!(JsonValue::parse(&quoted).unwrap().as_str(), Some(s));
            let by_char: String = s
                .chars()
                .map(|c| match c {
                    '"' => "\\\"".to_owned(),
                    '\\' => "\\\\".to_owned(),
                    '\n' => "\\n".to_owned(),
                    '\t' => "\\t".to_owned(),
                    '\r' => "\\r".to_owned(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
                    c => c.to_string(),
                })
                .collect();
            assert_eq!(escape(s), by_char);
        }
    }

    /// Error positions and messages, pinned from the recursive-descent
    /// parser the reader replaced: a bad frame's error response quotes
    /// them.
    #[test]
    fn errors_keep_their_positions_and_messages() {
        for (text, pos, message) in [
            ("", 0, "expected a JSON value"),
            ("   ", 3, "expected a JSON value"),
            ("{", 1, "expected `\"`"),
            ("}", 0, "expected a JSON value"),
            ("[", 1, "expected a JSON value"),
            ("]", 0, "expected a JSON value"),
            ("{\"a\" 1}", 5, "expected `:`"),
            ("{\"a\": }", 6, "expected a JSON value"),
            ("{1: 2}", 1, "expected `\"`"),
            ("{\"a\": 1,}", 8, "expected `\"`"),
            ("{\"a\": 1 \"b\": 2}", 8, "expected `,` or `}` in object"),
            ("[1 2]", 3, "expected `,` or `]` in array"),
            ("[1,]", 3, "expected a JSON value"),
            ("[,1]", 1, "expected a JSON value"),
            ("tru", 0, "expected `true`"),
            ("nul", 0, "expected `null`"),
            ("fals", 0, "expected `false`"),
            ("-", 1, "bad number literal"),
            ("1.2.3", 5, "bad number literal"),
            ("1e", 2, "bad number literal"),
            ("--1", 3, "bad number literal"),
            ("\"abc", 4, "unterminated string"),
            ("\"a\\qb\"", 3, "bad escape sequence"),
            ("\"\\u12\"", 2, "truncated \\u escape"),
            ("\"\\uzzzz\"", 2, "bad \\u escape"),
            ("{\"a\": [1, {\"b\": x}]}", 16, "expected a JSON value"),
            ("[1] 2", 4, "trailing characters after JSON value"),
            (" {} x", 4, "trailing characters after JSON value"),
            ("{\"a\":1}}", 7, "trailing characters after JSON value"),
            ("[\"\\u00e9\" , tru]", 12, "expected `true`"),
            ("{\"k\": \"v\", \"k\": \"w\", }", 21, "expected `\"`"),
            ("[[[[]]]", 7, "expected `,` or `]` in array"),
            (
                "{\"a\": {\"b\": {\"c\": [1, 2, ]}}}",
                25,
                "expected a JSON value",
            ),
            ("@", 0, "expected a JSON value"),
            ("\"\\ud83d\"x", 8, "trailing characters after JSON value"),
        ] {
            let err = JsonValue::parse(text).unwrap_err();
            assert_eq!((err.pos, err.message.as_str()), (pos, message), "{text:?}");
        }
    }

    #[test]
    fn reader_borrows_plain_keys_and_strings() {
        let text = r#"{"plain": "text", "esc\u0061ped": "a\nb", "n": [1, -2]}"#;
        let mut r = Reader::new(text);
        assert!(r.begin_object().unwrap());
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("plain")), "{key:?}");
        assert!(matches!(r.str().unwrap(), Some(Cow::Borrowed("text"))));
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(&key, Cow::Owned(k) if k == "escaped"), "{key:?}");
        assert!(matches!(r.str().unwrap(), Some(Cow::Owned(s)) if s == "a\nb"));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert!(r.begin_array().unwrap());
        assert!(r.next_item().unwrap());
        assert_eq!(r.int().unwrap(), Some(1));
        assert!(r.next_item().unwrap());
        assert_eq!(r.int().unwrap(), Some(-2));
        assert!(!r.next_item().unwrap());
        assert!(r.next_key().unwrap().is_none());
        r.finish().unwrap();
    }

    #[test]
    fn typed_reads_consume_other_values_and_refuse_bad_syntax() {
        let text = r#"[1.5, "s", {"a": [null, true]}, 99999999999999999999, 7, [], 3]"#;
        let mut r = Reader::new(text);
        assert!(r.begin_array().unwrap());
        let mut ints = Vec::new();
        while r.next_item().unwrap() {
            ints.push(r.int().unwrap());
        }
        assert_eq!(ints, [None, None, None, None, Some(7), None, Some(3)]);
        r.finish().unwrap();
        let mut r = Reader::new("[1, 2]");
        assert!(!r.begin_object().unwrap(), "an array is not an object");
        r.finish().unwrap();
        let mut r = Reader::new("[1, 2] x");
        assert_eq!(r.str().unwrap(), None);
        assert!(r.finish().is_err());
        for bad in ["[1, tru]", "{\"a\" 1}", "\"open", "-", "[1,]"] {
            assert!(Reader::new(bad).skip_value().is_err(), "{bad}");
            assert!(Reader::new(bad).int().is_err(), "{bad}");
        }
    }

    #[test]
    fn skipping_keeps_the_depth_bound() {
        let depth = MAX_DEPTH as usize;
        let at_limit = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let mut r = Reader::new(&at_limit);
        r.skip_value().unwrap();
        r.finish().unwrap();
        for past in [format!("[{at_limit}]"), "{\"a\": ".repeat(100_000)] {
            let err = Reader::new(&past).skip_value().unwrap_err();
            assert_eq!(err.message, "nesting too deep");
        }
    }

    /// Every case of the module docs' "Accepted grammar", read as a value
    /// of a one-key object, the shape of a serve frame and a store field.
    #[test]
    fn accepted_grammar_is_rfc_8259_plus_the_documented_superset() {
        let read = |value: &str| {
            let text = format!("{{\"x\": {value}}}");
            JsonValue::parse(&text).map(|v| v.get("x").cloned().unwrap())
        };
        let str = |s: &str| JsonValue::Str(s.to_owned());
        let accepted = [
            ("-0", JsonValue::Int(0)),
            ("007", JsonValue::Int(7)),
            ("-007", JsonValue::Int(-7)),
            ("01.5", JsonValue::Float(1.5)),
            ("1.", JsonValue::Float(1.0)),
            ("1.e5", JsonValue::Float(1e5)),
            ("-.5", JsonValue::Float(-0.5)),
            ("2E+2", JsonValue::Float(200.0)),
            ("99999999999999999999", JsonValue::Float(1e20)),
            ("1e400", JsonValue::Float(f64::INFINITY)),
            ("\"a\tb\"", str("a\tb")),
            ("\"a\u{1}b\"", str("a\u{1}b")),
            (r#""\u+041""#, str("A")),
            (r#""\uD83D\uDE00""#, str("\u{1f600}")),
            (r#""\ud83d\ude00""#, str("\u{1f600}")),
            (r#""\uD83D""#, str("\u{fffd}")),
            (r#""\uDE00\uD83D""#, str("\u{fffd}\u{fffd}")),
            (r#""\uD83Dx\uDE00""#, str("\u{fffd}x\u{fffd}")),
            (r#""\uD83D\u0041""#, str("\u{fffd}A")),
        ];
        for (value, want) in accepted {
            assert_eq!(read(value), Ok(want), "{value:?}");
        }
        let refused = "+1 .5 - --1 1-2 1.5E 1e 0x1 NaN Infinity tru True".split(' ');
        for value in refused.chain([r#""\x""#, r#""\u12""#, "\"open"]) {
            assert!(read(value).is_err(), "{value:?}");
        }
    }

    #[test]
    fn object_lookup_misses() {
        let v = JsonValue::parse(r#"{"a": 1}"#).unwrap();
        assert!(v.get("b").is_none());
        assert!(JsonValue::Null.get("a").is_none());
    }
}
