//! Dependency-free JSON for the epistemic-privacy workspace.
//!
//! The service layer ([`epi-service`]) speaks newline-delimited JSON over
//! TCP, and audit tooling wants findings/verdicts/reports in a stable
//! machine-readable form. The offline build cannot use `serde`, so this
//! crate provides the minimal equivalent: a [`Json`] value model, a strict
//! parser ([`Json::parse`]), a deterministic writer ([`Json::render`] —
//! object keys keep insertion order, so equal values render byte-for-byte
//! equal), and [`Serialize`] / [`Deserialize`] traits mirroring serde's
//! division of labour.
//!
//! ```
//! use epi_json::{Json, Serialize};
//! let v = Json::obj([("op", Json::from("stats")), ("id", Json::from(7i64))]);
//! assert_eq!(v.render(), r#"{"op":"stats","id":7}"#);
//! assert_eq!(Json::parse(&v.render()).unwrap(), v);
//! ```

use std::fmt;

/// A JSON value.
///
/// Integers and floats are kept apart so `u64` timestamps and counters
/// round-trip exactly; object members keep insertion order so rendering is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(i: u64) -> Json {
        i64::try_from(i)
            .map(Json::Int)
            .unwrap_or(Json::Float(i as f64))
    }
}
impl From<u32> for Json {
    fn from(i: u32) -> Json {
        Json::Int(i as i64)
    }
}
impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::from(i as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl Json {
    /// An object from key/value pairs, preserving order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(members: I) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Member lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The numeric payload widened to `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to compact JSON (no whitespace, keys in insertion order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    // Keep floats re-parsable and distinguishable from ints.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{x:.1}"));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// Arrays and objects may nest at most [`MAX_JSON_DEPTH`] deep; a
    /// deeper document is an error, not a stack overflow.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse or decode error, with a byte offset for parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input (0 for decode errors).
    pub offset: usize,
}

impl JsonError {
    /// A decode-stage error (no source offset).
    pub fn decode(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Parsing, rendering and drop all recurse over the value, and every
/// request line is parsed, so a hostile line must not be able to exhaust
/// a thread's stack. The documents this workspace writes nest a few
/// levels deep.
pub const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("expected 'null'"))
                }
            }
            Some(b't') => {
                if self.eat("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("expected 'true'"))
                }
            }
            Some(b'f') => {
                if self.eat("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("expected 'false'"))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(_) => self.number(),
        }
    }

    /// Parses a container one level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err(&format!(
                "arrays and objects nest deeper than {MAX_JSON_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let container = f(self);
        self.depth -= 1;
        container
    }

    /// An array, at its `[`.
    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// An object, at its `{`.
    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace's payloads; map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    if len == 0 || start + len > self.bytes.len() {
                        return Err(self.err("invalid utf8 in string"));
                    }
                    self.pos = start + len;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("expected a JSON value"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid float literal"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Float))
                .map_err(|_| self.err("invalid integer literal"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 0,
    }
}

/// Conversion into [`Json`] (the workspace's stand-in for
/// `serde::Serialize`).
pub trait Serialize {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from [`Json`] (the workspace's stand-in for
/// `serde::Deserialize`).
pub trait Deserialize: Sized {
    /// Decodes a value, with a descriptive error on shape mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl Serialize for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}
impl Deserialize for Json {
    fn from_json(v: &Json) -> Result<Json, JsonError> {
        Ok(v.clone())
    }
}

macro_rules! impl_serde_via_from {
    ($($t:ty => $as:ident / $want:literal),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::from(self.clone())
            }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<$t, JsonError> {
                v.$as()
                    .and_then(|x| <$t>::try_from(x).ok())
                    .ok_or_else(|| JsonError::decode(concat!("expected ", $want)))
            }
        }
    )*};
}

impl_serde_via_from!(i64 => as_i64 / "an integer", u64 => as_u64 / "a non-negative integer",
    u32 => as_u64 / "a u32", usize => as_u64 / "a usize");

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_json(v: &Json) -> Result<bool, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::decode("expected a boolean"))
    }
}

impl Serialize for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}
impl Deserialize for f64 {
    fn from_json(v: &Json) -> Result<f64, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::decode("expected a number"))
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_json(v: &Json) -> Result<String, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::decode("expected a string"))
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::decode("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(x) => x.to_json(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Decodes one required object member.
pub fn field<T: Deserialize>(v: &Json, key: &str) -> Result<T, JsonError> {
    let member = v
        .get(key)
        .ok_or_else(|| JsonError::decode(format!("missing field `{key}`")))?;
    T::from_json(member).map_err(|e| JsonError::decode(format!("field `{key}`: {}", e.message)))
}

/// Decodes an optional object member (missing and `null` both map to
/// `None`).
pub fn opt_field<T: Deserialize>(v: &Json, key: &str) -> Result<Option<T>, JsonError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(member) => T::from_json(member)
            .map(Some)
            .map_err(|e| JsonError::decode(format!("field `{key}`: {}", e.message))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-42", "3.5", "\"hi\"", "\"\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
        assert_eq!(Json::parse("17").unwrap(), Json::Int(17));
        assert_eq!(Json::parse("17.0").unwrap(), Json::Float(17.0));
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"op":"disclose","user":"alice","time":2005,"query":"hiv_pos -> transfusions","state":3,"tags":[1,2.5,null,{"x":true}]}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("user").and_then(Json::as_str), Some("alice"));
        assert_eq!(v.get("time").and_then(Json::as_u64), Some(2005));
        assert_eq!(
            v.get("tags").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |open: &str, close: &str, k: usize| open.repeat(k) + "0" + &close.repeat(k);
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let at_limit = nest(open, close, MAX_JSON_DEPTH);
            assert_eq!(Json::parse(&at_limit).unwrap().render(), at_limit);
            let err = Json::parse(&nest(open, close, MAX_JSON_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nest deeper"), "{err}");
            assert_eq!(err.offset, MAX_JSON_DEPTH * open.len());
        }
        // A hostile line is an error, not a stack overflow.
        assert!(Json::parse(&nest("[", "]", 20_000)).is_err());
    }

    #[test]
    fn string_escapes() {
        let s = "line\nquote\"back\\slash\ttab\u{1}unicode é Ω";
        let v = Json::Str(s.to_owned());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn parse_errors_have_offsets() {
        for bad in [
            "",
            "tru",
            "{",
            "{\"a\":}",
            "[1,]",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad}");
        }
    }

    #[test]
    fn field_helpers() {
        let v = Json::parse(r#"{"n":3,"s":"x"}"#).unwrap();
        assert_eq!(field::<u64>(&v, "n").unwrap(), 3);
        assert_eq!(field::<String>(&v, "s").unwrap(), "x");
        assert!(field::<u64>(&v, "missing").is_err());
        assert_eq!(opt_field::<u64>(&v, "missing").unwrap(), None);
        assert_eq!(opt_field::<u64>(&v, "n").unwrap(), Some(3));
        assert!(field::<String>(&v, "n").is_err());
    }

    #[test]
    fn deterministic_rendering() {
        let a = Json::obj([("b", Json::from(1i64)), ("a", Json::from(2i64))]);
        let b = Json::obj([("b", Json::from(1i64)), ("a", Json::from(2i64))]);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn float_int_distinction_survives() {
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(Json::Int(2).render(), "2");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn vec_and_option_serde() {
        let xs: Vec<u64> = vec![1, 2, 3];
        let j = xs.to_json();
        assert_eq!(Vec::<u64>::from_json(&j).unwrap(), xs);
        let none: Option<String> = None;
        assert_eq!(none.to_json(), Json::Null);
        assert_eq!(Option::<String>::from_json(&Json::Null).unwrap(), None);
    }
}
