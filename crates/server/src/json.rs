//! A minimal JSON codec for the completions API (object/array/string/
//! number/bool/null; UTF-8; standard escapes). Deliberately tiny — the API
//! payloads are flat objects.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys for deterministic output).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object member accessor.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
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

/// JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// Byte offset of the problem.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.position, self.message)
    }
}

impl Error for ParseJsonError {}

/// Deepest array/object nesting [`parse_json`] accepts. The parser recurses
/// once per level, so the bound is what keeps a body of `[[[[…` from
/// overflowing the handler thread's stack.
pub const MAX_JSON_DEPTH: usize = 64;

/// Parses JSON text.
///
/// # Errors
///
/// Returns [`ParseJsonError`] on malformed input, or on arrays/objects
/// nested deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, ParseJsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        text,
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    i: usize,
    /// Arrays and objects currently open around `i`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseJsonError {
        ParseJsonError {
            position: self.i,
            message: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<Json, ParseJsonError> {
        match self.bytes.get(self.i) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object, counting it against [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseJsonError>,
    ) -> Result<Json, ParseJsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseJsonError> {
        if self.text[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, ParseJsonError> {
        let start = self.i;
        while matches!(
            self.bytes.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        self.text[start..self.i]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, ParseJsonError> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bytes.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.bytes.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the full character.
                    let c = self.text[self.i..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseJsonError> {
        self.i += 1; // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.i) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.i) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.i += 1;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bytes.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseJsonError> {
        self.i += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_object() {
        let j = Json::obj(vec![
            ("prompt", Json::Str("install nginx".into())),
            ("context", Json::Str("---\n- name: x\n".into())),
            ("n", Json::Num(3.0)),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
        ]);
        let text = j.to_text();
        assert_eq!(parse_json(&text).unwrap(), j);
    }

    #[test]
    fn escapes_survive() {
        let j = Json::Str("line\nbreak \"quoted\" \\slash\ttab".into());
        assert_eq!(parse_json(&j.to_text()).unwrap(), j);
    }

    #[test]
    fn unicode_survives() {
        let j = Json::Str("héllo ☃".into());
        assert_eq!(parse_json(&j.to_text()).unwrap(), j);
        assert_eq!(parse_json("\"\\u00e9\"").unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn arrays_and_nesting() {
        let text = r#"{"a":[1,2,{"b":[true,null]}]}"#;
        let j = parse_json(text).unwrap();
        assert_eq!(j.to_text(), text);
    }

    #[test]
    fn numbers() {
        assert_eq!(parse_json("3.5").unwrap(), Json::Num(3.5));
        assert_eq!(parse_json("-7").unwrap(), Json::Num(-7.0));
        assert_eq!(parse_json("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("nope").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(err.position, MAX_JSON_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Objects count too, and a megabyte of openers is an error, not a
        // stack overflow.
        let objects = format!("{}1{}", "{\"a\":".repeat(65), "}".repeat(65));
        assert!(parse_json(&objects).is_err());
        assert!(parse_json(&"[".repeat(1 << 20)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(1 << 18)).is_err());
    }

    #[test]
    fn accessors() {
        let j = parse_json(r#"{"s":"x","b":true}"#).unwrap();
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("b").and_then(Json::as_bool), Some(true));
        assert!(j.get("missing").is_none());
    }
}
