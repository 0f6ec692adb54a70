//! A minimal hand-rolled JSON value: writer and parser.
//!
//! The sinks emit one JSON object per line (JSONL) and the snapshot
//! serializer produces a single document; both go through [`Json`] so the
//! output style stays uniform across the workspace. The parser exists so
//! tests (and downstream tooling) can round-trip sink output without an
//! external dependency.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so rendered output is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers survive the round trip exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => render_number(*v, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error (with byte offset).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn render_number(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 && !(v == 0.0 && v.is_sign_negative()) {
        // Negative zero must skip the integer shortcut: `-0.0 as i64`
        // is 0, which would drop the sign bit on the wire.
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                pairs.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole unescaped run up to the next `"` or `\` in
                // one step. Both are ASCII, and ASCII bytes never occur
                // inside a multi-byte UTF-8 sequence, so the run of a valid
                // &str is itself valid UTF-8 — and decoding it once keeps
                // the parse linear in the input length.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |off| *pos + off);
                out.push_str(std::str::from_utf8(&bytes[*pos..run]).map_err(|e| e.to_string())?);
                *pos = run;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map_err(|e| e.to_string())?
        .parse()
        .map_err(|_| format!("bad number at byte {start}"))
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<f32> for Json {
    fn from(v: f32) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_object() {
        let j = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Str("x\"y".into())),
            ("c".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(j.render(), r#"{"a":1,"b":"x\"y","c":[true,null]}"#);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(20000.0).render(), "20000");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(-3.0).render(), "-3");
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_round_trips_render() {
        let j = Json::Obj(vec![
            ("epoch".into(), Json::Num(3.0)),
            ("loss".into(), Json::Num(0.125)),
            ("name".into(), Json::Str("a\nb\\c".into())),
            ("flags".into(), Json::Arr(vec![Json::Bool(false)])),
            ("none".into(), Json::Null),
        ]);
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let j = Json::parse(" { \"a\" : [ 1 , { \"b\" : \"c\" } ] } ").unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            j.get("a").unwrap().as_array().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("c")
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"k":20000,"f":1.5,"s":"x","b":true}"#).unwrap();
        assert_eq!(j.get("k").unwrap().as_u64(), Some(20000));
        assert_eq!(j.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(j.get("f").unwrap().as_u64(), None);
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("b").unwrap().as_bool(), Some(true));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn unicode_escapes_parse() {
        // é is é; literal multibyte UTF-8 must survive as well.
        let j = Json::parse("\"A\\u00e9 é\"").unwrap();
        assert_eq!(j.as_str(), Some("Aé é"));
    }

    #[test]
    fn mebibyte_string_with_multibyte_text_and_escapes_round_trips() {
        // A 1 MiB literal: per-character re-decoding of the remaining input
        // made this quadratic; run-at-a-time decoding parses it instantly.
        let unit = "ascii é→😀 \"quoted\" back\\slash\n\ttab ";
        let mut s = String::new();
        while s.len() < 1 << 20 {
            s.push_str(unit);
        }
        let j = Json::Obj(vec![("s".into(), Json::Str(s.clone()))]);
        let text = j.render();
        assert!(text.len() > 1 << 20);
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(s.as_str()));
        assert_eq!(parsed.render(), text);
    }
}
