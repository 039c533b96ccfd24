//! The workspace's JSON: [`JsonWriter`], the one renderer every
//! document and event line goes through, and a small recursive-descent
//! parser that reads them back (`ca-bench profile-check`, the trace
//! stitcher, and the tests that check what was written).
//!
//! The workspace is hermetic (no serde). The writer alone places
//! quotes, separators and nesting, escapes strings and formats numbers:
//! integers as their exact digits, floats to a caller-chosen number of
//! decimals, and non-finite floats as `null`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Streaming JSON writer. Values are written in call order; inside an
/// object, [`key`](JsonWriter::key) comes before each value. A compact
/// document is one line (event lines, wire payloads); a pretty one puts
/// each member and element on its own indented line and ends with a
/// newline (the files people read).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    depth: usize,
    /// The innermost open container already holds a value.
    filled: bool,
    /// A key was just written: the next value completes its member.
    after_key: bool,
}

impl JsonWriter {
    /// A writer of one-line documents.
    pub fn compact() -> JsonWriter {
        JsonWriter::default()
    }

    /// A writer of indented, newline-terminated documents.
    pub fn pretty() -> JsonWriter {
        JsonWriter {
            pretty: true,
            ..JsonWriter::default()
        }
    }

    /// Takes the rendered document out of the writer.
    pub fn finish(&mut self) -> String {
        if self.pretty {
            self.out.push('\n');
        }
        std::mem::take(&mut self.out)
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    pub fn string(&mut self, value: &str) -> &mut Self {
        let out = self.next();
        out.push('"');
        escape_into(out, value);
        out.push('"');
        self
    }

    pub fn u64(&mut self, value: u64) -> &mut Self {
        let _ = write!(self.next(), "{value}");
        self
    }

    /// A float to `decimals` places; `None`, NaN and the infinities,
    /// which JSON cannot carry, as `null`.
    pub fn f64(&mut self, value: impl Into<Option<f64>>, decimals: usize) -> &mut Self {
        let out = self.next();
        match value.into() {
            Some(v) if v.is_finite() => {
                let _ = write!(out, "{v:.decimals$}");
            }
            _ => out.push_str("null"),
        }
        self
    }

    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.next().push_str(if value { "true" } else { "false" });
        self
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', body)
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.next().push(open);
        self.depth += 1;
        self.filled = false;
        body(self);
        self.depth -= 1;
        if self.filled {
            self.newline();
        }
        self.out.push(close);
        self.filled = true;
        self
    }

    /// Starts the next value: unless it completes a member or is the
    /// document itself, a separator after a sibling, then (pretty) a
    /// fresh line.
    fn next(&mut self) -> &mut String {
        if !std::mem::take(&mut self.after_key) && self.depth > 0 {
            if std::mem::replace(&mut self.filled, true) {
                self.out.push(',');
            }
            self.newline();
        }
        &mut self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }
}

/// Parsed JSON value. Numbers are read as `f64`, exact for integers up
/// to 2^53.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }
    /// Object member lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at offset {}, found {:?}",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!(
            "unexpected {:?} at offset {}",
            other.map(|&x| x as char),
            *pos
        )),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        // Surrogates are not emitted by our writers;
                        // map unpaired ones to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this
                // is always a valid boundary walk).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("empty continuation")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            other => return Err(format!("expected , or ] in array, found {other:?}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            other => return Err(format!("expected , or }} in object, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_parser() {
        let raw = "a\"b\\c\nd\te\u{1}f\u{1f}";
        let expected = JsonValue::Object(BTreeMap::from([
            (raw.to_string(), JsonValue::String(raw.to_string())),
            ("empty_object".into(), JsonValue::Object(BTreeMap::new())),
            ("empty_array".into(), JsonValue::Array(Vec::new())),
            (
                "nested".into(),
                JsonValue::Array(vec![
                    JsonValue::Object(BTreeMap::from([
                        ("t".into(), JsonValue::Bool(true)),
                        ("f".into(), JsonValue::Bool(false)),
                    ])),
                    JsonValue::Null,
                    JsonValue::Array(vec![JsonValue::Number(7.0)]),
                ]),
            ),
            ("max".into(), JsonValue::Number(u64::MAX as f64)),
            ("float".into(), JsonValue::Number(2.5)),
            ("nan".into(), JsonValue::Null),
            ("none".into(), JsonValue::Null),
        ]));
        for mut w in [JsonWriter::compact(), JsonWriter::pretty()] {
            let pretty = w.pretty;
            let text = w
                .object(|w| {
                    w.key(raw).string(raw);
                    w.key("empty_object").object(|_| {});
                    w.key("empty_array").array(|_| {});
                    w.key("nested").array(|w| {
                        w.object(|w| {
                            w.key("t").bool(true).key("f").bool(false);
                        })
                        .f64(None, 0)
                        .array(|w| {
                            w.u64(7);
                        });
                    });
                    w.key("max").u64(u64::MAX);
                    w.key("float").f64(2.5, 2);
                    w.key("nan").f64(f64::NAN, 3);
                    w.key("none").f64(None, 3);
                })
                .finish();
            assert!(text.contains("\"max\":") && text.contains("18446744073709551615"));
            assert!(text.contains("2.50"), "{text}");
            assert_eq!(text.lines().count() == 1, !pretty, "{text}");
            assert!(text.ends_with(if pretty { "\n}\n" } else { "}" }), "{text}");
            assert_eq!(parse(&text), Ok(expected.clone()), "{text}");
        }
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"e":"x"}"#;
        let v = parse(doc).expect("parses");
        let a = v.get("a").and_then(|v| v.as_array()).expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_u64(), None);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&JsonValue::Bool(true))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "{} trailing",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parses_existing_bench_artifacts() {
        // The parallel bench artifact checked into the repo root.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_parallel.json"
        ));
        if let Ok(text) = text {
            let v = parse(&text).expect("BENCH_parallel.json parses");
            assert!(v.get("threads").is_some());
        }
    }
}
