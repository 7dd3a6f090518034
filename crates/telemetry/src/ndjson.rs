//! A minimal hand-rolled flat-JSON line writer and reader (the NDJSON
//! building blocks).
//!
//! Same philosophy as `clanbft_types::codec`: deterministic output, no
//! external crates. Only what traces need — flat objects with string,
//! integer, float, boolean and integer-array fields. [`JsonObj`] emits keys
//! in insertion order; [`parse_line`] reads exactly the shape it writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Builder for one JSON object, rendered on a single line.
#[derive(Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> JsonObj {
        JsonObj { buf: String::new() }
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        push_json_string(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> JsonObj {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (finite values only; non-finite renders as null,
    /// which JSON cannot express as a number).
    pub fn f64(mut self, k: &str, v: f64) -> JsonObj {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k);
        push_json_string(&mut self.buf, v);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> JsonObj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds an array of unsigned integers.
    pub fn arr_u64(mut self, k: &str, vs: &[u64]) -> JsonObj {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    /// Renders the object as one line (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Appends `s` as a JSON string literal, escaping per RFC 8259.
fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// One parsed JSON value (only the shapes [`JsonObj`] produces).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Array of unsigned integers.
    Arr(Vec<u64>),
    /// JSON null (non-finite floats render as this).
    Null,
}

impl Value {
    /// The integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The fields of one parsed line, by key.
pub type Fields = BTreeMap<String, Value>;

/// Parses one flat JSON object line into a key→value map (a repeated key
/// keeps its last value).
///
/// Returns `Err` with a short reason on malformed input.
pub fn parse_line(line: &str) -> Result<Fields, String> {
    let mut p = Parser { text: line, pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.expect(b'}')?;
        return Ok(map);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        map.insert(key, value);
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    Ok(map)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16 + (d as char).to_digit(16).ok_or("bad \\u escape")?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(_) => {
                    // A run of ordinary characters: copy through to the next
                    // quote or escape (both ASCII, so a run never splits a
                    // multi-byte character).
                    let rest = self.text.get(self.pos - 1..).ok_or("invalid utf8")?;
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run - 1;
                }
            }
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        self.skip_digits();
        // The writer only emits unsigned integers and finite floats; floats
        // appear only in bench summaries, not traces. Accept a fraction by
        // truncating it.
        let fraction = self.peek() == Some(b'.');
        if fraction {
            self.pos += 1;
            self.skip_digits();
        }
        let text = &self.text[start..self.pos];
        let parsed = if fraction {
            text.parse::<f64>().ok().map(|f| f as u64)
        } else {
            text.parse::<u64>().ok()
        };
        parsed.ok_or_else(|| format!("bad number {text:?}"))
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'0'..=b'9') => Ok(Value::U64(self.number()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'[') => {
                self.pos += 1;
                let mut arr = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(arr));
                }
                loop {
                    self.skip_ws();
                    arr.push(self.number()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => break,
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
                Ok(Value::Arr(arr))
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal, expected {text}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_object() {
        let line = JsonObj::new()
            .u64("at", 42)
            .str("ev", "round_entered")
            .bool("leader", true)
            .f64("tps", 1.5)
            .finish();
        assert_eq!(
            line,
            r#"{"at":42,"ev":"round_entered","leader":true,"tps":1.5}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let line = JsonObj::new().str("k", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(line, r#"{"k":"a\"b\\c\nd\u0001"}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(JsonObj::new().f64("x", f64::NAN).finish(), r#"{"x":null}"#);
    }

    #[test]
    fn u64_arrays() {
        assert_eq!(
            JsonObj::new().arr_u64("xs", &[3, 1, 2]).finish(),
            r#"{"xs":[3,1,2]}"#
        );
        assert_eq!(JsonObj::new().arr_u64("xs", &[]).finish(), r#"{"xs":[]}"#);
    }

    #[test]
    fn reader_inverts_the_writer() {
        let line = JsonObj::new()
            .u64("at", 42)
            .str("k", "a\"b\\c\nd\u{1}é")
            .bool("leader", true)
            .f64("x", f64::NAN)
            .arr_u64("xs", &[3, 1, 2])
            .arr_u64("none", &[])
            .finish();
        let map = parse_line(&line).expect("parses");
        assert_eq!(map["at"], Value::U64(42));
        assert_eq!(map["k"], Value::Str("a\"b\\c\nd\u{1}é".to_string()));
        assert_eq!(map["leader"], Value::Bool(true));
        assert_eq!(map["x"], Value::Null);
        assert_eq!(map["xs"], Value::Arr(vec![3, 1, 2]));
        assert_eq!(map["none"], Value::Arr(Vec::new()));
        assert_eq!(parse_line("{}"), Ok(BTreeMap::new()));
    }

    #[test]
    fn malformed_lines_are_errors() {
        for bad in [
            "",
            "{",
            "{\"a\":1,",
            "{\"a\":}",
            "{\"a\":-1}",
            "{\"a\":99999999999999999999}",
            "{\"a\":[1,}",
            "{\"a\":\"unterminated}",
            "{\"a\":tru}",
            "not json at all",
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} parsed");
        }
        // A repeated key keeps its last value.
        assert_eq!(parse_line("{\"a\":1,\"a\":2}").unwrap()["a"], Value::U64(2));
    }
}
