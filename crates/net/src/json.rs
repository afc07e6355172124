//! A minimal hand-rolled JSON value, writer, and reader — the
//! protocol's only serialization substrate (the build environment is
//! offline, so no serde).
//!
//! The dialect is deliberately narrow: the only number form is an
//! unsigned decimal integer ([`Value::UInt`]), because every numeric
//! protocol field is a `u64` (seeds, job ids, counts). Floats never
//! appear as JSON numbers — they travel as 16-digit hex strings of
//! their IEEE-754 bits (see [`hycim_qubo::wire`]), which is what makes
//! the protocol *exact*: no decimal round-trip can perturb a merged
//! result. The reader rejects anything outside the dialect (signs,
//! fractions, exponents, duplicate object keys) with a byte-offset
//! error instead of guessing.

use std::fmt;

/// A parsed JSON document (or a document under construction).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned decimal integer — the dialect's only number form.
    UInt(u64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order (order is preserved so encoding
    /// is deterministic).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks a key up in an object (`None` for missing keys and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, when this is a [`Value::UInt`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, when this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool payload, when this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact single-line JSON. The output never
    /// contains a raw newline (newlines in strings are escaped), which
    /// is what lets the frame layer delimit messages by line.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the [`encode`](Self::encode) form to `out`, so the
    /// frame writer builds a frame once, in place.
    pub(crate) fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Str(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document, rejecting trailing input.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] carrying the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input after document"));
        }
        Ok(value)
    }
}

/// The bytes a string cannot carry raw: the quote, the backslash and
/// the control characters. All are ASCII, so a run of other bytes in
/// valid UTF-8 always ends on a char boundary.
fn must_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !must_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document of the first violation.
    pub offset: usize,
    /// What was expected or violated.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.uint(),
            Some(b'-') => Err(self.err("negative numbers are outside the protocol dialect")),
            Some(other) => Err(self.err(format!("unexpected byte '{}'", other as char))),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn uint(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.err("fractions/exponents are outside the protocol dialect"));
        }
        let digits = &self.text[start..self.pos];
        if digits.len() > 1 && digits.starts_with('0') {
            self.pos = start;
            return Err(self.err("leading zeros are not allowed"));
        }
        digits
            .parse::<u64>()
            .map(Value::UInt)
            .map_err(|_| JsonError {
                offset: start,
                message: "integer exceeds u64".to_string(),
            })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear (the writer only
                            // escapes control characters); reject them.
                            let c = char::from_u32(code).ok_or(JsonError {
                                offset: start,
                                message: "escape is not a scalar value".to_string(),
                            })?;
                            out.push(c);
                        }
                        other => {
                            return Err(JsonError {
                                offset: start,
                                message: format!("unknown escape '\\{}'", other as char),
                            })
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // One scan to the run's end, a char boundary (see
                    // `must_escape`), then one copy.
                    let len = self.bytes[start..].iter().position(|&b| must_escape(b));
                    self.pos = len.map_or(self.bytes.len(), |n| start + n);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_offset,
                    message: format!("duplicate key \"{key}\""),
                });
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::UInt(0),
            Value::UInt(u64::MAX),
            Value::Str(String::new()),
            Value::Str("plain".into()),
            Value::Str("quotes \" and \\ and \n\t\r lines".into()),
            Value::Str("unicode: héllo ∑".into()),
            Value::Str("\u{1}\u{1f}".into()),
        ] {
            assert_eq!(Value::parse(&v.encode()).unwrap(), v, "{v:?}");
        }
    }

    #[test]
    fn containers_round_trip_preserving_order() {
        let v = Value::object(vec![
            ("b", Value::UInt(1)),
            ("a", Value::Array(vec![Value::Null, Value::Bool(true)])),
            (
                "nested",
                Value::object(vec![("deep", Value::Str("x".into()))]),
            ),
        ]);
        let text = v.encode();
        assert_eq!(Value::parse(&text).unwrap(), v);
        // Deterministic encoding: keys stay in insertion order.
        assert!(text.find("\"b\"").unwrap() < text.find("\"a\"").unwrap());
        assert!(!text.contains('\n'), "encoded form is single-line");
    }

    #[test]
    fn accessors() {
        let v = Value::object(vec![
            ("n", Value::UInt(7)),
            ("s", Value::Str("hi".into())),
            ("b", Value::Bool(false)),
            ("a", Value::Array(vec![Value::UInt(1)])),
        ]);
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[_]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
        assert!(Value::Null.get("n").is_none());
    }

    #[test]
    fn dialect_violations_are_rejected_with_offsets() {
        for (doc, needle) in [
            ("-1", "negative"),
            ("1.5", "fraction"),
            ("1e3", "fraction"),
            ("01", "leading zero"),
            ("18446744073709551616", "exceeds u64"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            ("\"unterminated", "unterminated"),
            ("[1,]", "unexpected byte"),
            ("{\"a\" 1}", "expected ':'"),
            ("true false", "trailing input"),
            ("\"bad \\x escape\"", "unknown escape"),
            ("nul", "expected 'null'"),
            ("", "unexpected end"),
        ] {
            let err = Value::parse(doc).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{doc:?}: {err} (wanted {needle:?})"
            );
        }
    }

    #[test]
    fn offsets_point_at_the_violation() {
        let err = Value::parse("{\"key\": -3}").unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(err.to_string().contains("byte 8"));
    }

    #[test]
    fn raw_control_byte_reports_its_own_offset_after_a_run() {
        // After multibyte text: 'é' is two bytes, so \u{1} sits at 7.
        let err = Value::parse("\"h\u{e9}llo\u{1}\"").unwrap_err();
        assert_eq!(err.offset, 7, "{err}");
        assert!(err.message.contains("raw control character"), "{err}");
        // After a long run, and after a run that follows an escape.
        let long = "a".repeat(10_000);
        let err = Value::parse(&format!("\"{long}\u{1f}tail\"")).unwrap_err();
        assert_eq!(err.offset, 1 + long.len(), "{err}");
        let err = Value::parse(&format!("\"\\n{long}\n\"")).unwrap_err();
        assert_eq!(err.offset, 3 + long.len(), "{err}");
    }

    #[test]
    fn unknown_escape_after_a_long_run_reports_the_escape_start() {
        let long = "x".repeat(10 * 1024);
        let err = Value::parse(&format!("\"{long}\\q\"")).unwrap_err();
        assert_eq!(err.offset, 1 + long.len(), "{err}");
        assert!(err.message.contains("unknown escape '\\q'"), "{err}");
        // Unterminated after a run: the offset is the end of input.
        let doc = format!("\"{long}");
        assert_eq!(Value::parse(&doc).unwrap_err().offset, doc.len());
    }

    #[test]
    fn mixed_runs_escapes_and_wide_scalars_round_trip() {
        let s =
            "run \"q\" back\\slash\n\r\t\u{8}\u{c}\u{0}\u{1f} 4-byte \u{1f600}\u{10ffff} é∑ end";
        let v = Value::Str(s.to_string());
        let text = v.encode();
        // The writer's bytes are pinned: short escapes for quote,
        // backslash, \n, \r and \t; lowercase \u00XX for every other
        // control byte; everything else raw.
        assert_eq!(
            text,
            "\"run \\\"q\\\" back\\\\slash\\n\\r\\t\\u0008\\u000c\\u0000\\u001f \
             4-byte \u{1f600}\u{10ffff} é∑ end\""
        );
        assert_eq!(Value::parse(&text).unwrap(), v);
        // Every escape the reader accepts, between runs of wide text.
        let doc = "\"\u{1f600}a\\\"b\\\\c\\/d\\ne\\rf\\tg\\bh\\fi\\u00e9j\\u2211\u{1f600}\"";
        assert_eq!(
            Value::parse(doc).unwrap(),
            Value::Str("\u{1f600}a\"b\\c/d\ne\rf\tg\u{8}h\u{c}iéj∑\u{1f600}".into())
        );
    }
}
