//! The workspace's one JSON codec.  Every campaign document — the
//! `gauntlet-report-v1` report, the fleet spec, frames, fragments,
//! checkpoints, the triage store and the event log — is built as a [`Json`]
//! value and written by [`render`] (or streamed by [`render_object`]), and
//! read back by [`parse`] and the typed field accessors on [`Json`].
//!
//! One module owns the format so that no writer can drift from it: objects
//! keep their insertion order (each writer fixes its key order, and the
//! golden tests pin the bytes), non-negative integers stay exact over the
//! whole `u64` range, and strings are escaped one way.  The committed
//! `BENCH_pr*.json` trajectory baseline is rendered by it too.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A JSON value.  Objects preserve their key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range (seeds,
    /// counters, timestamps).
    Uint(u64),
    /// Any other number: negative, fractional, or beyond `u64`.
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(value: bool) -> Json {
        Json::Bool(value)
    }
}

impl From<u64> for Json {
    fn from(value: u64) -> Json {
        Json::Uint(value)
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Json {
        Json::Uint(value as u64)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::String(value.to_string())
    }
}

impl From<String> for Json {
    fn from(value: String) -> Json {
        Json::String(value)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

/// An object with the given fields, in the given order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.into(), value))
            .collect(),
    )
}

/// An array of strings.
pub fn strings<S: AsRef<str>>(items: &[S]) -> Json {
    Json::Array(items.iter().map(|item| item.as_ref().into()).collect())
}

/// A sorted counter map as an object (the inverse of
/// [`Json::counters_field`]).
pub fn counters<V: Copy + Into<Json>>(map: &BTreeMap<String, V>) -> Json {
    object(
        map.iter()
            .map(|(key, count)| (key.as_str(), (*count).into())),
    )
}

impl Json {
    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Uint(n) => Some(*n as f64),
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integers only.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Object fields as a sorted map of integral counters; `None` if any
    /// value is not a non-negative integer.
    pub fn as_counter_map(&self) -> Option<BTreeMap<String, u64>> {
        self.as_object()?
            .iter()
            .map(|(key, value)| Some((key.clone(), value.as_u64()?)))
            .collect()
    }

    /// A required field (which may be `null`).
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing `{key}`"))
    }

    /// A field that may be absent or `null`, as in documents written before
    /// the key existed.
    pub fn opt_field(&self, key: &str) -> Option<&Json> {
        self.get(key).filter(|value| **value != Json::Null)
    }

    /// `read(self, key)` when the field is present and not `null`, else
    /// `T::default()` — for keys that older documents lack.
    pub fn field_or_default<'a, T: Default>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json, &str) -> Result<T, String>,
    ) -> Result<T, String> {
        match self.opt_field(key) {
            Some(_) => read(self, key),
            None => Ok(T::default()),
        }
    }

    /// A required field converted by `convert`; the error names the key and
    /// the expected type.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        expected: &str,
        convert: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        convert(self.field(key)?).ok_or_else(|| format!("`{key}` is not {expected}"))
    }

    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "an unsigned integer", Json::as_u64)
    }

    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        self.typed(key, "an unsigned integer", |value| {
            usize::try_from(value.as_u64()?).ok()
        })
    }

    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a bool", Json::as_bool)
    }

    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// A required string-or-`null` field.
    pub fn opt_str_field(&self, key: &str) -> Result<Option<&str>, String> {
        self.typed(key, "a string or null", |value| match value {
            Json::Null => Some(None),
            other => other.as_str().map(Some),
        })
    }

    pub fn array_field(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "an array", Json::as_array)
    }

    pub fn object_field(&self, key: &str) -> Result<&[(String, Json)], String> {
        self.typed(key, "an object", Json::as_object)
    }

    pub fn str_array_field(&self, key: &str) -> Result<Vec<String>, String> {
        self.typed(key, "an array of strings", |value| {
            value
                .as_array()?
                .iter()
                .map(|item| item.as_str().map(str::to_string))
                .collect()
        })
    }

    /// A sorted counter map (the inverse of [`counters`]).
    pub fn counters_field<V: TryFrom<u64>>(
        &self,
        key: &str,
    ) -> Result<BTreeMap<String, V>, String> {
        self.typed(key, "an object of unsigned integers", |value| {
            value
                .as_counter_map()?
                .into_iter()
                .map(|(name, count)| Some((name, V::try_from(count).ok()?)))
                .collect()
        })
    }
}

/// Escape and quote a string as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out
}

/// Format an `f64` the way the benches do: finite, plain decimal notation.
pub fn number(value: f64) -> String {
    render(&Json::Number(value))
}

/// Render a value as compact JSON.  `parse` → `render` reproduces every
/// document the in-tree writers produce byte for byte.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// Render one object field by field, straight into the output.  For
/// documents that embed values they only borrow — the checkpoint's stored
/// fragments, an event's fields — so nothing is cloned into a tree first.
pub fn render_object(build: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, build);
    out
}

/// The open object of a [`render_object`] call.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjectWriter<'_> {
    /// Append one field.
    pub fn field(&mut self, key: &str, value: &Json) -> &mut Self {
        self.key(key);
        write_value(self.out, value);
        self
    }

    /// Append one field whose value is an object built by `build`.
    pub fn object(&mut self, key: &str, build: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        self.key(key);
        write_object(self.out, build);
        self
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_string(self.out, key);
        self.out.push(':');
    }
}

fn write_object(out: &mut String, build: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    build(&mut ObjectWriter {
        out: &mut *out,
        empty: true,
    });
    out.push('}');
}

fn write_value(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Uint(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Number(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Number(_) => out.push_str("null"),
        Json::String(s) => write_string(out, s),
        Json::Array(items) => {
            out.push('[');
            for (index, item) in items.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Object(fields) => write_object(out, |object| {
            for (key, item) in fields {
                object.field(key, item);
            }
        }),
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy unescaped runs whole; every escaped byte is ASCII, so each cut
    // falls on a character boundary.
    let mut run = 0;
    for (index, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..index]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = index + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parse one JSON document.  Trailing non-whitespace is an error, so a JSONL
/// line with garbage appended fails loudly.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(format!("trailing characters at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn keyword(&mut self, keyword: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(keyword) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Integers that fit a `u64` stay exact; everything else is an `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Uint(n));
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape as one slice: both
            // are ASCII, so the run ends on a character boundary.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {}
            }
            // A backslash escape.
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                        16,
                    )
                    .map_err(|e| e.to_string())?;
                    out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                    self.pos += 4;
                }
                _ => return Err(format!("invalid escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip() {
        let original = "line\none \"quoted\" \\ tab\t√ \u{1}";
        let quoted = string(original);
        let parsed = parse(&quoted).expect("parses");
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x"}"#;
        let parsed = parse(doc).expect("parses");
        assert_eq!(
            parsed.get("a").and_then(|a| a.as_array()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            parsed
                .get("b")
                .and_then(|b| b.get("c"))
                .and_then(|c| c.as_bool()),
            Some(true)
        );
        assert_eq!(parsed.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
        assert_eq!(parsed.get("e").and_then(|e| e.as_str()), Some("x"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_numbers() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\": 1.2.3}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn render_round_trips_preserving_key_order() {
        let doc = r#"{"b":[1,2,-3],"a":{"c":true,"d":null},"e":"x\ny","n":4294967296}"#;
        let parsed = parse(doc).expect("parses");
        assert_eq!(render(&parsed), doc);
        assert_eq!(parse(&render(&parsed)), Ok(parsed));
    }

    #[test]
    fn u64_rejects_fractions() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    /// Integers above 2^53 survive parse, render and `as_u64` exactly, and
    /// still read through `as_f64`.
    #[test]
    fn integers_stay_exact_over_the_whole_u64_range() {
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let text = n.to_string();
            let parsed = parse(&text).expect("parses");
            assert_eq!(parsed.as_u64(), Some(n));
            assert_eq!(parsed.as_f64(), Some(n as f64));
            assert_eq!(render(&parsed), text);
            assert_eq!(render(&Json::from(n)), text);
        }
        assert_eq!(render(&Json::Number(2.5)), "2.5");
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
    }

    #[test]
    fn field_accessors_name_the_key() {
        let doc = parse(r#"{"n":7,"s":"x","b":true,"o":null,"a":["p","q"],"m":{"k":2},"f":1.5}"#)
            .unwrap();
        assert_eq!(doc.u64_field("n"), Ok(7));
        assert_eq!(doc.usize_field("n"), Ok(7));
        assert_eq!(doc.str_field("s"), Ok("x"));
        assert_eq!(doc.bool_field("b"), Ok(true));
        assert_eq!(doc.opt_str_field("o"), Ok(None));
        assert_eq!(doc.opt_str_field("s"), Ok(Some("x")));
        assert_eq!(doc.str_array_field("a"), Ok(vec!["p".into(), "q".into()]));
        assert_eq!(
            doc.counters_field::<usize>("m"),
            Ok(BTreeMap::from([("k".to_string(), 2)]))
        );
        assert!(doc.opt_field("o").is_none() && doc.opt_field("gone").is_none());
        assert_eq!(doc.field_or_default("o", Json::u64_field), Ok(0));
        assert_eq!(doc.field_or_default("n", Json::u64_field), Ok(7));
        assert_eq!(doc.u64_field("gone"), Err("missing `gone`".to_string()));
        assert_eq!(
            doc.u64_field("f"),
            Err("`f` is not an unsigned integer".to_string())
        );
        assert_eq!(doc.str_field("n"), Err("`n` is not a string".to_string()));
    }

    #[test]
    fn streamed_objects_match_rendered_trees() {
        let tree = object([
            ("a", Json::from(1u64)),
            ("b", object([("c", Json::from("d"))])),
        ]);
        let streamed = render_object(|doc| {
            doc.field("a", &1u64.into()).object("b", |inner| {
                inner.field("c", &"d".into());
            });
        });
        assert_eq!(streamed, render(&tree));
        assert_eq!(streamed, r#"{"a":1,"b":{"c":"d"}}"#);
    }

    /// A multi-megabyte document parses in time linear in its size: the
    /// 4 MB string below takes about as long per byte as the 64 KB one (a
    /// 50x margin over the per-byte ratio is allowed for timer noise).
    #[test]
    fn large_documents_parse_in_linear_time() {
        let timed = |len: usize| {
            let doc = format!(
                "{{\"corpus\":\"{}\",\"n\":[{}]}}",
                "control c() { apply { } }\\n".repeat(len / 27),
                vec!["1"; len / 64].join(",")
            );
            let started = std::time::Instant::now();
            let parsed = parse(&doc).expect("parses");
            let elapsed = started.elapsed().as_secs_f64();
            assert!(parsed.str_field("corpus").unwrap().len() > len / 2);
            elapsed / doc.len() as f64
        };
        let small = timed(64 << 10).max(1e-9);
        let large = timed(4 << 20).min(timed(4 << 20));
        assert!(
            large < small * 50.0,
            "per-byte parse time grew {:.0}x from 64 KB to 4 MB",
            large / small
        );
    }
}
