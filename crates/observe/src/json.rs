//! The workspace's one JSON writer and one JSON reader, both on [`JsonValue`].
//!
//! Every JSON artifact (bench and lint reports, traces, metrics, flight
//! dumps, profiles) builds a `JsonValue` tree and prints it with `Display`:
//! `{}` is compact, `{:#}` pretty-prints with a 2-space indent. Escaping
//! (RFC 8259: quote, backslash, every control character), separators and
//! numbers are decided only here. Numbers print in shortest round-trip form
//! (integral values without a fraction); JSON has no NaN or infinity, so
//! non-finite numbers print as `null`.
//!
//! [`JsonValue::parse`] reads the full RFC 8259 grammar back with a bounded
//! nesting depth (notably for `orpheus-cli bench --compare`); numbers come
//! back as `f64`, exact for the integer ranges these artifacts use.

use std::fmt::{self, Write as _};

/// Writes `s` as a quoted JSON string.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Maximum array/object nesting [`JsonValue::parse`] accepts.
const MAX_DEPTH: usize = 64;

/// A JSON document: what emitters build, `Display` prints and
/// [`JsonValue::parse`] returns.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order preserved, lookup is linear.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error, with
    /// its byte offset.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number representable
    /// as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object from `(key, value)` members, in order.
    pub fn obj<'k>(members: impl IntoIterator<Item = (&'k str, JsonValue)>) -> JsonValue {
        let members = members.into_iter().map(|(k, v)| (k.to_string(), v));
        JsonValue::Obj(members.collect())
    }

    /// The one serializer: compact when `indent` is `None`, otherwise
    /// pretty-printed with `indent` levels of 2-space indentation open.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        let (open, close, entries): (char, char, Vec<(Option<&str>, &JsonValue)>) = match self {
            JsonValue::Null => return f.write_str("null"),
            JsonValue::Bool(b) => return write!(f, "{b}"),
            JsonValue::Num(n) if n.is_finite() => return write!(f, "{n}"),
            JsonValue::Num(_) => return f.write_str("null"),
            JsonValue::Str(s) => return write_escaped(f, s),
            JsonValue::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            JsonValue::Obj(members) => (
                '{',
                '}',
                members.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
        };
        let level = indent.unwrap_or(0);
        let newline = |f: &mut fmt::Formatter<'_>, level: usize| match indent {
            Some(_) if !entries.is_empty() => write!(f, "\n{:1$}", "", 2 * level),
            _ => Ok(()),
        };
        f.write_char(open)?;
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            newline(f, level + 1)?;
            if let Some(key) = key {
                write_escaped(f, key)?;
                f.write_str(if indent.is_some() { ": " } else { ":" })?;
            }
            value.write(f, indent.map(|level| level + 1))?;
        }
        newline(f, level)?;
        f.write_char(close)
    }
}

/// Compact JSON by default; the alternate form (`{:#}`) pretty-prints with
/// a 2-space indent.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

macro_rules! json_num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                JsonValue::Num(n as f64)
            }
        }
    )*};
}
json_num_from!(f64, i64, u64, usize);

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        JsonValue::Arr(iter.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number {text:?} at byte {start}"));
        }
        Ok(JsonValue::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates (only reachable via \u) map to the
                            // replacement character; the workspace's own
                            // artifacts never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses a `open ... close` container whose comma-separated elements
    /// `element` consumes one at a time.
    fn container(
        &mut self,
        open: u8,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or {close:?} at byte {}", self.pos));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        let mut items = Vec::new();
        self.container(b'[', b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(JsonValue::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        let mut members = Vec::new();
        self.container(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            members.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(JsonValue::Obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `s` through the writer's string escaping, without the quotes.
    fn escape(s: &str) -> String {
        let quoted = JsonValue::from(s).to_string();
        quoted[1..quoted.len() - 1].to_string()
    }

    #[test]
    fn passes_plain_text_through() {
        assert_eq!(escape("conv_3/weights"), "conv_3/weights");
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }

    #[test]
    fn escapes_named_control_characters() {
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("\u{08}\u{0c}"), "\\b\\f");
    }

    #[test]
    fn escapes_remaining_control_characters_as_unicode() {
        assert_eq!(escape("\u{01}\u{1f}"), "\\u0001\\u001f");
    }

    #[test]
    fn keeps_non_ascii_intact() {
        assert_eq!(escape("café λ…"), "café λ…");
    }

    #[test]
    fn numbers_print_shortest_and_non_finite_as_null() {
        let num = |n: f64| JsonValue::Num(n).to_string();
        assert_eq!(num(4.0), "4");
        assert_eq!(num(-12.0), "-12");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(0.1), "0.1");
        assert_eq!(num(1.0 / 3.0).parse::<f64>(), Ok(1.0 / 3.0));
        assert_eq!(num(9_007_199_254_740_992.0), "9007199254740992");
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num(n), "null");
        }
    }

    fn sample() -> JsonValue {
        JsonValue::obj([
            ("name", "a\"b".into()),
            ("n", 3u64.into()),
            ("none", None::<u64>.into()),
            ("flag", JsonValue::Bool(true)),
            (
                "list",
                [1.5, f64::NAN].into_iter().map(JsonValue::from).collect(),
            ),
            ("empty", JsonValue::obj([])),
            ("nested", JsonValue::obj([("xs", JsonValue::Arr(vec![]))])),
        ])
    }

    #[test]
    fn compact_form_has_no_whitespace() {
        assert_eq!(
            sample().to_string(),
            r#"{"name":"a\"b","n":3,"none":null,"flag":true,"list":[1.5,null],"empty":{},"nested":{"xs":[]}}"#
        );
    }

    #[test]
    fn pretty_form_indents_two_spaces() {
        let expected = r#"{
  "name": "a\"b",
  "n": 3,
  "none": null,
  "flag": true,
  "list": [
    1.5,
    null
  ],
  "empty": {},
  "nested": {
    "xs": []
  }
}"#;
        assert_eq!(format!("{:#}", sample()), expected);
    }

    #[test]
    fn both_forms_parse_back_to_the_same_tree() {
        let mut expected = sample();
        // NaN comes back as null; everything else round-trips exactly.
        if let JsonValue::Obj(members) = &mut expected {
            members[4].1 = JsonValue::Arr(vec![JsonValue::Num(1.5), JsonValue::Null]);
        }
        for text in [sample().to_string(), format!("{:#}", sample())] {
            assert_eq!(JsonValue::parse(&text), Ok(expected.clone()));
        }
    }
}
