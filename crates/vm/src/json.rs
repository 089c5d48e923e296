//! The workspace's one JSON codec: a value type, a recursive-descent
//! parser and one writer with two layouts (DESIGN.md §16).
//!
//! Every `--json` report (sweep, lint, costfn, opstats, events) and the
//! serve wire protocol build a [`Json`] value and let this module write
//! it, so strings are escaped and numbers formatted in one place. Objects
//! keep insertion order, so a value always writes the same bytes.
//!
//! * **Compact** ([`Json::to_compact`]): no whitespace — the wire form.
//! * **Report** ([`report`]): one top-level member per line, one row
//!   per line for the members the caller names as row arrays, everything
//!   else on one line with `", "` and `": "` — the form [`Json::to_line`]
//!   writes.
//!
//! Integers ([`Json::Int`]) print exactly; no `i64` or `u64` passes
//! through `f64`. Floats print with Rust's shortest round-trip
//! `Display`, and NaN and ±infinity print as `null`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An integer, written exactly (wide enough for every `i64` and
    /// `u64`). The parser yields this for integer literals.
    Int(i128),
    /// A float; non-finite values are written as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered members (serialization is deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a u64 (rejects negatives, fractions and
    /// out-of-range integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as an i64 (rejects fractions and
    /// out-of-range integers).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            Json::Num(n) if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes without any whitespace (the serve wire form).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, false);
        out
    }

    /// Serializes on one line with `", "` and `": "` separators (one
    /// JSON-lines record, no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out
    }

    /// The one recursive writer; `spaced` selects `", "`/`": "` over
    /// `","`/`":"`.
    fn write(&self, out: &mut String, spaced: bool) {
        let (comma, colon) = if spaced { (", ", ": ") } else { (",", ":") };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    item.write(out, spaced);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_escaped(k, out);
                    out.push_str(colon);
                    v.write(out, spaced);
                }
                out.push('}');
            }
        }
    }
}

/// Conversions for building values: `"x".into()`, `3u64.into()`, ...
macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        })*
    };
}

json_from!(
    bool => |b| Json::Bool(b),
    f64 => |n| Json::Num(n),
    &str => |s| Json::Str(s.to_owned()),
    String => |s| Json::Str(s),
    i64 => |i| Json::Int(i.into()),
    u64 => |i| Json::Int(i.into()),
    u32 => |i| Json::Int(i.into()),
    usize => |i| Json::Int(i as i128),
);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// A `Vec` is an array.
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Writes the members of a top-level object in the report layout (see
/// the module docs), ending with a newline. The arrays named in
/// `row_members` hold row objects and get one row per line (`[\n  ]`
/// when empty).
pub fn report(members: Vec<(&str, Json)>, row_members: &[&str]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        write_escaped(key, &mut out);
        out.push_str(": ");
        match value {
            Json::Arr(rows) if row_members.contains(key) => {
                out.push('[');
                for (j, row) in rows.iter().enumerate() {
                    out.push_str(if j == 0 { "\n    " } else { ",\n    " });
                    row.write(&mut out, true);
                }
                out.push_str("\n  ]");
            }
            other => other.write(&mut out, true),
        }
    }
    out.push_str("\n}\n");
    out
}

/// Writes `s` as a JSON string literal: quotes, backslashes and control
/// characters are escaped, everything else is copied.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, and serve feeds it request bodies from the network:
/// without a cap, 100 000 nested `[` overflow a default-sized thread
/// stack, which aborts the whole process.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
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

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by this
                            // protocol; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let members = vec![
            ("kind", "sweep".into()),
            ("sizes", Json::Arr(vec![4u64.into(), 8u64.into()])),
            ("ratio", 2.5.into()),
            ("quiet", true.into()),
            ("note", "line1\nline2 \"quoted\" C:\\dir\t\u{1}".into()),
            ("nothing", Json::Null),
        ];
        let doc = Json::obj(members.clone());
        for text in [doc.to_compact(), doc.to_line(), report(members, &["sizes"])] {
            let back = parse(&text).expect("parses");
            assert_eq!(back, doc);
            // Deterministic: serializing again yields the same bytes.
            assert_eq!(back.to_compact(), doc.to_compact());
        }
    }

    #[test]
    fn escapes_exact_bytes() {
        let text = |s: &str| Json::from(s).to_compact();
        assert_eq!(text("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(text("\r\t\u{1}\u{1f}é"), r#""\r\t\u0001\u001fé""#);
        // Keys go through the same escaper.
        let key = Json::obj(vec![("k\\", Json::Null)]);
        assert_eq!(key.to_compact(), r#"{"k\\":null}"#);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , -2.5 , \"x\\u0041\\n\" ] } ").expect("parses");
        let arr = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("xA\n"));
    }

    #[test]
    fn integers_print_and_parse_exactly() {
        for (value, text) in [
            (Json::from(i64::MIN), "-9223372036854775808"),
            (Json::from(i64::MAX), "9223372036854775807"),
            (Json::from(u64::MAX), "18446744073709551615"),
        ] {
            assert_eq!(
                (value.to_compact(), value.to_line()),
                (text.into(), text.into())
            );
            assert_eq!(parse(text), Ok(value));
        }
        let parsed = |text: &str| parse(text).expect("parses");
        assert_eq!(parsed("-9223372036854775808").as_i64(), Some(i64::MIN));
        assert_eq!(parsed("18446744073709551615").as_u64(), Some(u64::MAX));
        // Out of range for the accessor, not silently rounded.
        assert_eq!(parsed("18446744073709551616").as_u64(), None);
        assert_eq!(parsed("-1").as_u64(), None);
    }

    #[test]
    fn floats_print_shortest_round_trip_and_non_finite_as_null() {
        for (n, text) in [
            (1.0, "1"),
            (-7.0, "-7"),
            (0.5, "0.5"),
            (1.5000000000000002, "1.5000000000000002"),
            (-7.105427357601002e-15, "-0.000000000000007105427357601002"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(Json::Num(n).to_compact(), text);
            assert_eq!(
                Json::Arr(vec![n.into(), 1u64.into()]).to_line(),
                format!("[{text}, 1]")
            );
        }
    }

    #[test]
    fn compact_line_and_report_layouts() {
        let row = |i: u64| Json::obj(vec![("i", i.into()), ("o", Json::obj(vec![]))]);
        let members = vec![
            ("sizes", Json::Arr(vec![4u64.into(), 8u64.into()])),
            ("empty", Json::Arr(vec![])),
            ("rows", Json::Arr(vec![row(1), row(2)])),
            ("none", Json::Arr(vec![])),
        ];
        let doc = Json::obj(members.clone());
        assert_eq!(
            doc.to_compact(),
            r#"{"sizes":[4,8],"empty":[],"rows":[{"i":1,"o":{}},{"i":2,"o":{}}],"none":[]}"#
        );
        assert_eq!(
            doc.to_line(),
            r#"{"sizes": [4, 8], "empty": [], "rows": [{"i": 1, "o": {}}, {"i": 2, "o": {}}], "none": []}"#
        );
        assert_eq!(
            report(members, &["rows", "none"]),
            "{\n  \"sizes\": [4, 8],\n  \"empty\": [],\n  \"rows\": [\n    {\"i\": 1, \"o\": {}},\n    \
             {\"i\": 2, \"o\": {}}\n  ],\n  \"none\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\"}", "nul", "\"open", "1 2", "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rejects_nesting_beyond_the_cap_without_recursing_further() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
        // Deep enough to overflow a thread stack if the parser recursed.
        assert!(parse(&"[{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_i64(), Some(-1));
        assert_eq!(Json::Num(4.0).as_u64(), Some(4));
        assert_eq!(Json::Str("x".into()).as_f64(), None);
        assert_eq!(Json::Null.get("k"), None);
    }
}
