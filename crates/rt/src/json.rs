//! A small JSON serializer.
//!
//! Replaces `serde`/`serde_json` for the compiler's report output. Values
//! are built as an explicit tree ([`Json`]); objects keep their keys in
//! insertion order, so the same tree always prints the same bytes — the
//! pipeline's byte-identical-report guarantee depends on that.
//!
//! Strings are escaped per RFC 8259 (quotes, backslashes, and all control
//! characters, the latter as `\u00XX`). Floats print in Rust's shortest
//! round-trip form with a `.0` appended when integral, matching how the
//! previous serde-based output looked; non-finite floats become `null`,
//! as `serde_json` does.
//!
//! [`Json::parse`] is the inverse: a strict RFC 8259 recursive-descent
//! parser, used by tooling that reads documents this module wrote (e.g.
//! the bench regression check comparing `BENCH_stages.json` against a
//! committed baseline).

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (covers every counter in the reports).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A double. Non-finite values serialize as `null`.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::push`].
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends a key/value pair to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("push on non-object Json: {other:?}"),
        }
        self
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes pretty-printed with two-space indentation, the layout
    /// `serde_json::to_string_pretty` produced before.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Writes `x` so that parsing the output recovers `x` exactly: Rust's
/// `Debug` float formatting is shortest-round-trip, keeps a `.0` on
/// integral values, and switches to exponent notation at extreme
/// magnitudes. Non-finite values become `null`.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let _ = write!(out, "{x:?}");
}

/// Writes `s` quoted and escaped per RFC 8259.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Arrays and objects [`Json::parse`] accepts inside each other: far
/// above any document the workspace writes (reports, library records and
/// traces nest fewer than 10 levels), far below what would overflow a
/// thread's stack, since the parser recurses once per level.
const MAX_DEPTH: usize = 128;

/// Where and why [`Json::parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parses an RFC 8259 JSON document.
    ///
    /// Strict: no trailing garbage, no comments, no trailing commas, and
    /// no more than 128 arrays and objects nested inside each other.
    /// Numbers without a fraction or exponent become [`Json::UInt`] /
    /// [`Json::Int`] when they fit, [`Json::Num`] otherwise, so documents
    /// written by this module round-trip through `parse` unchanged.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The key/value pairs of an object, in document order.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Numeric value as `f64` (any of `UInt` / `Int` / `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.into() }
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses a container one level deeper, within [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonParseError>,
    ) -> Result<Json, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.error(format!("bad escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("raw control character in string"));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("input was valid UTF-8"));
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self.peek().and_then(|b| (b as char).to_digit(16));
            match d {
                Some(d) => {
                    v = v * 16 + d;
                    self.pos += 1;
                }
                None => return Err(self.error("expected four hex digits after \\u")),
            }
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.error("bad surrogate pair"));
                }
            }
            return Err(self.error("lone high surrogate in \\u escape"));
        }
        char::from_u32(hi).ok_or_else(|| self.error("lone low surrogate in \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected digit")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("bad number '{text}'")))
    }
}

/// Length in bytes of the UTF-8 sequence starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
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
    fn scalars_print_as_expected() {
        assert_eq!(Json::Null.to_string_compact(), "null");
        assert_eq!(Json::Bool(true).to_string_compact(), "true");
        assert_eq!(Json::UInt(42).to_string_compact(), "42");
        assert_eq!(Json::Int(-7).to_string_compact(), "-7");
        assert_eq!(Json::Str("hi".into()).to_string_compact(), "\"hi\"");
    }

    #[test]
    fn floats_round_trip_and_keep_a_decimal_point() {
        assert_eq!(Json::Num(1.0).to_string_compact(), "1.0");
        assert_eq!(Json::Num(-0.5).to_string_compact(), "-0.5");
        assert_eq!(Json::Num(0.1).to_string_compact(), "0.1");
        assert_eq!(Json::Num(1e300).to_string_compact(), "1e300");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
        // Shortest form parses back to the exact same bits.
        for x in [0.1, 1.0 / 3.0, 2.0_f64.sqrt(), 1234.5678e-12, -1.7e18] {
            let printed = Json::Num(x).to_string_compact();
            let reparsed: f64 = printed.parse().unwrap();
            assert_eq!(reparsed.to_bits(), x.to_bits(), "{printed}");
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let s = "a\"b\\c\nd\te\u{01}f";
        assert_eq!(
            Json::Str(s.into()).to_string_compact(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001f\""
        );
    }

    #[test]
    fn unicode_passes_through_unescaped() {
        assert_eq!(Json::Str("π≈3".into()).to_string_compact(), "\"π≈3\"");
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        assert_eq!(Json::Arr(vec![]).to_string_pretty(), "[]");
        assert_eq!(Json::obj().to_string_pretty(), "{}");
    }

    #[test]
    fn pretty_layout_matches_expected_bytes() {
        let doc = Json::obj()
            .push("flow", "epoc")
            .push("n_qubits", 3usize)
            .push("fidelity", 0.5f64)
            .push("tags", Json::Arr(vec![Json::UInt(1), Json::UInt(2)]));
        let expected = "{\n  \"flow\": \"epoc\",\n  \"n_qubits\": 3,\n  \"fidelity\": 0.5,\n  \"tags\": [\n    1,\n    2\n  ]\n}";
        assert_eq!(doc.to_string_pretty(), expected);
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let doc = Json::obj().push("z", 1usize).push("a", 2usize).push("m", 3usize);
        assert_eq!(doc.to_string_compact(), "{\"z\":1,\"a\":2,\"m\":3}");
    }

    #[test]
    fn parse_round_trips_serializer_output() {
        let doc = Json::obj()
            .push("flow", "epoc")
            .push("none", Json::Null)
            .push("ok", true)
            .push("n", 42usize)
            .push("i", Json::Int(-7))
            .push("x", 0.125f64)
            .push("text", "a\"b\\c\nπ")
            .push("arr", Json::Arr(vec![Json::UInt(1), Json::Num(2.5), Json::Bool(false)]))
            .push("nested", Json::obj().push("k", 9usize));
        for printed in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(Json::parse(&printed).unwrap(), doc, "{printed}");
        }
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("0").unwrap(), Json::UInt(0));
        assert_eq!(Json::parse("1.5e3").unwrap(), Json::Num(1500.0));
        assert_eq!(Json::parse("-0.25").unwrap(), Json::Num(-0.25));
        // u64::MAX + 1 no longer fits an integer type.
        assert_eq!(Json::parse("18446744073709551616").unwrap(), Json::Num(1.8446744073709552e19));
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"").unwrap(),
            Json::Str("a\"b\\c\n\tAé".into())
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "", "tru", "{", "[1,", "[1,]", "{\"a\":}", "{\"a\" 1}", "01", "1.", "1e",
            "\"unterminated", "\"\\q\"", "\"\\ud800\"", "[1] junk", "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    /// Nesting is bounded, so a deep document is a parse error rather
    /// than a stack overflow, which would abort the process.
    #[test]
    fn parse_rejects_documents_nested_too_deep() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        for n in [MAX_DEPTH + 1, 100_000] {
            let err = Json::parse(&nest(n)).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH, "depth {n}");
            assert!(err.message.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc = Json::parse("{\"benches\":{\"matmul\":{\"median_ns\":1500,\"name\":\"m\"}}}").unwrap();
        let entry = doc.get("benches").and_then(|b| b.get("matmul")).unwrap();
        assert_eq!(entry.get("median_ns").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(entry.get("name").and_then(Json::as_str), Some("m"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("benches").unwrap().entries().unwrap().len(), 1);
        assert!(Json::UInt(3).entries().is_none());
    }

    #[test]
    fn nested_object_compact() {
        let doc = Json::obj().push(
            "stages",
            Json::obj().push("zx_depth_before", 9usize).push("pulses", 4usize),
        );
        assert_eq!(
            doc.to_string_compact(),
            "{\"stages\":{\"zx_depth_before\":9,\"pulses\":4}}"
        );
    }
}
