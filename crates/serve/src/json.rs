//! A minimal JSON value, parser and writer.
//!
//! The workspace builds offline, so the wire layer is hand-rolled like the
//! store format. The subset implemented here is exactly what the serving
//! protocol needs: objects, arrays, strings (with `\uXXXX` escapes), numbers,
//! booleans and null. Numbers follow RFC 8259's grammar exactly.
//!
//! The parser is one linear pass over the input. A string's unescaped runs
//! are copied into the result with one `push_str` each, and only escapes are
//! decoded one at a time, so parse time grows with the document's size, not
//! with its square.
//!
//! Two deliberate choices keep query fingerprints and MI bit-patterns exact
//! across the wire:
//!
//! * numbers without a fraction or exponent that fit an `i64` parse as
//!   [`Json::Int`], so 64-bit sketch seeds round-trip losslessly;
//! * floats use Rust's shortest-round-trip `{}` formatting on the way out and
//!   standard `f64` parsing on the way in, which is an exact round trip.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional part that fits an `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are kept sorted (`BTreeMap`), which canonicalizes the
    /// serialized form — two requests with the same fields in a different
    /// order fingerprint identically.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key`, when this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an `i64` (integers only).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// This value as an `f64` (accepts integers too).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// This value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to a compact JSON string. Object keys come out
    /// in sorted order, so the encoding is canonical.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let mut s = format!("{f}");
                    // `{}` omits the decimal point for integral floats; add
                    // one so the value parses back as Float, not Int.
                    if !s.contains(['.', 'e', 'E']) {
                        s.push_str(".0");
                    }
                    out.push_str(&s);
                } else {
                    // JSON has no NaN/Inf; the protocol never emits them
                    // (MI estimates are finite by construction).
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(out, s),
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
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(input);
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters after document"));
        }
        Ok(value)
    }
}

/// Convenience: builds an object from key/value pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn write_json_string(out: &mut String, s: &str) {
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

/// A parse failure with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting limit: deep enough for any protocol message, shallow enough that
/// hostile input cannot overflow the stack (the parser recurses).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The document; every slice taken of it starts and ends at an ASCII
    /// byte, so always on a char boundary.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::at(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) if other.is_ascii_graphic() => Err(JsonError::at(
                self.pos,
                format!("unexpected character '{}'", other as char),
            )),
            Some(other) => Err(JsonError::at(
                self.pos,
                format!("unexpected byte 0x{other:02X}"),
            )),
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("expected '{text}'")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key, value).is_some() {
                return Err(JsonError::at(self.pos, "duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = match cp {
                                0xD800..=0xDBFF => {
                                    // Surrogate pair: require \uXXXX low half.
                                    if self.bytes[self.pos..].starts_with(b"\\u") {
                                        self.pos += 2;
                                        let low = self.hex4()?;
                                        if !(0xDC00..=0xDFFF).contains(&low) {
                                            return Err(JsonError::at(
                                                start,
                                                "invalid low surrogate",
                                            ));
                                        }
                                        let combined = 0x10000
                                            + ((u32::from(cp) - 0xD800) << 10)
                                            + (u32::from(low) - 0xDC00);
                                        char::from_u32(combined)
                                            .ok_or_else(|| JsonError::at(start, "invalid scalar"))?
                                    } else {
                                        return Err(JsonError::at(start, "lone high surrogate"));
                                    }
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(JsonError::at(start, "lone low surrogate"))
                                }
                                cp => char::from_u32(u32::from(cp))
                                    .ok_or_else(|| JsonError::at(start, "invalid scalar"))?,
                            };
                            out.push(c);
                            continue; // hex4 consumed trailing digits already
                        }
                        _ => return Err(JsonError::at(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(self.pos, "control character in string"))
                }
                Some(_) => {
                    // Copy the whole unescaped run at once. It ends at the
                    // next quote, backslash or control byte (or the end of
                    // input); all are ASCII, so the slice is a valid `str`.
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |len| start + len);
                    out.push_str(&self.src[start..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| JsonError::at(self.pos, "truncated \\u escape"))?;
        // Folded by hand: `from_str_radix` would also take a leading `+`.
        let mut value = 0u16;
        for &b in digits {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| JsonError::at(self.pos, "invalid \\u escape"))?;
            value = value << 4 | digit as u16;
        }
        self.pos = end;
        Ok(value)
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
        // The span holds only ASCII number bytes.
        let text = &self.src[start..self.pos];
        if !is_rfc8259_number(text.as_bytes()) {
            return Err(JsonError::at(start, format!("invalid number '{text}'")));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(JsonError::at(start, format!("invalid number '{text}'"))),
        }
    }
}

/// Whether `text` matches RFC 8259's `number`:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. Rust's `parse`
/// alone would also take `01`, `1.` and `1.e5`.
fn is_rfc8259_number(text: &[u8]) -> bool {
    fn digits(s: &[u8]) -> usize {
        s.iter().take_while(|b| b.is_ascii_digit()).count()
    }
    let s = text.strip_prefix(b"-").unwrap_or(text);
    let int = digits(s);
    if int == 0 || (int > 1 && s[0] == b'0') {
        return false;
    }
    let mut s = &s[int..];
    if let Some(frac) = s.strip_prefix(b".") {
        let n = digits(frac);
        if n == 0 {
            return false;
        }
        s = &frac[n..];
    }
    if let Some(exp) = s.strip_prefix(b"e").or_else(|| s.strip_prefix(b"E")) {
        let exp = exp
            .strip_prefix(b"+")
            .or_else(|| exp.strip_prefix(b"-"))
            .unwrap_or(exp);
        let n = digits(exp);
        if n == 0 {
            return false;
        }
        s = &exp[n..];
    }
    s.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("1.5", Json::Float(1.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value);
            assert_eq!(Json::parse(&value.encode()).unwrap(), value);
        }
    }

    #[test]
    fn i64_extremes_are_exact() {
        for i in [i64::MAX, i64::MIN, 1 << 62, u32::MAX as i64 + 1] {
            let encoded = Json::Int(i).encode();
            assert_eq!(Json::parse(&encoded).unwrap(), Json::Int(i));
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for f in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -2.5e-17, 3.0] {
            let encoded = Json::Float(f).encode();
            match Json::parse(&encoded).unwrap() {
                Json::Float(parsed) => assert_eq!(parsed.to_bits(), f.to_bits(), "{encoded}"),
                other => panic!("expected float from {encoded}, got {other:?}"),
            }
        }
    }

    #[test]
    fn nested_structures_round_trip_canonically() {
        let text = r#" { "b" : [1, 2.5, "x\n\u00e9"], "a": {"inner": null} } "#;
        let value = Json::parse(text).unwrap();
        let encoded = value.encode();
        // Canonical: keys sorted, no whitespace.
        assert_eq!(encoded, r#"{"a":{"inner":null},"b":[1,2.5,"x\né"]}"#);
        assert_eq!(Json::parse(&encoded).unwrap(), value);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"",
            "{\"a\":}",
            "01x",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "nul",
            "\"\\q\"",
            "\"\u{1}\"",
            "[1]]",
            "01",
            "-01",
            "00",
            "1.",
            "1.e5",
            "-",
            "1e",
            "1e+",
            "\"\\u+123\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (text, value) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("0.5", Json::Float(0.5)),
            ("1E+2", Json::Float(100.0)),
            ("2.5e-3", Json::Float(2.5e-3)),
        ] {
            assert_eq!(Json::parse(text), Ok(value), "{text}");
        }
        // A near miss is a typed error at the number's own offset.
        for (text, offset) in [
            ("[1, 01]", 4),
            ("{\"a\": -01}", 6),
            ("[1.e5]", 1),
            ("[2.]", 1),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.offset, offset, "{text}: {err}");
            assert!(err.message.starts_with("invalid number"), "{text}: {err}");
        }
    }

    #[test]
    fn a_non_ascii_lead_byte_is_reported_as_a_byte() {
        let err = Json::parse("\u{feff}{}").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (0, "unexpected byte 0xEF")
        );
        let err = Json::parse("[1, é]").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (4, "unexpected byte 0xC3")
        );
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.message, "unexpected character 'x'");
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse(r#""\ud83e\udd80""#).unwrap(),
            Json::Str("🦀".into())
        );
        assert!(Json::parse(r#""\ud83e""#).is_err());
        assert!(Json::parse(r#""\udd80""#).is_err());
    }

    /// splitmix64, so the generated documents are the same on every run.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    /// The string decoder as it was before unescaped runs were copied whole:
    /// one `char` at a time, re-validating the rest of the input for each.
    /// Kept as the oracle the linear decoder must agree with, error and
    /// offset included.
    fn string_one_char_at_a_time(p: &mut Parser<'_>) -> Result<String, JsonError> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = p.pos;
            match p.peek() {
                None => return Err(JsonError::at(p.pos, "unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            p.pos += 1;
                            let cp = p.hex4()?;
                            let c = match cp {
                                0xD800..=0xDBFF => {
                                    if p.bytes[p.pos..].starts_with(b"\\u") {
                                        p.pos += 2;
                                        let low = p.hex4()?;
                                        if !(0xDC00..=0xDFFF).contains(&low) {
                                            return Err(JsonError::at(
                                                start,
                                                "invalid low surrogate",
                                            ));
                                        }
                                        let combined = 0x10000
                                            + ((u32::from(cp) - 0xD800) << 10)
                                            + (u32::from(low) - 0xDC00);
                                        char::from_u32(combined)
                                            .ok_or_else(|| JsonError::at(start, "invalid scalar"))?
                                    } else {
                                        return Err(JsonError::at(start, "lone high surrogate"));
                                    }
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(JsonError::at(start, "lone low surrogate"))
                                }
                                cp => char::from_u32(u32::from(cp))
                                    .ok_or_else(|| JsonError::at(start, "invalid scalar"))?,
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(JsonError::at(p.pos, "invalid escape")),
                    }
                    p.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(p.pos, "control character in string"))
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&p.bytes[p.pos..]).expect("input was a str");
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    p.pos += c.len_utf8();
                }
            }
        }
    }

    /// Pieces of a string body: plain runs, every UTF-8 width, quotes,
    /// backslashes, control bytes, and well- and ill-formed escapes.
    const PIECES: [&str; 32] = [
        "plain",
        "a",
        "é",
        "€",
        "🦀",
        "\u{7f}",
        "\u{ffff}",
        "\u{10ffff}",
        "\"",
        "\\",
        "\u{0}",
        "\u{1}",
        "\n",
        "\u{1f}",
        "\\\"",
        "\\\\",
        "\\/",
        "\\b",
        "\\n",
        "\\t",
        "\\q",
        "\\u00e9",
        "\\u00E9",
        "\\u12",
        "\\u12g4",
        "\\u+123",
        "\\u€é",
        "\\ud83e\\udd80",
        "\\ud83e",
        "\\udd80",
        "\\ud83e\\u0041",
        " ",
    ];

    #[test]
    fn string_decoding_matches_the_one_char_at_a_time_oracle() {
        let mut rng = Rng(0x5EED);
        let cases = 20_000;
        let mut errors = 0;
        for _ in 0..cases {
            let mut doc = String::from("\"");
            for _ in 0..rng.below(12) {
                let piece = rng.pick(&PIECES);
                if piece == "plain" {
                    let len = rng.below(40);
                    doc.extend((0..len).map(|i| char::from(b'a' + (i % 26) as u8)));
                } else {
                    doc.push_str(piece);
                }
            }
            // A quarter of the documents are left unterminated.
            if rng.below(4) != 0 {
                doc.push('"');
            }
            let mut linear = Parser::new(&doc);
            let mut oracle = Parser::new(&doc);
            let got = linear.string();
            let want = string_one_char_at_a_time(&mut oracle);
            assert_eq!(got, want, "{doc:?}");
            errors += usize::from(want.is_err());
            match want {
                Ok(s) => {
                    assert_eq!(linear.pos, oracle.pos, "{doc:?}");
                    if oracle.pos == doc.len() {
                        assert_eq!(Json::parse(&doc), Ok(Json::Str(s)), "{doc:?}");
                    }
                }
                Err(e) => assert_eq!(Json::parse(&doc), Err(e), "{doc:?}"),
            }
        }
        // Both outcomes are exercised, not just one.
        assert!(
            errors > cases / 10 && errors < cases * 9 / 10,
            "{errors} errors"
        );
    }

    /// A document of at least `min_len` bytes: an array of objects whose
    /// strings mix long unescaped runs, 2-, 3- and 4-byte UTF-8, escapes at
    /// run boundaries and surrogate-pair escapes. Returns the text and the
    /// value it must parse to.
    fn large_document(min_len: usize) -> (String, Json) {
        const SEGMENTS: [(&str, &str); 13] = [
            ("é", "é"),
            ("ß", "ß"),
            ("€", "€"),
            ("中文", "中文"),
            ("🦀", "🦀"),
            ("\\n", "\n"),
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\u00e9", "é"),
            ("\\u0001", "\u{1}"),
            ("\\ud83e\\udd80", "🦀"),
            ("\\uD834\\uDD1E", "𝄞"),
        ];
        let mut rng = Rng(4);
        let mut text = String::from("[");
        let mut items = Vec::new();
        while text.len() < min_len {
            let (mut raw, mut decoded) = (String::new(), String::new());
            for _ in 0..1 + rng.below(16) {
                if rng.below(3) == 0 {
                    let len = 1 + rng.below(2_000);
                    let run: String = (0..len)
                        .map(|i| char::from(b' ' + 1 + ((i * 7 + len) % 90) as u8))
                        .filter(|&c| c != '"' && c != '\\')
                        .collect();
                    raw.push_str(&run);
                    decoded.push_str(&run);
                } else {
                    let (r, d) = rng.pick(&SEGMENTS);
                    raw.push_str(r);
                    decoded.push_str(d);
                }
            }
            if !items.is_empty() {
                text.push(',');
            }
            let n = items.len() as i64;
            text.push_str(&format!("{{\"text\": \"{raw}\", \"n\": {n}}}"));
            items.push(obj([("n", Json::Int(n)), ("text", Json::Str(decoded))]));
        }
        text.push(']');
        (text, Json::Arr(items))
    }

    /// Four megabytes through the parser and back, in well under a second.
    /// A decoder that re-validates the rest of the document per character,
    /// like the oracle above, is quadratic in document size: it does not
    /// finish this in 15 minutes in the debug test profile.
    #[test]
    fn a_four_megabyte_document_parses_and_round_trips() {
        let (text, value) = large_document(4 << 20);
        let started = std::time::Instant::now();
        assert_eq!(Json::parse(&text).unwrap(), value);
        let encoded = value.encode();
        assert_eq!(Json::parse(&encoded).unwrap(), value);
        eprintln!(
            "parsed {} + {} bytes in {:?}",
            text.len(),
            encoded.len(),
            started.elapsed()
        );
    }
}
