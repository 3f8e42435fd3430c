//! A minimal JSON value, parser, and writer.
//!
//! The build environment vendors no serde, so the wire format is handled
//! by hand: a small recursive-descent parser over the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null) and a
//! writer that escapes everything the parser understands. Object key
//! order is preserved, which keeps frames byte-stable for a fixed input —
//! useful for tests and digests.
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects: the parser
//! recurses once per level, and the same parser reads socket frames, the
//! cache file and warm-start state, so a deeply nested document must be
//! a typed error rather than a stack overflow.

use std::fmt;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. Every
/// document the server and CLI write nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub what: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on any syntax violation, and when arrays and
    /// objects nest deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                what: "trailing characters after document",
                at: pos,
            });
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
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
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as `u64` (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as `i64` (rejects fractions).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= i64::MIN as f64 && *x <= i64::MAX as f64 => {
                Some(*x as i64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    // JSON has no NaN/Inf; null is the least-bad encoding.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Convenience constructor for an object literal.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(
    bytes: &[u8],
    pos: &mut usize,
    token: &[u8],
    what: &'static str,
) -> Result<(), JsonError> {
    if bytes.len() >= *pos + token.len() && &bytes[*pos..*pos + token.len()] == token {
        *pos += token.len();
        Ok(())
    } else {
        Err(JsonError { what, at: *pos })
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(JsonError {
            what: "arrays and objects nest too deeply",
            at: *pos,
        });
    }
    match bytes.get(*pos) {
        None => Err(JsonError {
            what: "unexpected end of input",
            at: *pos,
        }),
        Some(b'n') => expect(bytes, pos, b"null", "expected null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, b"true", "expected true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, b"false", "expected false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(JsonError {
                    what: "expected `,` or `]` in array",
                    at: *pos,
                })
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError {
                what: "expected string key in object",
                at: *pos,
            });
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError {
                what: "expected `:` after object key",
                at: *pos,
            });
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => {
                return Err(JsonError {
                    what: "expected `,` or `}` in object",
                    at: *pos,
                })
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    let start = *pos;
    *pos += 1; // consume opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    what: "unterminated string",
                    at: start,
                })
            }
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(JsonError {
                            what: "truncated \\u escape",
                            at: *pos,
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
                            what: "bad \\u escape",
                            at: *pos,
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            what: "bad \\u escape",
                            at: *pos,
                        })?;
                        // Surrogates would need pairing; the writer never
                        // emits them, so reject rather than mis-decode.
                        let c = char::from_u32(code).ok_or(JsonError {
                            what: "unpaired surrogate in \\u escape",
                            at: *pos,
                        })?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonError {
                            what: "unknown escape",
                            at: *pos,
                        })
                    }
                }
                *pos += 1;
            }
            Some(&b) => {
                // Consume one UTF-8 scalar (the input came from a &str,
                // so sequences are well-formed; the length comes straight
                // from the leading byte).
                let step = match b {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(*pos..*pos + step)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or(JsonError {
                        what: "invalid utf-8 in string",
                        at: *pos,
                    })?;
                out.push_str(chunk);
                *pos += step;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if start == *pos {
        return Err(JsonError {
            what: "expected a value",
            at: start,
        });
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(JsonError {
            what: "malformed number",
            at: start,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, RngExt, SeedableRng};

    #[test]
    fn round_trips_every_variant() {
        let doc = obj(vec![
            ("s", Json::Str("a \"quoted\"\nline\t\\x \u{1F600}".into())),
            ("n", Json::Num(-12.5)),
            ("i", Json::Num(42.0)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            (
                "a",
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Str("x".into()),
                    Json::Bool(false),
                ]),
            ),
            ("o", obj(vec![("k", Json::Num(7.0))])),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\n\" , null ] } ").unwrap();
        let arr = v.get("k").unwrap();
        assert_eq!(
            arr,
            &Json::Arr(vec![Json::Num(1.0), Json::Str("A\n".into()), Json::Null])
        );
    }

    #[test]
    fn typed_accessors_are_strict() {
        let v = Json::parse("{\"x\": 3, \"y\": -1, \"f\": 1.5, \"s\": \"t\"}").unwrap();
        assert_eq!(v.get("x").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("y").unwrap().as_u64(), None);
        assert_eq!(v.get("y").unwrap().as_i64(), Some(-1));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("t"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"k\" 1}",
            "{\"k\":1} trailing",
            "nul",
            "1.2.3",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must fail");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        // 100 000 `[` would overflow a thread stack without the cap.
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        let objects = "{\"k\":".repeat(100_000);
        assert_eq!(Json::parse(&objects).unwrap_err().at, 5 * MAX_DEPTH);

        // Exactly MAX_DEPTH levels still parse; one more does not.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn non_finite_numbers_degrade_to_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    /// Characters that exercise every branch of the string writer and
    /// reader: quotes, backslashes, named and `\u` escapes, multi-byte
    /// UTF-8 and plain ASCII.
    const PALETTE: [char; 12] = [
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\u{1}',
        '\u{7f}',
        '\u{e9}',
        '\u{1F600}',
    ];

    fn gen_string(rng: &mut StdRng) -> String {
        let len = rng.random_range(0..8usize);
        (0..len)
            .map(|_| {
                if rng.random_bool(0.8) {
                    PALETTE[rng.random_range(0..PALETTE.len())]
                } else {
                    // Any scalar value, surrogates excluded by `from_u32`.
                    char::from_u32(rng.random_range(0..0x11_0000u32)).unwrap_or('?')
                }
            })
            .collect()
    }

    fn gen_number(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..3u32) {
            0 => rng.random_range(-1_000_000i64..1_000_000) as f64,
            1 => rng.random_range(-1.0e6..1.0e6f64),
            _ => {
                // Arbitrary bit patterns: subnormals, huge exponents, -0.
                let x = f64::from_bits(rng.next_u64());
                if x.is_finite() {
                    x
                } else {
                    0.5
                }
            }
        }
    }

    /// A random document: scalars at `depth == 0`, containers above.
    fn gen_doc(rng: &mut StdRng, depth: usize) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.random_range(0..kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.random_bool(0.5)),
            2 => Json::Num(gen_number(rng)),
            3 => Json::Str(gen_string(rng)),
            4 => Json::Arr(
                (0..rng.random_range(0..4usize))
                    .map(|_| gen_doc(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.random_range(0..4usize))
                    .map(|_| (gen_string(rng), gen_doc(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Parsing never panics: it yields a value or an error that points
    /// inside the input.
    fn parse_is_total(text: &str) -> Result<(), TestCaseError> {
        if let Err(e) = Json::parse(text) {
            prop_assert!(
                e.at <= text.len(),
                "{e} is past the {}-byte input",
                text.len()
            );
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn generated_documents_round_trip(seed in 0u64..u64::MAX, depth in 0usize..5) {
            let doc = gen_doc(&mut StdRng::seed_from_u64(seed), depth);
            let text = doc.to_string();
            let back = Json::parse(&text);
            prop_assert_eq!(back.as_ref(), Ok(&doc), "text: {}", text);
            prop_assert_eq!(back.map(|b| b.to_string()), Ok(text));
        }

        #[test]
        fn truncated_documents_parse_or_fail_typed(seed in 0u64..u64::MAX, depth in 1usize..5) {
            let text = gen_doc(&mut StdRng::seed_from_u64(seed), depth).to_string();
            for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                parse_is_total(&text[..end])?;
            }
        }

        #[test]
        fn mutated_documents_parse_or_fail_typed(
            seed in 0u64..u64::MAX,
            depth in 1usize..5,
            edits in 1usize..6,
        ) {
            const STRUCTURAL: &[u8] = b"[]{}\",:\\u0123456789eE+-. \ttrnulf";
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bytes = gen_doc(&mut rng, depth).to_string().into_bytes();
            for _ in 0..edits {
                let at = rng.random_range(0..=bytes.len());
                let byte = if rng.random_bool(0.7) {
                    STRUCTURAL[rng.random_range(0..STRUCTURAL.len())]
                } else {
                    rng.random_range(0..=255u8)
                };
                match rng.random_range(0..3u32) {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            parse_is_total(&String::from_utf8_lossy(&bytes))?;
        }
    }
}
