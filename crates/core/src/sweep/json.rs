//! A minimal JSON document model with a writer and a strict parser.
//!
//! The vendored `serde` stand-in is compile-only (no runtime serialization),
//! so the sweep engine's cache files and result artifacts are produced and
//! consumed through this module instead. It covers exactly the JSON subset
//! the engine emits: objects, arrays, strings, f64 numbers, booleans and
//! null. Cache round-trips additionally need *bit-exact* floats, which JSON
//! decimal notation cannot guarantee, so values that must survive exactly are
//! stored as hex-encoded IEEE-754 bit patterns (see `Json::f64_bits`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest nesting [`Json::parse`] accepts. The writers nest at most 5
/// levels (artifact → cells → cell → values → metric, or → certificate →
/// flow); the limit only keeps hostile input from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Ordered map so output is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Encodes an f64 as its hex bit pattern (bit-exact round trip).
    pub(crate) fn f64_bits(x: f64) -> Json {
        Json::Str(format!("{:016x}", x.to_bits()))
    }

    /// Decodes a value produced by [`Json::f64_bits`]. Only the canonical
    /// encoder form is accepted — exactly 16 lowercase hex digits; anything
    /// else (a plain JSON number, wrong length, uppercase, a `+` sign
    /// `from_str_radix` would tolerate) is `None`, so a lossy decimal can
    /// never masquerade as a bit-exact value.
    pub(crate) fn as_f64_bits(&self) -> Option<f64> {
        match self {
            Json::Str(s)
                if s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) =>
            {
                u64::from_str_radix(s, 16).ok().map(f64::from_bits)
            }
            _ => None,
        }
    }

    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if a number.
    pub(crate) fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Array payload, if an array.
    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean payload, if a bool.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float formatting.
                    let _ = write!(out, "{x:?}");
                } else {
                    // JSON has no Inf/NaN; encode as null (exact values
                    // travel through f64_bits when they must survive).
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
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
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must consume the full input, nested at most
    /// `MAX_DEPTH` levels).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Compact JSON serialization (`doc.to_string()` via `Display`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
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
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos]).map_err(|e| e.to_string())?,
                );
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos]).map_err(|e| e.to_string())?,
                );
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Json::obj(vec![
            ("name", Json::str("fig02")),
            ("count", Json::Num(3.0)),
            ("ok", Json::Bool(true)),
            (
                "rows",
                Json::Arr(vec![Json::str("a\"b\\c\nd"), Json::Num(-1.25e-3)]),
            ),
            ("nothing", Json::Null),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn f64_bits_is_bit_exact() {
        for x in [0.1, f64::MIN_POSITIVE, -0.0, 1.0 / 3.0, f64::NAN] {
            let enc = Json::f64_bits(x);
            let text = enc.to_string();
            let dec = Json::parse(&text).unwrap().as_f64_bits().unwrap();
            assert_eq!(x.to_bits(), dec.to_bits());
        }
    }

    /// Deterministic splitmix64 stream for the property sweeps below.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every bit pattern a certificate can store — quiet/signaling/negative
    /// NaNs, signed zeros, subnormals, infinities, extremes, plus a few
    /// thousand arbitrary patterns — survives a full document write→parse
    /// round trip bit-exactly.
    #[test]
    fn f64_bits_roundtrip_over_special_and_random_patterns() {
        let mut patterns: Vec<u64> = vec![
            0x7ff8_0000_0000_0000, // quiet NaN
            0x7ff0_0000_0000_0001, // signaling NaN
            0xfff8_0000_0000_0001, // negative NaN with payload
            0x8000_0000_0000_0000, // -0.0
            0x0000_0000_0000_0000, // +0.0
            0x0000_0000_0000_0001, // smallest subnormal
            0x000f_ffff_ffff_ffff, // largest subnormal
            f64::MIN_POSITIVE.to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::MAX.to_bits(),
            (1.0f64 / 3.0).to_bits(),
        ];
        let mut state = 0xdead_beef_u64;
        patterns.extend((0..4096).map(|_| splitmix64(&mut state)));

        for bits in patterns {
            let x = f64::from_bits(bits);
            // Through the whole document pipeline, not just the scalar: the
            // value rides inside an array inside an object, like a stored
            // certificate block does.
            let doc = Json::obj(vec![("flow", Json::Arr(vec![Json::f64_bits(x)]))]);
            let back = Json::parse(&doc.to_string()).unwrap();
            let dec = back.get("flow").unwrap().as_arr().unwrap()[0]
                .as_f64_bits()
                .unwrap();
            assert_eq!(bits, dec.to_bits(), "pattern {bits:016x} did not survive");
        }
    }

    /// Mutating any single hex digit of an encoded value decodes to
    /// different bits — the encoding is a bijection, so no mutation can
    /// alias back to the original value.
    #[test]
    fn f64_bits_mutation_always_changes_the_decoded_value() {
        let mut state = 42u64;
        for _ in 0..64 {
            let bits = splitmix64(&mut state);
            let enc = format!("{bits:016x}");
            for i in 0..16 {
                let orig = enc.as_bytes()[i];
                let replacement = if orig == b'0' { b'1' } else { b'0' };
                let mut mutated = enc.clone().into_bytes();
                mutated[i] = replacement;
                let dec = Json::Str(String::from_utf8(mutated).unwrap())
                    .as_f64_bits()
                    .unwrap();
                assert_ne!(
                    bits,
                    dec.to_bits(),
                    "mutating digit {i} of {enc} aliased back"
                );
            }
        }
    }

    /// `as_f64_bits` accepts exactly the canonical encoder output: a plain
    /// JSON number (a lossy decimal form), wrong lengths, uppercase, signs
    /// and stray characters are all rejected rather than quietly decoded.
    #[test]
    fn as_f64_bits_rejects_non_canonical_forms() {
        assert!(Json::Num(1.0).as_f64_bits().is_none());
        assert!(Json::Num(f64::from_bits(0x3ff0000000000000))
            .as_f64_bits()
            .is_none());
        assert!(Json::Null.as_f64_bits().is_none());
        assert!(Json::str("3ff000000000000").as_f64_bits().is_none()); // 15 chars
        assert!(Json::str("3ff00000000000000").as_f64_bits().is_none()); // 17 chars
        assert!(Json::str("").as_f64_bits().is_none());
        assert!(Json::str("3FF0000000000000").as_f64_bits().is_none()); // uppercase
        assert!(Json::str("+ff0000000000000").as_f64_bits().is_none()); // sign
        assert!(Json::str("-ff0000000000000").as_f64_bits().is_none());
        assert!(Json::str("3ff000000000000g").as_f64_bits().is_none()); // non-hex
        assert!(Json::str(" 3ff000000000000").as_f64_bits().is_none()); // whitespace
                                                                        // The canonical form itself still decodes.
        assert_eq!(Json::str("3ff0000000000000").as_f64_bits().unwrap(), 1.0f64);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    /// Nesting is accepted up to the limit and rejected one level past it,
    /// with the offending byte named (a deeper document used to overflow the
    /// stack and abort the process).
    #[test]
    fn nesting_is_limited() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than 64 at byte {MAX_DEPTH}"));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        assert!(Json::parse(&"[".repeat(300_000)).is_err());
    }

    #[test]
    fn parses_nested_with_whitespace() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}
