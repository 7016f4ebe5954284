//! A small, self-contained JSON value — the suite's canonical document
//! representation.
//!
//! The suite's wire and on-disk documents (the store's stored rows,
//! the key-ingredient documents its cache keys hash, the
//! `ats-report/1` analyzer wire schema, every `ats-serve` response body)
//! must render *canonically*: the same content always produces the same
//! bytes, on every platform, forever — a cache key is only as stable as
//! its serializer, and a frozen wire schema is only as stable as its
//! formatter. Rather than pin that guarantee on an external crate's
//! formatting choices, the suite owns a deliberately tiny JSON model:
//!
//! * objects are [`BTreeMap`]s, so members always render in sorted key
//!   order regardless of insertion order;
//! * integers ([`Json::Int`], an `i128` covering all of `i64` and `u64`)
//!   render exactly, never through floating point;
//! * floats render via Rust's shortest-round-trip `Display`, so
//!   `parse(render(x)) == x` for every finite `f64`;
//! * rendering is compact (no whitespace) for hashing, with a pretty
//!   variant for the human-inspected run manifests.
//!
//! The parser accepts standard JSON (objects, arrays, strings with
//! escapes and surrogate pairs, numbers, booleans, null) and is the read
//! path for stored rows, corpus specs and service requests. It is the
//! suite's only JSON serializer: run manifests, bench documents and
//! reports all render through it. (It lives in `ats-runtime`, the bottom
//! of the crate graph, so `ats-obs` can build manifests with it;
//! `ats_core::json` and `ats_store::Json` are re-exports.)

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node. Construct with [`Json::obj`]/[`Json::arr`] and
/// the `From` impls; render with [`Json::render`]; read back with
/// [`Json::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, exact over the full `i64` ∪ `u64` range.
    Int(i128),
    /// A floating-point number (finite; NaN/∞ are unrepresentable in
    /// JSON and render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps members canonically sorted.
    Obj(BTreeMap<String, Json>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i128)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// An empty array.
    pub fn arr() -> Json {
        Json::Arr(Vec::new())
    }

    /// Builder-style member insertion; panics if `self` is not an object
    /// (a construction bug, not a data condition).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Insert or replace a member; panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_owned(), value.into());
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// Append an element; panics if `self` is not an array.
    pub fn push(&mut self, value: impl Into<Json>) {
        match self {
            Json::Arr(items) => items.push(value.into()),
            other => panic!("Json::push on non-array {other:?}"),
        }
    }

    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload as `u64`, if this is a non-negative integer in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Numeric payload as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Mutable element access, if this is an array.
    pub fn as_arr_mut(&mut self) -> Option<&mut Vec<Json>> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Mutable member access, if this is an object.
    pub fn as_obj_mut(&mut self) -> Option<&mut BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Canonical compact rendering: sorted object keys, no whitespace,
    /// exact integers, shortest-round-trip floats. This is the byte
    /// stream cache keys are hashed over.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`Json::render`], appended to `out`.
    pub fn render_into(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Human-oriented rendering (two-space indent), same canonical member
    /// order. Used for on-disk manifests.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => write_int(out, *i),
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items, |out, item| {
                item.write(out, indent, depth + 1);
            }),
            Json::Obj(map) => write_seq(out, indent, depth, '{', '}', map, |out, (key, value)| {
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                value.write(out, indent, depth + 1);
            }),
        }
    }

    /// Parse standard JSON text. Errors carry a byte offset and reason.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

/// Integers print through the 64-bit formatters when they fit, which
/// are faster than `i128`'s and print the same digits.
fn write_int(out: &mut String, i: i128) {
    let _ = if let Ok(u) = u64::try_from(i) {
        write!(out, "{u}")
    } else if let Ok(s) = i64::try_from(i) {
        write!(out, "{s}")
    } else {
        write!(out, "{i}")
    };
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's Display is the shortest string that round-trips; force a
    // decimal point so the value stays number-typed when re-read by
    // strict tooling expecting a float.
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// `s` as a string literal: each run of characters that need no escape
/// is copied whole.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let unicode;
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => {
                unicode = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ];
                std::str::from_utf8(&unicode).expect("ASCII")
            }
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` and `i + 1` are character
        // boundaries.
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push(open);
    let mut empty = true;
    for value in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, value);
    }
    if let (Some(width), false) = (indent, empty) {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a 100 KB run of `[` in a
/// request body overflows a serve worker's stack; the suite's own
/// documents nest at most 5 levels.
const MAX_DEPTH: usize = 128;

/// Parse one value that `depth` arrays and objects enclose.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
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
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
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
                expect(bytes, pos, ":")?;
                map.insert(key, parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Parse the string literal at `pos`. Each run of plain characters, up to
/// the next quote, backslash or control byte, is scanned and validated
/// once and appended whole, so a string costs time linear in its length.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let rest = &bytes[*pos..];
        let run = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
        // The scan reads `run + 1` bytes, the validation `run`.
        step(2 * run + 1);
        // The run ends before an ASCII byte or at the end of the input,
        // so it is whole characters of the input `&str`.
        out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("lone high surrogate".into());
                            }
                            let lo = parse_hex4(bytes, *pos + 3)?;
                            *pos += 6;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => return Err("raw control character in string".into()),
        }
    }
}

/// Count `n` bytes examined by the string scanner, for the linearity guard
/// in this module's tests; outside tests it compiles to nothing.
#[inline(always)]
fn step(n: usize) {
    #[cfg(test)]
    tests::STEPS.with(|s| s.set(s.get() + n as u64));
    #[cfg(not(test))]
    let _ = n;
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let chunk = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_owned())?;
    // Four hex digits exactly: `from_str_radix` alone would take a sign.
    if !chunk.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape at byte {at}"));
    }
    let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
    u32::from_str_radix(s, 16).map_err(|e| format!("bad \\u escape: {e}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected number at byte {start}"));
    }
    if float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Bytes counted by [`step`] on this test thread.
        pub(super) static STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn rendering_is_canonical_and_sorted() {
        let a = Json::obj()
            .with("zulu", 1u64)
            .with("alpha", "x")
            .with("mid", Json::arr());
        let b = Json::obj()
            .with("mid", Json::arr())
            .with("alpha", "x")
            .with("zulu", 1u64);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render(), r#"{"alpha":"x","mid":[],"zulu":1}"#);
    }

    #[test]
    fn numbers_render_exactly() {
        assert_eq!(Json::from(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::from(-42i64).render(), "-42");
        assert_eq!(Json::from(0.005f64).render(), "0.005");
        assert_eq!(Json::from(1.0f64).render(), "1.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [
            0.005,
            1.0 / 3.0,
            1e-12,
            123456.789e300,
            -0.0,
            2.2250738585072014e-308,
        ] {
            let rendered = Json::from(f).render();
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), f.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t nul\u{0} émoji🙂";
        let rendered = Json::from(s).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s));
        // Surrogate-pair escapes parse to the astral character.
        assert_eq!(
            Json::parse(r#""\ud83d\ude42""#).unwrap().as_str(),
            Some("🙂")
        );
    }

    /// The exact bytes of every escape, integer edge, float form and
    /// container shape: cache keys hash these bytes, so none may move.
    #[test]
    fn canonical_bytes_are_pinned() {
        let render = |v: Json| v.render();
        for b in 0u8..0x20 {
            let want = match b {
                b'\n' => "\\n".to_owned(),
                b'\r' => "\\r".to_owned(),
                b'\t' => "\\t".to_owned(),
                _ => format!("\\u00{b:02x}"),
            };
            let s = format!("a{}b", b as char);
            assert_eq!(
                render(Json::from(s)),
                format!("\"a{want}b\""),
                "byte {b:#04x}"
            );
        }
        assert_eq!(
            render(Json::from("q\"b\\d\u{7f}é日🙂")),
            "\"q\\\"b\\\\d\u{7f}é日🙂\""
        );
        assert_eq!(render(Json::from("")), r#""""#);
        assert_eq!(render(Json::from("\"\\\n")), r#""\"\\\n""#);
        for (i, want) in [
            (i128::MIN, "-170141183460469231731687303715884105728"),
            (i128::MAX, "170141183460469231731687303715884105727"),
            (u64::MAX as i128, "18446744073709551615"),
            (u64::MAX as i128 + 1, "18446744073709551616"),
            (i64::MIN as i128, "-9223372036854775808"),
            (i64::MIN as i128 - 1, "-9223372036854775809"),
            (-1, "-1"),
            (0, "0"),
        ] {
            assert_eq!(render(Json::Int(i)), want);
        }
        for (f, want) in [
            (-0.0, "-0.0".to_owned()),
            (0.0, "0.0".to_owned()),
            (1e21, "1000000000000000000000.0".to_owned()),
            (1e-7, "0.0000001".to_owned()),
            (0.1, "0.1".to_owned()),
            (-2.5, "-2.5".to_owned()),
            (5e-324, format!("0.{}5", "0".repeat(323))),
            (f64::MAX, format!("17976931348623157{}.0", "0".repeat(292))),
            (f64::NAN, "null".to_owned()),
            (f64::INFINITY, "null".to_owned()),
            (f64::NEG_INFINITY, "null".to_owned()),
        ] {
            assert_eq!(render(Json::Float(f)), want, "{f:e}");
        }
        let doc = Json::obj()
            .with("z", Json::arr())
            .with("a", Json::obj())
            .with(
                "m",
                Json::from(vec![
                    Json::Null,
                    Json::from(true),
                    Json::obj().with("k", 1u64),
                ]),
            )
            .with("é", Json::from(vec![Json::arr()]));
        assert_eq!(
            doc.render(),
            r#"{"a":{},"m":[null,true,{"k":1}],"z":[],"é":[[]]}"#
        );
        assert_eq!(
            doc.render_pretty(),
            "{\n  \"a\": {},\n  \"m\": [\n    null,\n    true,\n    {\n      \"k\": 1\n    }\n  ],\n  \"z\": [],\n  \"é\": [\n    []\n  ]\n}\n"
        );
        assert_eq!(Json::arr().render_pretty(), "[]\n");
        assert_eq!(Json::from(0.5).render_pretty(), "0.5\n");
    }

    #[test]
    fn documents_round_trip_via_parse() {
        let doc = Json::obj()
            .with("schema", "test/1")
            .with("count", 3u64)
            .with("ratio", 0.25f64)
            .with("flags", vec![true, false])
            .with("inner", Json::obj().with("deep", Json::Null));
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let deep = format!("{{\"seed\":{}", "[".repeat(100_000));
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "01x",
            "nul",
            "{\"a\":1}]",
            "\"\\ud800\"",
            "-",
            &deep,
            "\"\\u+041\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:.40?} accepted");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn accessors_read_expected_payloads() {
        let doc = Json::parse(
            r#"{"n": 7, "s": "x", "f": 1.5, "b": true, "a": [1], "big": 18446744073709551615}"#,
        )
        .unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("big").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn strings_parse_across_runs_escapes_and_errors() {
        let ok = |s: &str| Ok(Json::Str(s.to_owned()));
        let err = |e: &str| Err(e.to_owned());
        let table = [
            // Runs of 1-, 2-, 3- and 4-byte characters.
            (r#""""#, ok("")),
            (r#""a""#, ok("a")),
            (r#""é""#, ok("é")),
            (r#""日本""#, ok("日本")),
            (r#""🙂""#, ok("🙂")),
            ("\"del\u{7f}\"", ok("del\u{7f}")),
            // Runs that meet escapes on either side.
            (r#""é\n日\t🙂""#, ok("é\n日\t🙂")),
            (r#""\"é\"""#, ok("\"é\"")),
            (r#""\\🙂\/""#, ok("\\🙂/")),
            (r#""\b\f\r""#, ok("\u{8}\u{c}\r")),
            (r#""a\u00e9b""#, ok("aéb")),
            (r#""日\u65e5""#, ok("日日")),
            (r#""\u0000x""#, ok("\u{0}x")),
            (r#""\u001f""#, ok("\u{1f}")),
            // Surrogate pairs between runs.
            (r#""é\ud83d\ude42é""#, ok("é🙂é")),
            (r#""\ud83d\ude42\ud83d\ude42""#, ok("🙂🙂")),
            (r#""\ud83d""#, err("lone high surrogate")),
            (r#""é\ud83dé""#, err("lone high surrogate")),
            (r#""\ud83d\n""#, err("lone high surrogate")),
            (r#""\ud83d\u0041""#, err("invalid low surrogate")),
            (r#""\ude42""#, err("invalid code point 0xde42")),
            (r#""🙂\ud83d\uzzzz""#, err("bad \\u escape at byte 13")),
            // Truncated and bad escapes, with byte offsets.
            (r#""é\u12""#, err("truncated \\u escape")),
            (r#""é\u12zz""#, err("bad \\u escape at byte 5")),
            (r#""\u+041""#, err("bad \\u escape at byte 3")),
            (r#""é\q""#, err("bad escape at byte 4")),
            (r#""🙂\x""#, err("bad escape at byte 6")),
            (r#""é\"#, err("bad escape at byte 4")),
            (r#"{"k":"é\q"}"#, err("bad escape at byte 9")),
            (r#"{"é\q":1}"#, err("bad escape at byte 5")),
            // Raw control bytes end a run.
            ("\"a\tb\"", err("raw control character in string")),
            ("\"日\n\"", err("raw control character in string")),
            ("\"\u{1}\"", err("raw control character in string")),
            // Unterminated strings, and what follows a closed one.
            (r#""ab"#, err("unterminated string")),
            (r#""日本"#, err("unterminated string")),
            (r#""a"x"#, err("trailing content at byte 3")),
            (r#"{"é":"日"}"#, Ok(Json::obj().with("é", "日"))),
        ];
        for (text, want) in table {
            assert_eq!(Json::parse(text), want, "{text:?}");
        }
    }

    #[test]
    fn string_steps_grow_linearly() {
        // Every kind of run and escape, repeated: 11 characters a unit.
        let unit = r#"ab\u00e9é日\n🙂\ud83d\ude42\"x\\"#;
        let count = |units: usize| {
            let text = format!("\"{}\"", unit.repeat(units));
            STEPS.with(|s| s.set(0));
            let value = Json::parse(&text).unwrap();
            assert_eq!(value.as_str().unwrap().chars().count(), 11 * units);
            STEPS.with(|s| s.get())
        };
        let growth = count(1024) as f64 / count(256) as f64;
        assert!(growth <= 4.5, "string scan steps grew {growth}x");
    }
}
