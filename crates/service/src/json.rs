//! Minimal JSON parser producing the offline `serde` crate's [`Value`] tree.
//!
//! The offline `serde_json` stand-in only *serializes*; the service needs to
//! read JSON back in two places — the on-disk result segments and the wire
//! protocol — so this module implements the inverse: a strict recursive
//! descent parser over the exact JSON subset the workspace emits (finite
//! numbers, `\uXXXX`-escaped strings, arrays, string-keyed objects).
//!
//! Nesting is bounded by [`MAX_DEPTH`]: the parser recurses once per array
//! or object level, so an unbounded document (`"[".repeat(200_000)`) would
//! otherwise overflow the stack and abort the process reading it.

use serde::Value;

/// Deepest array/object nesting [`parse`] accepts. The workspace emits at
/// most a handful of levels; anything deeper is rejected with
/// [`JsonErrorKind::TooDeep`] before it can exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// What kind of parse failure a [`JsonError`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text is not valid JSON (of the subset the workspace emits).
    Syntax,
    /// Arrays/objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parser failed at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
    /// The failure class.
    pub kind: JsonErrorKind,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(err(pos, "trailing characters after JSON document"));
    }
    Ok(value)
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError { offset, message: message.into(), kind: JsonErrorKind::Syntax }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", byte as char)))
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(JsonError {
            offset: *pos,
            message: format!("nesting deeper than {MAX_DEPTH} levels"),
            kind: JsonErrorKind::TooDeep,
        });
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected '{word}'")))
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Map(entries));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos, depth)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Seq(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex =
                            bytes.get(*pos + 1..*pos + 5).ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| err(*pos, "bad \\u escape"))?;
                        // The workspace never emits surrogate pairs (it only
                        // escapes control characters); reject them rather than
                        // silently mis-decoding.
                        let c = char::from_u32(code).ok_or_else(|| err(*pos, "invalid \\u code point"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "unknown escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // `pos` always sits on a char boundary: structural JSON bytes
                // are ASCII, and this arm advances by whole scalars.
                let c = text[*pos..].chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number");
    if text.is_empty() || text == "-" {
        return Err(err(start, "invalid number"));
    }
    if is_float {
        text.parse::<f64>().map(Value::Float).map_err(|_| err(start, "invalid float"))
    } else if text.starts_with('-') {
        text.parse::<i64>().map(Value::Int).map_err(|_| err(start, "integer out of range"))
    } else {
        text.parse::<u64>().map(Value::UInt).map_err(|_| err(start, "integer out of range"))
    }
}

/// Looks `key` up in an object [`Value`].
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The string content of a [`Value::Str`].
pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Numeric coercion to `u64` (accepts `UInt` and non-negative `Int`).
pub fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Numeric coercion to `i64`.
pub fn as_i64(value: &Value) -> Option<i64> {
    match value {
        Value::Int(n) => Some(*n),
        Value::UInt(n) => i64::try_from(*n).ok(),
        _ => None,
    }
}

/// Numeric coercion to `f64` (accepts every numeric variant).
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// The items of a [`Value::Seq`].
pub fn as_seq(value: &Value) -> Option<&[Value]> {
    match value {
        Value::Seq(items) => Some(items),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_workspace_serializer_emits() {
        let original = Value::Map(vec![
            ("label".to_string(), Value::Str("a\"b\\c\nd".to_string())),
            ("count".to_string(), Value::UInt(42)),
            ("delta".to_string(), Value::Int(-7)),
            ("ratio".to_string(), Value::Float(2.5)),
            ("whole".to_string(), Value::Float(3.0)),
            ("flag".to_string(), Value::Bool(true)),
            ("nothing".to_string(), Value::Null),
            ("items".to_string(), Value::Seq(vec![Value::UInt(1), Value::Str("x".to_string())])),
            ("empty_map".to_string(), Value::Map(vec![])),
            ("empty_seq".to_string(), Value::Seq(vec![])),
        ]);
        struct W(Value);
        impl serde::Serialize for W {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        for text in [
            serde_json::to_string(&W(original.clone())).unwrap(),
            serde_json::to_string_pretty(&W(original.clone())).unwrap(),
        ] {
            assert_eq!(parse(&text).unwrap(), original, "{text}");
        }
    }

    #[test]
    fn parses_unicode_escapes_and_raw_utf8() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Value::Str("Aé".to_string()));
        assert_eq!(parse("\"héllo\"").unwrap(), Value::Str("héllo".to_string()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated", "{} extra"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    fn nested_arrays(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    fn nested_objects(depth: usize) -> String {
        format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth))
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        for text in [nested_arrays(MAX_DEPTH), nested_objects(MAX_DEPTH)] {
            let mut value = parse(&text).expect("nesting at the limit is accepted");
            let mut levels = 0;
            loop {
                value = match value {
                    Value::Seq(mut items) => match items.pop() {
                        Some(inner) => inner,
                        None => {
                            levels += 1;
                            break;
                        }
                    },
                    Value::Map(mut entries) => entries.pop().expect("one entry per level").1,
                    _ => break,
                };
                levels += 1;
            }
            assert_eq!(levels, MAX_DEPTH, "{}", &text[..8]);
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        for text in [nested_arrays(MAX_DEPTH + 1), nested_objects(MAX_DEPTH + 1)] {
            let error = parse(&text).unwrap_err();
            assert_eq!(error.kind, JsonErrorKind::TooDeep, "{error}");
            // The error points at the first bracket past the limit.
            let bracket = if text.starts_with('[') { 1 } else { "{\"a\":".len() };
            assert_eq!(error.offset, MAX_DEPTH * bracket, "{error}");
        }
        assert_eq!(parse("[1,").unwrap_err().kind, JsonErrorKind::Syntax);
    }

    #[test]
    fn hostile_nesting_does_not_overflow_the_stack() {
        for text in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            assert_eq!(parse(&text).unwrap_err().kind, JsonErrorKind::TooDeep);
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = parse(r#"{"op":"run","id":3,"priority":-2,"x":1.5,"targets":["fig9"]}"#).unwrap();
        assert_eq!(as_str(get(&doc, "op").unwrap()), Some("run"));
        assert_eq!(as_u64(get(&doc, "id").unwrap()), Some(3));
        assert_eq!(as_i64(get(&doc, "priority").unwrap()), Some(-2));
        assert_eq!(as_f64(get(&doc, "x").unwrap()), Some(1.5));
        assert_eq!(as_seq(get(&doc, "targets").unwrap()).unwrap().len(), 1);
        assert!(get(&doc, "missing").is_none());
    }
}
