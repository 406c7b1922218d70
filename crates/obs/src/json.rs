//! Shared hand-rolled JSON primitives: string escaping, `f64`
//! formatting, and a flat-object parser.
//!
//! Both the observability trace format ([`crate::wire`]) and the
//! `mec-serve` wire protocol speak one-JSON-object-per-line with string
//! and number values only. This module is the single home for the
//! escaping and number rules, so the two formats cannot drift apart:
//!
//! * `u64` fields are written as JSON integers and parsed with
//!   [`str::parse`], so the full 64-bit range survives (no `f64` detour);
//! * finite `f64` values use Rust's shortest round-trip `Display`;
//!   non-finite values are written as the JSON strings `"NaN"`, `"inf"`
//!   and `"-inf"` (plain JSON has no spelling for them);
//! * strings are escaped per JSON rules (`\"`, `\\`, `\u00XX` for
//!   control characters) and may contain arbitrary Unicode.
//!
//! Nested containers are rejected by the parser — neither format
//! produces them; every message is one flat object. Between tokens the
//! parser skips any JSON whitespace (space, tab, CR, LF), so one object
//! may also span lines, as the rows of a pretty-printed bench file do.

use std::fmt;

/// Appends `s` to `out` as a JSON string literal (quoted and escaped).
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// mec_obs::json::push_string(&mut out, "a\"b");
/// assert_eq!(out, r#""a\"b""#);
/// ```
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` as a JSON value: finite floats use the shortest
/// round-trip `Display`; `NaN`/`±inf` travel as the strings `"NaN"`,
/// `"inf"`, `"-inf"` (JSON has no literal for them).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else {
        // Rust's Display for f64 is the shortest string that parses back to
        // the same value, so finite values round-trip bit-exactly.
        out.push_str(&format!("{v}"));
    }
}

/// Error describing why a line failed to parse. Its message names no
/// caller: the same reader parses traces, wire frames, snapshots and
/// bench reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
}

impl ParseError {
    /// Builds an error with the given description.
    pub fn new(msg: impl Into<String>) -> Self {
        ParseError { msg: msg.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed JSON: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

/// A raw field value: a decoded string or the unparsed number token.
pub enum Token {
    /// A decoded (unescaped) string value.
    Str(String),
    /// The raw text of a number value, left unparsed so the caller can
    /// choose `u64` (lossless) or `f64`.
    Num(String),
}

/// Looks up a raw field by key.
///
/// # Errors
///
/// Errors if the field is missing.
pub fn get<'a>(fields: &'a [(String, Token)], key: &str) -> Result<&'a Token, ParseError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| ParseError::new(format!("missing field `{key}`")))
}

/// Looks up a string field by key.
///
/// # Errors
///
/// Errors if the field is missing or not a string.
pub fn get_str<'a>(fields: &'a [(String, Token)], key: &str) -> Result<&'a str, ParseError> {
    match get(fields, key)? {
        Token::Str(s) => Ok(s),
        Token::Num(_) => Err(ParseError::new(format!("field `{key}` is not a string"))),
    }
}

/// Looks up a `u64` field by key (full 64-bit range, no float detour).
///
/// # Errors
///
/// Errors if the field is missing, not a number, or out of range.
pub fn get_u64(fields: &[(String, Token)], key: &str) -> Result<u64, ParseError> {
    match get(fields, key)? {
        Token::Num(n) => n
            .parse()
            .map_err(|_| ParseError::new(format!("field `{key}`: bad integer `{n}`"))),
        Token::Str(_) => Err(ParseError::new(format!("field `{key}` is not a number"))),
    }
}

/// Looks up a `usize` field by key.
///
/// # Errors
///
/// Errors if the field is missing, not a number, or out of range.
pub fn get_usize(fields: &[(String, Token)], key: &str) -> Result<usize, ParseError> {
    usize::try_from(get_u64(fields, key)?)
        .map_err(|_| ParseError::new(format!("field `{key}` overflows usize")))
}

/// Looks up an `f64` field by key. Non-finite values travel as strings
/// (`"NaN"`, `"inf"`, `"-inf"` — the spellings [`push_f64`] produces),
/// which `f64::from_str` accepts.
///
/// # Errors
///
/// Errors if the field is missing or does not parse as a float.
pub fn get_f64(fields: &[(String, Token)], key: &str) -> Result<f64, ParseError> {
    match get(fields, key)? {
        Token::Num(n) => n
            .parse()
            .map_err(|_| ParseError::new(format!("field `{key}`: bad float `{n}`"))),
        Token::Str(s) => s
            .parse()
            .map_err(|_| ParseError::new(format!("field `{key}`: bad float `{s}`"))),
    }
}

/// Parses one line holding a single flat JSON object: string keys, values
/// that are strings or numbers. Nested containers are rejected (neither
/// wire format produces them).
///
/// # Errors
///
/// Errors on malformed JSON, nested values, or trailing characters.
pub fn parse_object(line: &str) -> Result<Vec<(String, Token)>, ParseError> {
    let mut chars = line.trim().chars().peekable();
    if chars.next() != Some('{') {
        return Err(ParseError::new("expected `{`"));
    }
    let mut fields = Vec::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            _ => return Err(ParseError::new("expected field name")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(ParseError::new("expected `:`"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => Token::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                Token::Num(num)
            }
            _ => return Err(ParseError::new("expected string or number value")),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            _ => return Err(ParseError::new("expected `,` or `}`")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err(ParseError::new("trailing characters after object"));
    }
    Ok(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while matches!(chars.peek(), Some(' ' | '\t' | '\r' | '\n')) {
        chars.next();
    }
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, ParseError> {
    if chars.next() != Some('"') {
        return Err(ParseError::new("expected `\"`"));
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err(ParseError::new("unterminated string")),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|c| c.to_digit(16))
                            .ok_or_else(|| ParseError::new("bad \\u escape"))?;
                        code = code * 16 + d;
                    }
                    let c = char::from_u32(code)
                        .ok_or_else(|| ParseError::new("\\u escape is not a scalar value"))?;
                    out.push(c);
                }
                _ => return Err(ParseError::new("unknown escape")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_parse_back() {
        for s in [
            "",
            "plain",
            "q\"uo\\te",
            "new\nline\ttab",
            "\u{1}ctl",
            "😀€",
        ] {
            let mut line = String::from("{\"k\":");
            push_string(&mut line, s);
            line.push('}');
            let fields = parse_object(&line).unwrap();
            assert_eq!(get_str(&fields, "k").unwrap(), s);
        }
    }

    #[test]
    fn f64_round_trips_including_non_finite() {
        for v in [0.0, -1.5, 1e300, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
            let mut line = String::from("{\"v\":");
            push_f64(&mut line, v);
            line.push('}');
            let got = get_f64(&parse_object(&line).unwrap(), "v").unwrap();
            if v.is_nan() {
                assert!(got.is_nan());
            } else {
                assert_eq!(got.to_bits(), v.to_bits(), "v={v}");
            }
        }
    }

    #[test]
    fn u64_full_range() {
        let line = format!("{{\"v\":{}}}", u64::MAX);
        assert_eq!(
            get_u64(&parse_object(&line).unwrap(), "v").unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn typed_getters_reject_wrong_kind() {
        let fields = parse_object(r#"{"s":"x","n":3}"#).unwrap();
        assert!(get_str(&fields, "n").is_err());
        assert!(get_u64(&fields, "s").is_err());
        assert!(get(&fields, "missing").is_err());
    }

    #[test]
    fn an_object_may_span_lines() {
        let fields = parse_object("{\n  \"a\": \"x\",\r\n  \"b\": 2\n}").unwrap();
        assert_eq!(get_str(&fields, "a").unwrap(), "x");
        assert_eq!(get_u64(&fields, "b").unwrap(), 2);
    }

    #[test]
    fn errors_say_malformed_json_whatever_the_caller() {
        let Err(e) = parse_object(r#"{"op":}"#) else {
            panic!("a field without a value parsed");
        };
        assert_eq!(
            e.to_string(),
            "malformed JSON: expected string or number value"
        );
        let Err(e) = get(&parse_object("{}").unwrap(), "k") else {
            panic!("a missing field was found");
        };
        assert_eq!(e.to_string(), "malformed JSON: missing field `k`");
    }

    #[test]
    fn nested_and_malformed_rejected() {
        for line in ["", "{", "[1]", r#"{"a":[1]}"#, r#"{"a":{"b":1}}"#, "{}x"] {
            assert!(
                parse_object(line).is_err(),
                "line `{line}` should not parse"
            );
        }
    }
}
