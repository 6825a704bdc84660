//! A minimal JSON *object* parser for request bodies.
//!
//! The wire protocol only ever carries flat objects — string keys mapping
//! to numbers, strings, booleans or `null` — so this parser rejects nested
//! objects and arrays by design: a request smuggling structure we would
//! silently ignore is a protocol error, not data. Responses are rendered
//! by the shared `ifls-stats/v1` encoder in `ifls_core::api`; this module
//! is the read side only.

use std::collections::BTreeMap;

/// A scalar JSON value (the only kind the request protocol accepts).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token (no fraction or exponent), kept exactly. Tokens
    /// outside `i64::MIN..=u64::MAX` are refused by the parser.
    Int(i128),
    /// Any other JSON number, kept as `f64`.
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
}

impl JsonValue {
    /// The value as a non-negative integer, if it is an integer token in
    /// `u64` range. A fraction or exponent (`1.0`, `1e3`) is not an
    /// integer token: its `f64` value may already have been rounded.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a float, if it is a number (integers round to the
    /// nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
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

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", c as char, self.i))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at offset {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates would need pairing; the protocol
                            // never emits them, so refuse instead of
                            // guessing.
                            let c = char::from_u32(cp).ok_or("\\u escape is not a scalar")?;
                            out.push(c);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at offset {}", self.i))
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unchanged; the body
                    // was validated as UTF-8 before parsing.
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xc0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "bad utf-8")?,
                    );
                }
            }
        }
    }

    /// A number token. Integer tokens are parsed exactly and must fit in
    /// `i64::MIN..=u64::MAX`; any other token is parsed as `f64`.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "bad number")?;
        let digits = text.strip_prefix('-').unwrap_or(text);
        if !digits.is_empty() && digits.bytes().all(|c| c.is_ascii_digit()) {
            return match text.parse::<i128>() {
                Ok(n) if (i64::MIN as i128..=u64::MAX as i128).contains(&n) => {
                    Ok(JsonValue::Int(n))
                }
                _ => Err(format!(
                    "integer `{text}` at offset {start} does not fit in 64 bits"
                )),
            };
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }

    fn scalar(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|_| JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(b'{') | Some(b'[') => {
                Err(format!("nested values are not allowed (offset {})", self.i))
            }
            Some(c) => Err(format!("unexpected `{}` at offset {}", c as char, self.i)),
            None => Err("unexpected end of input".into()),
        }
    }
}

/// Parses one flat JSON object (`{"key": scalar, …}`). Duplicate keys are
/// a protocol error — a request must not say two different things.
pub fn parse_object(s: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    let mut map = BTreeMap::new();
    p.skip_ws();
    p.expect(b'{')?;
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.i += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.scalar()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key `{key}`"));
            }
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.i += 1,
                Some(b'}') => {
                    p.i += 1;
                    break;
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", p.i)),
            }
        }
    }
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let m = parse_object(r#"{"a": 1, "b": "x\n", "c": true, "d": null, "e": -2.5}"#).unwrap();
        assert_eq!(m["a"], JsonValue::Int(1));
        assert_eq!(m["b"], JsonValue::Str("x\n".into()));
        assert_eq!(m["c"], JsonValue::Bool(true));
        assert_eq!(m["d"], JsonValue::Null);
        assert_eq!(m["e"].as_f64(), Some(-2.5));
        assert_eq!(parse_object("{}").unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1]",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":{}}",
            "{\"a\":[1]}",
            "{\"a\":1} x",
            "{\"a\":1,\"a\":2}",
            "{\"a\":01e}",
            "{\"a\":-}",
            "{'a':1}",
            "{\"a\":\"unterminated}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_are_typed() {
        let m = parse_object(r#"{"n": 7, "f": 1.5, "s": "x", "b": false}"#).unwrap();
        assert_eq!(m["n"].as_u64(), Some(7));
        assert_eq!(m["f"].as_u64(), None);
        assert_eq!(m["s"].as_str(), Some("x"));
        assert_eq!(m["b"].as_bool(), Some(false));
        assert_eq!(m["s"].as_u64(), None);
    }

    #[test]
    fn integer_tokens_are_exact() {
        // 2^53 + 1 has no f64 of its own; an f64 reading answers 2^53.
        let m = parse_object(r#"{"seed": 9007199254740993}"#).unwrap();
        assert_eq!(m["seed"].as_u64(), Some(9_007_199_254_740_993));
        let m =
            parse_object(r#"{"max": 18446744073709551615, "neg": -9223372036854775808}"#).unwrap();
        assert_eq!(m["max"].as_u64(), Some(u64::MAX));
        assert_eq!(m["neg"], JsonValue::Int(i64::MIN as i128));
        assert_eq!(m["neg"].as_u64(), None);
        assert_eq!(m["neg"].as_f64(), Some(i64::MIN as f64));
        // A fraction or exponent makes a float token, never an integer.
        let m = parse_object(r#"{"a": 1.0, "b": 1e3, "c": -0}"#).unwrap();
        assert_eq!(m["a"].as_u64(), None);
        assert_eq!(m["b"].as_u64(), None);
        assert_eq!(m["b"].as_f64(), Some(1000.0));
        assert_eq!(m["c"].as_u64(), Some(0));
    }

    #[test]
    fn integers_beyond_64_bits_are_refused() {
        for bad in [
            r#"{"seed": 18446744073709551616}"#,
            r#"{"seed": -9223372036854775809}"#,
            r#"{"seed": 340282366920938463463374607431768211456}"#,
        ] {
            let e = parse_object(bad).expect_err(bad);
            assert!(e.contains("does not fit in 64 bits"), "{bad}: {e}");
        }
    }
}
