//! A small, strict JSON parser producing [`Value`] trees.
//!
//! Serialization is `Value`'s `Display` impl; this module provides the
//! inverse. Implemented from scratch because `serde_json` is outside the
//! allowed dependency set (see DESIGN.md). Supports the full JSON grammar
//! with `\uXXXX` escapes (including surrogate pairs).
//!
//! The parser walks the input's bytes and copies each run of unescaped
//! string content with one `push_str`. Error offsets are reported in
//! *characters* (not bytes) from the start of the input; the conversion
//! happens only on the error path. Containers nest at most [`MAX_DEPTH`]
//! deep, so hostile input is a typed error instead of a stack overflow.

use std::collections::BTreeMap;

use crate::error::{DjError, Result};
use crate::value::Value;

/// Deepest container nesting [`parse_json`] accepts. Deeper input is a
/// [`DjError::Parse`], never a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document into a [`Value`].
pub fn parse_json(input: &str) -> Result<Value> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Byte-level cursor. `pos` is a byte offset that always sits on a char
/// boundary: it only ever moves by whole characters.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> DjError {
        let offset = self.src.get(..self.pos).map_or(0, |s| s.chars().count());
        DjError::Parse(format!("json: {msg} at offset {offset}"))
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The character at the cursor, decoded only where a message or a
    /// non-ASCII step needs it.
    fn peek_char(&self) -> Option<char> {
        self.src.get(self.pos..).and_then(|s| s.chars().next())
    }

    /// Consume one whole character.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Step back one character (no-op at the start of input).
    fn back(&mut self) {
        if self.pos > 0 {
            self.pos -= 1;
            while !self.src.is_char_boundary(self.pos) {
                self.pos -= 1;
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume the ASCII byte `c` or fail pointing at what stood there
    /// (at end of input, at the last character).
    fn expect(&mut self, c: u8) -> Result<()> {
        if self.peek_byte() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            if self.peek_byte().is_none() {
                self.back();
            }
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(_) => {
                let c = self.peek_char().unwrap_or(char::REPLACEMENT_CHARACTER);
                Err(self.err(&format!("unexpected character `{c}`")))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Run one container parser one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_literal(&mut self, lit: &str, v: Value) -> Result<Value> {
        for c in lit.chars() {
            if self.bump() != Some(c) {
                return Err(self.err(&format!("invalid literal, expected `{lit}`")));
            }
        }
        Ok(v)
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek_byte() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek_byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(map));
                }
                other => {
                    if other.is_none() {
                        self.back();
                    }
                    return Err(self.err("expected `,` or `}` in object"));
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek_byte() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek_byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                other => {
                    if other.is_none() {
                        self.back();
                    }
                    return Err(self.err("expected `,` or `]` in array"));
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go. Those are all ASCII, so the run ends on a
            // char boundary.
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(self.src.get(start..self.pos).unwrap_or_default());
            let Some(b) = self.peek_byte() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require \uXXXX low surrogate.
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(hi)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while matches!(p.peek_byte(), Some(b) if b.is_ascii_digit()) {
                p.pos += 1;
            }
        };
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut is_float = false;
        if self.peek_byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        // Only ASCII was consumed, so the slice is on char boundaries.
        let text = self.src.get(start..self.pos).unwrap_or_default();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid float"))
        } else {
            // Fall back to float for integers beyond i64 range.
            text.parse::<i64>().map(Value::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err("invalid number"))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), Value::Null);
        assert_eq!(parse_json("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_json("false").unwrap(), Value::Bool(false));
        assert_eq!(parse_json("42").unwrap(), Value::Int(42));
        assert_eq!(parse_json("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse_json("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse_json("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"a": [1, {"b": "c"}, null], "d": {"e": 2.5}}"#).unwrap();
        assert_eq!(v.get_path("d.e").unwrap().as_float(), Some(2.5));
        let list = v.get_path("a").unwrap().as_list().unwrap();
        assert_eq!(list.len(), 3);
        assert_eq!(list[1].get_path("b").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse_json(r#""a\"b\\c\nd\teA""#).unwrap(),
            Value::Str("a\"b\\c\nd\teA".into())
        );
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(parse_json(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert!(parse_json(r#""\ud83d""#).is_err());
        assert!(parse_json(r#""\ud83dx""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "{\"a\":1} extra",
            "[1 2]",
            "nan",
        ] {
            assert!(parse_json(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn roundtrip_display_then_parse() {
        let mut v = Value::map();
        v.set_path("text", Value::from("line1\nline2\t\"quoted\""))
            .unwrap();
        v.set_path("meta.count", Value::Int(5)).unwrap();
        v.set_path("stats.ratio", Value::Float(0.25)).unwrap();
        v.set_path("tags", Value::from(vec!["a", "b"])).unwrap();
        let parsed = parse_json(&v.to_string()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        let v = parse_json("99999999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        let err = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(matches!(err, DjError::Parse(_)), "{err}");
        assert!(
            err.to_string()
                .contains("nesting deeper than 128 levels at offset 128"),
            "{err}"
        );
        let hostile = format!("{{\"text\":{}", "[".repeat(1_000_000));
        assert!(parse_json(&hostile).is_err());
    }

    #[test]
    fn whitespace_tolerance() {
        let v = parse_json(" \n\t{ \"a\" :\r[ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get_path("a").unwrap().as_list().unwrap().len(), 2);
    }
}
