//! Reference implementations the byte-level JSON codec and the span-based
//! word segmentation replaced, kept as test oracles: the property tests
//! below assert the production code is indistinguishable from them —
//! byte-identical `Display` output, identical parse results and error
//! messages, equal word lists — on random and mutated text heavy in CJK,
//! emoji, escapes, surrogates, control characters and Unicode whitespace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use proptest::prelude::*;

use crate::error::{DjError, Result};
use crate::value::Value;

/// The pre-byte-level JSON parser: copies the input into a `Vec<char>` and
/// pushes string content one char at a time.
mod reference_json {
    use super::*;

    /// The char-vector parser `parse_json` replaced.
    pub fn parse_json(input: &str) -> Result<Value> {
        let mut p = Parser {
            chars: input.chars().collect(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
    }

    impl Parser {
        fn err(&self, msg: &str) -> DjError {
            DjError::Parse(format!("json: {msg} at offset {}", self.pos))
        }

        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<char> {
            let c = self.peek();
            if c.is_some() {
                self.pos += 1;
            }
            c
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, c: char) -> Result<()> {
            if self.bump() == Some(c) {
                Ok(())
            } else {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(&format!("expected `{c}`")))
            }
        }

        fn parse_value(&mut self) -> Result<Value> {
            self.skip_ws();
            match self.peek() {
                Some('{') => self.parse_object(),
                Some('[') => self.parse_array(),
                Some('"') => Ok(Value::Str(self.parse_string()?)),
                Some('t') => self.parse_literal("true", Value::Bool(true)),
                Some('f') => self.parse_literal("false", Value::Bool(false)),
                Some('n') => self.parse_literal("null", Value::Null),
                Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
                Some(c) => Err(self.err(&format!("unexpected character `{c}`"))),
                None => Err(self.err("unexpected end of input")),
            }
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
            self.expect('{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some('}') {
                self.bump();
                return Ok(Value::Map(map));
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.expect(':')?;
                let value = self.parse_value()?;
                map.insert(key, value);
                self.skip_ws();
                match self.bump() {
                    Some(',') => continue,
                    Some('}') => return Ok(Value::Map(map)),
                    _ => {
                        self.pos = self.pos.saturating_sub(1);
                        return Err(self.err("expected `,` or `}` in object"));
                    }
                }
            }
        }

        fn parse_array(&mut self) -> Result<Value> {
            self.expect('[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(']') {
                self.bump();
                return Ok(Value::List(items));
            }
            loop {
                items.push(self.parse_value()?);
                self.skip_ws();
                match self.bump() {
                    Some(',') => continue,
                    Some(']') => return Ok(Value::List(items)),
                    _ => {
                        self.pos = self.pos.saturating_sub(1);
                        return Err(self.err("expected `,` or `]` in array"));
                    }
                }
            }
        }

        fn parse_string(&mut self) -> Result<String> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                match self.bump() {
                    None => return Err(self.err("unterminated string")),
                    Some('"') => return Ok(out),
                    Some('\\') => match self.bump() {
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
                                self.expect('\\')?;
                                self.expect('u')?;
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
                    Some(c) if (c as u32) < 0x20 => {
                        return Err(self.err("raw control character in string"))
                    }
                    Some(c) => out.push(c),
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
            if self.peek() == Some('-') {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
            let mut is_float = false;
            if self.peek() == Some('.') {
                is_float = true;
                self.bump();
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
            if matches!(self.peek(), Some('e' | 'E')) {
                is_float = true;
                self.bump();
                if matches!(self.peek(), Some('+' | '-')) {
                    self.bump();
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
            let text: String = self.chars[start..self.pos].iter().collect();
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
}

/// The per-char JSON writer `Value`'s `Display` replaced.
fn reference_display(v: &Value) -> String {
    let mut out = String::new();
    write_reference(&mut out, v);
    out
}

fn write_reference(f: &mut String, v: &Value) {
    match v {
        Value::Null => write!(f, "null"),
        Value::Bool(b) => write!(f, "{b}"),
        Value::Int(i) => write!(f, "{i}"),
        Value::Float(x) => {
            if x.is_finite() {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            } else {
                write!(f, "null")
            }
        }
        Value::Str(s) => {
            write_reference_string(f, s);
            Ok(())
        }
        Value::List(l) => {
            f.push('[');
            for (i, v) in l.iter().enumerate() {
                if i > 0 {
                    f.push(',');
                }
                write_reference(f, v);
            }
            write!(f, "]")
        }
        Value::Map(m) => {
            f.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    f.push(',');
                }
                write_reference_string(f, k);
                f.push(':');
                write_reference(f, v);
            }
            write!(f, "}}")
        }
    }
    .expect("writing to a String cannot fail");
}

fn write_reference_string(f: &mut String, s: &str) {
    f.push('"');
    for c in s.chars() {
        let _ = match c {
            '"' => write!(f, "\\\""),
            '\\' => write!(f, "\\\\"),
            '\n' => write!(f, "\\n"),
            '\r' => write!(f, "\\r"),
            '\t' => write!(f, "\\t"),
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32),
            c => write!(f, "{c}"),
        };
    }
    f.push('"');
}

/// The `Vec<String>`-building segmentation `word_spans` replaced.
fn reference_segment_words(text: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if crate::context::is_cjk(c) {
            if !cur.is_empty() {
                words.push(std::mem::take(&mut cur));
            }
            words.push(c.to_string());
        } else if c.is_alphanumeric() || c == '_' || c == '\'' {
            cur.push(c);
        } else if !cur.is_empty() {
            words.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    words
}

/// splitmix64: the per-case generator, seeded from the property runner.
struct Gen(u64);

impl Gen {
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

    fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[self.below(pool.len())]
    }
}

/// Characters the generators draw from: ASCII word and punctuation
/// characters, JSON metacharacters, control characters, Unicode
/// whitespace, CJK and fullwidth forms, emoji (astral, so surrogate pairs
/// when escaped), combining marks and case-changing letters.
const CHARS: &[char] = &[
    'a',
    'b',
    'Z',
    'q',
    '0',
    '7',
    '_',
    '\'',
    '-',
    '.',
    ',',
    '!',
    ' ',
    ' ',
    '"',
    '\\',
    '/',
    '{',
    '}',
    '[',
    ']',
    ':',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    '\u{85}',
    '\u{a0}',
    '\u{2028}',
    '\u{3000}',
    '数',
    '据',
    '。',
    'Ａ',
    '😀',
    '👍',
    '\u{1f3fd}',
    '\u{301}',
    'é',
    'ß',
    'İ',
    'Σ',
    'ǅ',
    'λ',
    '—',
];

/// JSON fragments spliced into documents to mutate them.
const FRAGMENTS: &[&str] = &[
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\ud83d",
    "\\udc00",
    "\\uD83D\\u0041",
    "\\uZZZZ",
    "\\u12",
    "\\x",
    "\\",
    "\"",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "-",
    "1e5",
    "-0.5e-3",
    ".5",
    "01",
    "99999999999999999999",
    "tru",
    "true",
    "null",
    "nul",
    " ",
    "\u{3000}",
    "\u{1}",
    "😀",
    "数",
];

fn gen_string(g: &mut Gen, max_len: usize) -> String {
    let len = g.below(max_len + 1);
    (0..len).map(|_| *g.pick(CHARS)).collect()
}

fn gen_value(g: &mut Gen, depth: usize) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match g.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(g.below(2) == 1),
        2 => Value::Int(g.next() as i64 >> g.below(64)),
        3 => {
            let random = (g.next() >> 11) as f64 / 7.0;
            Value::Float(*g.pick(&[
                0.0,
                -0.0,
                1.5,
                -2.25e-7,
                1e15,
                3.0e300,
                f64::NAN,
                f64::INFINITY,
                0.1 + 0.2,
                random,
            ]))
        }
        4 => Value::Str(gen_string(g, 24)),
        5 => Value::List((0..g.below(4)).map(|_| gen_value(g, depth - 1)).collect()),
        _ => Value::Map(
            (0..g.below(4))
                .map(|_| (gen_string(g, 8), gen_value(g, depth - 1)))
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

/// Splice, delete or replace at a random char boundary.
fn mutate(g: &mut Gen, doc: &str) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for _ in 0..=g.below(3) {
        let at = g.below(chars.len() + 1);
        match g.below(4) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => {
                chars.truncate(at);
            }
            2 => {
                let c = *g.pick(CHARS);
                if at < chars.len() {
                    chars[at] = c;
                } else {
                    chars.push(c);
                }
            }
            _ => {
                let frag: Vec<char> = g.pick(FRAGMENTS).chars().collect();
                chars.splice(at..at, frag);
            }
        }
    }
    chars.into_iter().collect()
}

fn same_result(a: &Result<Value>, b: &Result<Value>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.structural_eq(y),
        (Err(x), Err(y)) => x.to_string() == y.to_string(),
        _ => false,
    }
}

fn check_parse(input: &str) {
    let new = crate::json::parse_json(input);
    let old = reference_json::parse_json(input);
    assert!(
        same_result(&new, &old),
        "parse diverged on {input:?}: new {new:?} vs reference {old:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn display_is_byte_identical_to_the_reference(seed in any::<u64>()) {
        let v = gen_value(&mut Gen(seed), 4);
        prop_assert_eq!(v.to_string(), reference_display(&v));
    }

    #[test]
    fn parse_matches_the_reference_on_valid_and_mutated_json(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let doc = gen_value(&mut g, 4).to_string();
        check_parse(&doc);
        for _ in 0..8 {
            check_parse(&mutate(&mut g, &doc));
        }
        // Bare random text: mostly errors, whose messages must agree.
        check_parse(&gen_string(&mut g, 16));
    }

    #[test]
    fn word_views_match_the_reference_segmentation(seed in any::<u64>()) {
        let text = gen_string(&mut Gen(seed), 64);
        let expected = reference_segment_words(&text);
        prop_assert_eq!(crate::context::segment_words(&text), expected.clone());
        let mut ctx = crate::context::SampleContext::new();
        prop_assert_eq!(ctx.words(&text), expected);
    }
}

#[test]
fn error_offsets_count_chars_not_bytes() {
    // `数` is three bytes; the offset of the bad token is in chars.
    for input in [
        "[\"数数\", x]",
        "{\"数\":1,}",
        "\"数\\q\"",
        "[数]",
        "{\"a\"",
        "\"\\ud83d😀\"",
    ] {
        check_parse(input);
    }
    let err = crate::json::parse_json("[\"数数\", x]").unwrap_err();
    assert!(err.to_string().ends_with("at offset 7"), "{err}");
}
