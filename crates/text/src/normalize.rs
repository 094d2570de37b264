//! Text normalization and repair utilities backing the Mapper OPs:
//! whitespace unification, unicode punctuation fixing, mojibake ("messy
//! code") repair, and removals of headers/links/emails/IPs — the in-place
//! text-editing functions of Table 1.
//!
//! ## The `Cow` contract
//!
//! The kernels the cleaning mappers run on every sample
//! ([`normalize_whitespace`], [`normalize_punctuation`], [`fix_mojibake`],
//! [`strip_html`], [`remove_links`], [`remove_emails`], [`remove_ips`],
//! [`remove_long_words`]) return `Cow<'_, str>`: `Borrowed` exactly when
//! the output equals the input, `Owned` exactly when it differs. Most
//! samples need no edit, so each kernel first runs one byte-level scan for
//! the bytes its edit needs (no `@` means no email, no `<` or `&` means no
//! tag or entity, no token longer than the limit means no long word) and
//! only rewrites the text when the scan finds one. The rewrite produces the
//! same bytes the earlier `String`-returning kernels did; those are kept as
//! test oracles, and property tests hold the kernels to them.

use std::borrow::Cow;

/// Bytes per block of [`find_window`]'s unrolled scan.
const BLOCK: usize = 32;

/// The first `i >= from` where `hit(b[i], b[i + 1], b[i + 2])` holds,
/// reading `0` past the end of `b` (so `hit` must not match a `0` in its
/// second or third byte). Whole blocks are tested without an early exit,
/// which lets the compiler vectorize the test.
#[inline(always)]
fn find_window(b: &[u8], from: usize, hit: impl Fn(u8, u8, u8) -> bool) -> Option<usize> {
    let mut i = from;
    while i + BLOCK + 2 <= b.len() {
        let w = &b[i..i + BLOCK + 2];
        let mut any = false;
        for j in 0..BLOCK {
            any |= hit(w[j], w[j + 1], w[j + 2]);
        }
        if any {
            break;
        }
        i += BLOCK;
    }
    let at = |k: usize| b.get(k).copied().unwrap_or(0);
    (i..b.len()).find(|&k| hit(b[k], at(k + 1), at(k + 2)))
}

/// Collapse runs of spaces/tabs, normalize newlines, trim trailing spaces.
///
/// `\r\n` and `\r` become `\n`; a run of spaces, tabs, U+00A0 and U+3000
/// becomes one space between words and disappears at line ends; more than
/// two newlines in a row become two; leading spaces and trailing
/// whitespace go.
pub fn normalize_whitespace(text: &str) -> Cow<'_, str> {
    if whitespace_is_normal(text.as_bytes()) {
        Cow::Borrowed(text)
    } else {
        Cow::Owned(rewrite_whitespace(text))
    }
}

/// Whether [`normalize_whitespace`] leaves `b` as it is: no `\r`, tab,
/// U+00A0 (C2 A0) or U+3000 (E3 80 80), no leading space, no trailing
/// space or newline, no space next to a space or newline, and no run of
/// three newlines.
fn whitespace_is_normal(b: &[u8]) -> bool {
    if b.first() == Some(&b' ') || matches!(b.last(), Some(b' ' | b'\n')) {
        return false;
    }
    let edit = |x: u8, y: u8, z: u8| {
        (x == b'\r')
            | (x == b'\t')
            | ((x == b' ') & ((y == b' ') | (y == b'\n')))
            | ((x == b'\n') & (y == b' '))
            | ((x == b'\n') & (y == b'\n') & (z == b'\n'))
            | ((x == 0xC2) & (y == 0xA0))
            | ((x == 0xE3) & (y == 0x80) & (z == 0x80))
    };
    find_window(b, 0, edit).is_none()
}

/// The whitespace char starting at byte `i`, as `(is_newline, byte length)`.
/// Every byte it tests is ASCII or a UTF-8 lead byte, so a non-whitespace
/// run ends on a char boundary.
fn whitespace_at(b: &[u8], i: usize) -> Option<(bool, usize)> {
    match b[i] {
        b'\n' => Some((true, 1)),
        b'\r' => Some((true, if b.get(i + 1) == Some(&b'\n') { 2 } else { 1 })),
        b' ' | b'\t' => Some((false, 1)),
        0xC2 if b.get(i + 1) == Some(&0xA0) => Some((false, 2)),
        0xE3 if b.get(i + 1..i + 3) == Some(&[0x80, 0x80]) => Some((false, 3)),
        _ => None,
    }
}

fn rewrite_whitespace(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut pending_space = false;
    let mut pending_newlines = 0usize;
    let mut i = 0;
    while i < b.len() {
        if let Some((newline, len)) = whitespace_at(b, i) {
            if newline {
                pending_space = false;
                pending_newlines += 1;
            } else {
                pending_space = true;
            }
            i += len;
            continue;
        }
        let start = i;
        i += 1;
        while i < b.len() && whitespace_at(b, i).is_none() {
            i += 1;
        }
        if pending_newlines > 0 {
            // At most one blank line is kept (paragraph break).
            out.push('\n');
            if pending_newlines > 1 {
                out.push('\n');
            }
            pending_newlines = 0;
        } else if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        out.push_str(&text[start..i]);
    }
    out
}

/// The ASCII stand-in for a typographic/fullwidth punctuation char.
fn ascii_punctuation(c: char) -> Option<char> {
    Some(match c {
        '“' | '”' | '„' | '«' | '»' => '"',
        '‘' | '’' | '‚' | '`' => '\'',
        '—' | '–' | '―' => '-',
        '…' => '.',
        '，' => ',',
        '。' => '.',
        '！' => '!',
        '？' => '?',
        '：' => ':',
        '；' => ';',
        '（' => '(',
        '）' => ')',
        _ => return None,
    })
}

/// Map fullwidth/typographic unicode punctuation to ASCII equivalents
/// (the `punctuation_normalization_mapper`).
pub fn normalize_punctuation(text: &str) -> Cow<'_, str> {
    // Every mapped char is '`' or starts with a lead byte of 0xC2 or above.
    let lead = |x: u8, _, _| (x == b'`') | (x >= 0xC2);
    let b = text.as_bytes();
    let mut from = 0;
    let first = loop {
        let Some(i) = find_window(b, from, lead) else {
            return Cow::Borrowed(text);
        };
        if text[i..]
            .chars()
            .next()
            .and_then(ascii_punctuation)
            .is_some()
        {
            break i;
        }
        from = i + 1;
    };
    let mut out = String::with_capacity(text.len());
    out.push_str(&text[..first]);
    out.extend(
        text[first..]
            .chars()
            .map(|c| ascii_punctuation(c).unwrap_or(c)),
    );
    Cow::Owned(out)
}

/// Repair common UTF-8-decoded-as-Latin-1 mojibake sequences ("fix messy
/// codes" in Table 1). Only a conservative, high-precision table is applied.
pub fn fix_mojibake(text: &str) -> Cow<'_, str> {
    const TABLE: &[(&str, &str)] = &[
        ("â€™", "'"),
        ("â€œ", "\""),
        ("â€\u{9d}", "\""),
        ("â€“", "-"),
        ("â€”", "-"),
        ("â€¦", "..."),
        ("Ã©", "é"),
        ("Ã¨", "è"),
        ("Ã¼", "ü"),
        ("Ã¶", "ö"),
        ("Ã¤", "ä"),
        ("Ã±", "ñ"),
        ("Â ", " "),
        ("\u{fffd}", ""),
    ];
    // Every bad sequence starts with 'â', 'Ã' or 'Â' (C3 A2, C3 83, C3 82)
    // or is U+FFFD (EF BF BD).
    let suspect = |x: u8, y: u8, z: u8| {
        ((x == 0xC3) & ((y == 0x82) | (y == 0x83) | (y == 0xA2)))
            | ((x == 0xEF) & (y == 0xBF) & (z == 0xBD))
    };
    let mut out = Cow::Borrowed(text);
    if find_window(text.as_bytes(), 0, suspect).is_none() {
        return out;
    }
    // Every replacement is shorter than what it replaces, so a hit always
    // changes the text.
    for (bad, good) in TABLE {
        if out.contains(bad) {
            out = Cow::Owned(out.replace(bad, good));
        }
    }
    out
}

/// Remove http(s)/ftp links, replacing them with nothing.
pub fn remove_links(text: &str) -> Cow<'_, str> {
    // Every link token holds "://" or "ww.".
    let marker = |x: u8, y: u8, z: u8| {
        ((x == b':') & (y == b'/') & (z == b'/')) | ((x == b'w') & (y == b'w') & (z == b'.'))
    };
    if find_window(text.as_bytes(), 0, marker).is_none() {
        return Cow::Borrowed(text);
    }
    remove_tokens(text, |tok| {
        tok.starts_with("http://")
            || tok.starts_with("https://")
            || tok.starts_with("ftp://")
            || tok.starts_with("www.")
    })
}

/// Remove email addresses (token contains '@' with a dot after it).
pub fn remove_emails(text: &str) -> Cow<'_, str> {
    if !text.as_bytes().contains(&b'@') {
        return Cow::Borrowed(text);
    }
    remove_tokens(text, |tok| {
        if !tok.as_bytes().contains(&b'@') {
            return false;
        }
        let t = tok.trim_matches(|c: char| !c.is_alphanumeric() && c != '@' && c != '.');
        match t.split_once('@') {
            Some((user, host)) => !user.is_empty() && host.contains('.') && !host.ends_with('.'),
            None => false,
        }
    })
}

/// Remove IPv4-looking tokens.
pub fn remove_ips(text: &str) -> Cow<'_, str> {
    // An IPv4 token holds a digit, a dot and a digit in a row.
    let dotted = |x: u8, y: u8, z: u8| x.is_ascii_digit() & (y == b'.') & z.is_ascii_digit();
    if find_window(text.as_bytes(), 0, dotted).is_none() {
        return Cow::Borrowed(text);
    }
    remove_tokens(text, |tok| {
        let t = tok.trim_matches(|c: char| !c.is_ascii_digit() && c != '.');
        let mut parts = 0;
        for p in t.split('.') {
            parts += 1;
            if parts > 4 || p.is_empty() || p.len() > 3 || !p.bytes().all(|b| b.is_ascii_digit()) {
                return false;
            }
        }
        parts == 4
    })
}

/// Remove words longer than `max_chars` characters (the
/// `remove_long_words_mapper`); words are the pieces between spaces and
/// newlines.
pub fn remove_long_words(text: &str, max_chars: usize) -> Cow<'_, str> {
    // A word of at most `max_chars` bytes has at most `max_chars` chars.
    if !has_token_longer_than(text.as_bytes(), max_chars) {
        return Cow::Borrowed(text);
    }
    remove_tokens(text, |w| {
        w.len() > max_chars && w.chars().count() > max_chars
    })
}

/// Whether some space/newline-separated token of `b` is longer than `max`
/// bytes.
fn has_token_longer_than(b: &[u8], max: usize) -> bool {
    let sep = |c: u8| (c == b' ') | (c == b'\n');
    // A run of 31 or more bytes covers a whole aligned 16-byte chunk, so
    // when every such chunk holds a separator no token exceeds 30 bytes.
    if max >= 30
        && b.chunks_exact(16)
            .all(|chunk| chunk.iter().fold(false, |any, &c| any | sep(c)))
    {
        return false;
    }
    let mut run = 0usize;
    b.iter().any(|&c| {
        run = if sep(c) { 0 } else { run + 1 };
        run > max
    })
}

/// Drop every space/newline-separated token `pred` matches, keeping the
/// line structure: the kept tokens of each line are joined by one space.
fn remove_tokens(text: &str, pred: impl Fn(&str) -> bool) -> Cow<'_, str> {
    if !text.split(['\n', ' ']).any(&pred) {
        return Cow::Borrowed(text);
    }
    // A dropped token is never empty, so the text got shorter.
    let mut out = String::with_capacity(text.len());
    for (i, line) in text.split('\n').enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let mut first = true;
        for tok in line.split(' ') {
            if pred(tok) {
                continue;
            }
            if !first {
                out.push(' ');
            }
            first = false;
            out.push_str(tok);
        }
    }
    Cow::Owned(out)
}

/// Strip LaTeX preamble/headers: drops everything before `\begin{document}`
/// (if present), removes comment lines and common header commands
/// (the `remove_header_mapper` for LaTeX sources).
pub fn strip_latex_header(text: &str) -> String {
    let body = match text.find("\\begin{document}") {
        Some(pos) => &text[pos + "\\begin{document}".len()..],
        None => text,
    };
    let mut out = String::with_capacity(body.len());
    for line in body.split('\n') {
        let trimmed = line.trim_start();
        if trimmed.starts_with('%') {
            continue;
        }
        if trimmed.starts_with("\\documentclass")
            || trimmed.starts_with("\\usepackage")
            || trimmed.starts_with("\\end{document}")
        {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out.trim().to_string()
}

/// Strip HTML tags, unescaping the few common entities, then normalize
/// whitespace.
pub fn strip_html(text: &str) -> Cow<'_, str> {
    if find_window(text.as_bytes(), 0, |x, _, _| (x == b'<') | (x == b'&')).is_none() {
        // No tag and no entity: only the whitespace pass can change it.
        return normalize_whitespace(text);
    }
    let stripped = strip_tags(text);
    let normalized = match normalize_whitespace(&stripped) {
        Cow::Owned(s) => Some(s),
        Cow::Borrowed(_) => None,
    };
    let out = normalized.unwrap_or(stripped);
    // An unknown entity can come back as it was.
    if out == text {
        Cow::Borrowed(text)
    } else {
        Cow::Owned(out)
    }
}

/// Drop `<...>` tags (each leaves a space unless one is already there) and
/// decode `&amp;`, `&lt;`, `&gt;`, `&quot;`, `&nbsp;` and `&#39;`. Any
/// other entity of up to six `[A-Za-z0-9#]` bytes is kept without its `;`.
fn strip_tags(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'<' => {
                let Some(close) = b[i..].iter().position(|&c| c == b'>') else {
                    break; // an unclosed tag runs to the end
                };
                i += close + 1;
                // Tags often imply breaks; preserve word separation.
                if !out.ends_with(' ') && !out.ends_with('\n') && !out.is_empty() {
                    out.push(' ');
                }
            }
            b'&' => {
                let mut end = i + 1;
                let mut matched = false;
                for _ in 0..6 {
                    match b.get(end) {
                        Some(&e) if e.is_ascii_alphanumeric() || e == b'#' => end += 1,
                        Some(b';') => {
                            matched = true;
                            break;
                        }
                        _ => break,
                    }
                }
                let entity = &text[i..end];
                i = if matched { end + 1 } else { end };
                match (matched, entity) {
                    (true, "&amp") => out.push('&'),
                    (true, "&lt") => out.push('<'),
                    (true, "&gt") => out.push('>'),
                    (true, "&quot") => out.push('"'),
                    (true, "&nbsp") => out.push(' '),
                    (true, "&#39") => out.push('\''),
                    _ => out.push_str(entity),
                }
            }
            _ => {
                let run = b[i..].iter().position(|&c| c == b'<' || c == b'&');
                let end = run.map_or(b.len(), |r| i + r);
                out.push_str(&text[i..end]);
                i = end;
            }
        }
    }
    out
}

/// Remove code comments (`//`, `#`, `/* */`) — `remove_comments_mapper`.
pub fn strip_code_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_block = false;
    for line in text.split('\n') {
        let mut kept = String::with_capacity(line.len());
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            if in_block {
                if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    in_block = false;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                in_block = true;
                i += 2;
                continue;
            }
            if bytes[i] == '/' && bytes.get(i + 1) == Some(&'/') {
                break;
            }
            if bytes[i] == '#' {
                break;
            }
            kept.push(bytes[i]);
            i += 1;
        }
        if !kept.trim().is_empty() {
            out.push_str(kept.trim_end());
            out.push('\n');
        }
    }
    out.trim_end().to_string()
}

/// Deduplicate consecutive identical lines (boilerplate collapse).
pub fn dedup_consecutive_lines(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut prev: Option<&str> = None;
    for line in text.split('\n') {
        if prev == Some(line) && !line.trim().is_empty() {
            continue;
        }
        if prev.is_some() {
            out.push('\n');
        }
        out.push_str(line);
        prev = Some(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_collapses_runs() {
        assert_eq!(normalize_whitespace("a   b\t\tc"), "a b c");
        assert_eq!(normalize_whitespace("a\r\nb\rc"), "a\nb\nc");
        assert_eq!(normalize_whitespace("a\n\n\n\nb"), "a\n\nb");
        assert_eq!(normalize_whitespace("  leading"), "leading");
        assert_eq!(normalize_whitespace(""), "");
    }

    #[test]
    fn punctuation_normalized() {
        assert_eq!(normalize_punctuation("“quote”—and…"), "\"quote\"-and.");
        assert_eq!(normalize_punctuation("你好。"), "你好.");
    }

    #[test]
    fn mojibake_fixed() {
        assert_eq!(fix_mojibake("donâ€™t"), "don't");
        assert_eq!(fix_mojibake("cafÃ©"), "café");
        assert_eq!(fix_mojibake("clean text"), "clean text");
    }

    #[test]
    fn links_removed() {
        assert_eq!(
            remove_links("see https://example.com/page for info"),
            "see for info"
        );
        assert_eq!(remove_links("no links here"), "no links here");
    }

    #[test]
    fn emails_removed() {
        assert_eq!(
            remove_emails("mail me at bob@example.com today"),
            "mail me at today"
        );
        assert_eq!(remove_emails("not@anemail"), "not@anemail");
        assert_eq!(remove_emails("a @ b"), "a @ b");
    }

    #[test]
    fn ips_removed() {
        assert_eq!(remove_ips("server at 192.168.0.1 down"), "server at down");
        assert_eq!(remove_ips("version 1.2.3 ok"), "version 1.2.3 ok");
    }

    #[test]
    fn latex_header_stripped() {
        let src = "\\documentclass{article}\n\\usepackage{amsmath}\n% comment\n\\begin{document}\nBody text.\n\\end{document}";
        assert_eq!(strip_latex_header(src), "Body text.");
        assert_eq!(strip_latex_header("plain text"), "plain text");
    }

    #[test]
    fn html_stripped_and_entities_unescaped() {
        assert_eq!(
            strip_html("<p>Hello &amp; <b>world</b></p>"),
            "Hello & world"
        );
        assert_eq!(strip_html("a &lt; b"), "a < b");
        assert_eq!(strip_html("no tags"), "no tags");
    }

    #[test]
    fn code_comments_stripped() {
        let src = "let x = 1; // count\n# python note\ncode(); /* block\nstill block */ more();";
        let out = strip_code_comments(src);
        assert!(out.contains("let x = 1;"));
        assert!(!out.contains("count"));
        assert!(!out.contains("python"));
        assert!(out.contains("more();"));
        assert!(!out.contains("block"));
    }

    #[test]
    fn consecutive_line_dedup() {
        assert_eq!(dedup_consecutive_lines("a\na\nb\na"), "a\nb\na");
        assert_eq!(dedup_consecutive_lines("\n\n"), "\n\n"); // blank lines kept
    }
}
