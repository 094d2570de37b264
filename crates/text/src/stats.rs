//! Per-sample text statistics backing the Filter OPs and the analyzer's
//! default 13 dimensions (paper §4.2: "the summary of per-sample statistics
//! covers 13 dimensions ... sample perplexity, word count, flagged word
//! percentage, and paragraph length, among others").

use std::borrow::Cow;

use dj_core::word_spans;
use dj_hash::{FxHashMap, FxHashSet};

use crate::table::U64Table;

/// Ratio of alphanumeric characters to all characters (0 for empty text).
pub fn alnum_ratio(text: &str) -> f64 {
    ratio(text, |c| c.is_alphanumeric())
}

/// Ratio of "special" characters: neither alphanumeric, whitespace, nor
/// common punctuation.
pub fn special_char_ratio(text: &str) -> f64 {
    ratio(text, |c| {
        !(c.is_alphanumeric()
            || c.is_whitespace()
            || matches!(
                c,
                '.' | ','
                    | '!'
                    | '?'
                    | ';'
                    | ':'
                    | '\''
                    | '"'
                    | '-'
                    | '('
                    | ')'
                    | '。'
                    | '，'
                    | '！'
                    | '？'
                    | '；'
                    | '：'
            ))
    })
}

/// Ratio of whitespace characters.
pub fn whitespace_ratio(text: &str) -> f64 {
    ratio(text, char::is_whitespace)
}

/// Ratio of uppercase among alphabetic characters.
pub fn uppercase_ratio(text: &str) -> f64 {
    let (mut upper, mut alpha) = (0usize, 0usize);
    for c in text.chars() {
        if c.is_alphabetic() {
            alpha += 1;
            if c.is_uppercase() {
                upper += 1;
            }
        }
    }
    if alpha == 0 {
        0.0
    } else {
        upper as f64 / alpha as f64
    }
}

/// Ratio of digit characters.
pub fn digit_ratio(text: &str) -> f64 {
    ratio(text, |c| c.is_ascii_digit())
}

fn ratio(text: &str, pred: impl Fn(char) -> bool) -> f64 {
    let mut total = 0usize;
    let mut hits = 0usize;
    for c in text.chars() {
        total += 1;
        if pred(c) {
            hits += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Character-level n-gram repetition ratio: fraction of n-gram occurrences
/// belonging to n-grams that appear more than once. High values indicate
/// boilerplate/spam (mirrors `character_repetition_filter`).
pub fn char_rep_ratio(text: &str, n: usize) -> f64 {
    let windows = CharWindows::new(text);
    if windows.chars() < n || n == 0 {
        return 0.0;
    }
    let total = windows.chars() + 1 - n;
    let mut counts = U64Table::with_capacity(total);
    windows.for_each(n, |gram| *counts.slot(dj_hash::hash64(gram)) += 1);
    repeated_share(&counts, total)
}

/// Share of the `total` counted occurrences whose key occurs more than once.
fn repeated_share(counts: &U64Table, total: usize) -> f64 {
    let repeated: u64 = counts.values().filter(|&c| c > 1).map(u64::from).sum();
    repeated as f64 / total as f64
}

/// Windows of `n` consecutive characters of a text, handed out as byte
/// slices of the text itself: the bytes of each window are exactly the
/// UTF-8 of those characters, so hashing a slice equals hashing a `String`
/// built from the window. ASCII text needs no char boundary table.
pub(crate) struct CharWindows<'a> {
    text: &'a str,
    /// Byte offset of every char plus the end; `None` for ASCII text.
    bounds: Option<Vec<usize>>,
}

impl<'a> CharWindows<'a> {
    pub(crate) fn new(text: &'a str) -> CharWindows<'a> {
        let bounds = (!text.is_ascii()).then(|| {
            text.char_indices()
                .map(|(i, _)| i)
                .chain(std::iter::once(text.len()))
                .collect()
        });
        CharWindows { text, bounds }
    }

    /// Number of characters in the text.
    pub(crate) fn chars(&self) -> usize {
        self.bounds
            .as_ref()
            .map_or(self.text.len(), |b| b.len() - 1)
    }

    /// Call `f` on every window of `n` characters, in text order.
    #[inline]
    pub(crate) fn for_each(&self, n: usize, mut f: impl FnMut(&'a [u8])) {
        let bytes = self.text.as_bytes();
        if n == 0 || self.chars() < n {
            return;
        }
        match &self.bounds {
            None => bytes.windows(n).for_each(f),
            Some(b) => {
                for i in 0..b.len() - n {
                    f(&bytes[b[i]..b[i + n]]);
                }
            }
        }
    }
}

/// Word-level n-gram repetition ratio (mirrors `word_repetition_filter`,
/// the `rep_len` parameter of the paper's Fig. 5 recipe).
pub fn word_rep_ratio(words: &[&str], n: usize) -> f64 {
    if words.len() < n || n == 0 {
        return 0.0;
    }
    let total = words.len() + 1 - n;
    let mut counts = U64Table::with_capacity(total);
    let mut buf = String::new();
    for win in words.windows(n) {
        buf.clear();
        for w in win {
            buf.push_str(w);
            buf.push('\u{1}');
        }
        *counts.slot(dj_hash::hash64(buf.as_bytes())) += 1;
    }
    repeated_share(&counts, total)
}

/// Mean line length in characters (0 for empty text).
pub fn avg_line_length(lines: &[String]) -> f64 {
    if lines.is_empty() {
        return 0.0;
    }
    lines.iter().map(|l| l.chars().count()).sum::<usize>() as f64 / lines.len() as f64
}

/// Longest line length in characters.
pub fn max_line_length(lines: &[String]) -> f64 {
    lines.iter().map(|l| l.chars().count()).max().unwrap_or(0) as f64
}

/// Mean word length in characters.
pub fn avg_word_length(words: &[&str]) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    words.iter().map(|w| w.chars().count()).sum::<usize>() as f64 / words.len() as f64
}

/// Fraction of words found in `lexicon` (case-insensitive). Backs both the
/// stopword-ratio filter (fluency signal) and the flagged-words filter
/// (toxicity signal).
pub fn lexicon_ratio(words: &[&str], lexicon: &FxHashSet<String>) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    let hits = words
        .iter()
        .filter(|w| lexicon.contains(lowercase(w).as_ref()))
        .count();
    hits as f64 / words.len() as f64
}

/// `word.to_lowercase()`, borrowing when that would be a copy: a word with
/// no uppercase ASCII and no non-ASCII byte is already lowercase.
pub(crate) fn lowercase(word: &str) -> Cow<'_, str> {
    if word
        .bytes()
        .any(|b| b.is_ascii_uppercase() || !b.is_ascii())
    {
        Cow::Owned(word.to_lowercase())
    } else {
        Cow::Borrowed(word)
    }
}

/// Count of paragraphs (blank-line separated blocks).
pub fn paragraph_count(text: &str) -> usize {
    text.split("\n\n").filter(|p| !p.trim().is_empty()).count()
}

/// Shannon entropy (bits) of the word distribution — the analyzer's
/// linguistic-diversity dimension.
pub fn word_entropy(words: &[&str]) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    let mut counts: FxHashMap<&str, u32> = FxHashMap::default();
    for w in words {
        *counts.entry(*w).or_insert(0) += 1;
    }
    let n = words.len() as f64;
    -counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Convenience: word count of raw text.
pub fn word_count(text: &str) -> usize {
    word_spans(text).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> Vec<&str> {
        word_spans(s).map(|r| &s[r]).collect()
    }

    #[test]
    fn ratios_on_empty_text_are_zero() {
        assert_eq!(alnum_ratio(""), 0.0);
        assert_eq!(special_char_ratio(""), 0.0);
        assert_eq!(whitespace_ratio(""), 0.0);
        assert_eq!(uppercase_ratio(""), 0.0);
        assert_eq!(digit_ratio(""), 0.0);
    }

    #[test]
    fn alnum_ratio_mixed() {
        // "ab12##" → 4 alnum of 6 chars
        assert!((alnum_ratio("ab12##") - 4.0 / 6.0).abs() < 1e-9);
        assert_eq!(alnum_ratio("abcd"), 1.0);
    }

    #[test]
    fn special_chars_detected() {
        assert_eq!(special_char_ratio("hello world."), 0.0);
        assert!(special_char_ratio("░▒▓█▓▒░") > 0.9);
    }

    #[test]
    fn uppercase_ratio_ignores_non_alpha() {
        assert!((uppercase_ratio("AbC1!") - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn char_rep_detects_spam() {
        let clean = "every word here differs from neighbours around";
        let spam = "buy now buy now buy now buy now buy now buy now";
        assert!(char_rep_ratio(spam, 5) > char_rep_ratio(clean, 5) + 0.3);
        assert_eq!(char_rep_ratio("", 5), 0.0);
        assert_eq!(char_rep_ratio("ab", 5), 0.0);
    }

    #[test]
    fn word_rep_detects_repeated_ngrams() {
        let clean = w("the quick brown fox jumps over a lazy dog today");
        let spam = w("click here click here click here click here");
        assert_eq!(word_rep_ratio(&clean, 2), 0.0);
        assert!(word_rep_ratio(&spam, 2) > 0.7);
        assert_eq!(word_rep_ratio(&[], 2), 0.0);
    }

    #[test]
    fn line_stats() {
        let lines: Vec<String> = vec!["ab".into(), "abcd".into(), "".into()];
        assert!((avg_line_length(&lines) - 2.0).abs() < 1e-9);
        assert_eq!(max_line_length(&lines), 4.0);
        assert_eq!(avg_line_length(&[]), 0.0);
        assert_eq!(max_line_length(&[]), 0.0);
    }

    #[test]
    fn lexicon_ratio_case_insensitive() {
        let mut lex = FxHashSet::default();
        lex.insert("the".to_string());
        lex.insert("a".to_string());
        let words = w("The cat saw a dog");
        assert!((lexicon_ratio(&words, &lex) - 2.0 / 5.0).abs() < 1e-9);
        assert_eq!(lexicon_ratio(&[], &lex), 0.0);
    }

    #[test]
    fn paragraph_count_skips_blank_blocks() {
        assert_eq!(paragraph_count("a\n\nb\n\n\n\nc"), 3);
        assert_eq!(paragraph_count(""), 0);
        assert_eq!(paragraph_count("single paragraph"), 1);
    }

    #[test]
    fn entropy_higher_for_diverse_text() {
        let diverse = w("alpha beta gamma delta epsilon zeta eta theta");
        let repetitive = w("spam spam spam spam spam spam spam spam");
        assert!(word_entropy(&diverse) > 2.9);
        assert_eq!(word_entropy(&repetitive), 0.0);
        assert_eq!(word_entropy(&[]), 0.0);
    }

    #[test]
    fn word_count_counts_cjk_chars() {
        assert_eq!(word_count("hello world"), 2);
        assert_eq!(word_count("你好世界"), 4);
    }
}
