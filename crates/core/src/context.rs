//! Context management: shared intermediate variables across operators.
//!
//! Many OPs derive the same intermediate views from a sample's text —
//! segmented words, split lines, sentences (paper §6, "Optimized
//! Computation"). A [`SampleContext`] memoizes those views for the text they
//! were computed from, so fused operators reuse them instead of re-deriving
//! them. The context is cleared after each (fused) OP to keep memory flat.

use std::ops::Range;
use std::str::CharIndices;

/// Bit flags describing which derived views an operator consumes.
///
/// Two Filters are *fusible* when their context needs intersect (they share
/// a computation sub-procedure, paper §6 / Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContextNeeds(pub u8);

impl ContextNeeds {
    pub const NONE: ContextNeeds = ContextNeeds(0);
    pub const WORDS: ContextNeeds = ContextNeeds(1);
    pub const LINES: ContextNeeds = ContextNeeds(1 << 1);
    pub const SENTENCES: ContextNeeds = ContextNeeds(1 << 2);
    pub const CHARS: ContextNeeds = ContextNeeds(1 << 3);

    /// Union of two need sets.
    pub const fn union(self, other: ContextNeeds) -> ContextNeeds {
        ContextNeeds(self.0 | other.0)
    }

    /// True when the two need sets share at least one view.
    pub const fn intersects(self, other: ContextNeeds) -> bool {
        self.0 & other.0 != 0
    }

    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Identifies a text within one version: `(version, address, length)`.
/// A lookup with any other text recomputes instead of slicing it with
/// spans cut from a different string.
type TextKey = (u64, usize, usize);

/// Memoized per-sample derived views, keyed by a version counter that the
/// executor bumps whenever a Mapper rewrites the text.
#[derive(Debug, Default)]
pub struct SampleContext {
    version: u64,
    /// Word byte spans and the text they were cut from.
    words: Option<(TextKey, Vec<Range<usize>>)>,
    lines: Option<(u64, Vec<String>)>,
    sentences: Option<(u64, Vec<String>)>,
    /// Count of (re)computations, exposed for the context-reuse ablation.
    pub compute_count: u64,
}

impl SampleContext {
    pub fn new() -> SampleContext {
        SampleContext::default()
    }

    /// Invalidate all cached views (text was rewritten by a Mapper).
    pub fn invalidate(&mut self) {
        self.version += 1;
    }

    /// Drop cached views entirely (end of a fused OP; paper: "contexts of
    /// each sample will be cleaned up after each fused OP").
    pub fn clear(&mut self) {
        self.words = None;
        self.lines = None;
        self.sentences = None;
    }

    /// Segmented words of `text`, computed at most once per text version.
    ///
    /// Word segmentation is Unicode-alphanumeric runs; CJK characters are
    /// treated as single-character words, which matches how the paper's
    /// Chinese OPs count tokens without a whitespace convention. Only the
    /// byte spans are memoized; the returned words borrow from `text`.
    pub fn words<'t>(&mut self, text: &'t str) -> Vec<&'t str> {
        let key = (self.version, text.as_ptr() as usize, text.len());
        let spans = match &mut self.words {
            Some((k, spans)) if *k == key => spans,
            slot => {
                self.compute_count += 1;
                &slot.insert((key, word_spans(text).collect())).1
            }
        };
        spans.iter().map(|r| &text[r.clone()]).collect()
    }

    /// Lines of `text` (split on `\n`), computed at most once per version.
    pub fn lines(&mut self, text: &str) -> &[String] {
        if self.lines.as_ref().map(|(v, _)| *v) != Some(self.version) {
            self.compute_count += 1;
            self.lines = Some((self.version, text.split('\n').map(str::to_string).collect()));
        }
        match &self.lines {
            Some((_, l)) => l,
            None => &[], // unreachable: just set above
        }
    }

    /// Sentences of `text` (split on `.!?` and CJK equivalents), memoized.
    pub fn sentences(&mut self, text: &str) -> &[String] {
        if self.sentences.as_ref().map(|(v, _)| *v) != Some(self.version) {
            self.compute_count += 1;
            self.sentences = Some((self.version, segment_sentences(text)));
        }
        match &self.sentences {
            Some((_, s)) => s,
            None => &[], // unreachable: just set above
        }
    }
}

/// Unicode-aware word segmentation shared by OPs and the analyzer: the
/// words of `text` as owned strings. Collects [`word_spans`].
pub fn segment_words(text: &str) -> Vec<String> {
    word_spans(text).map(|r| text[r].to_string()).collect()
}

/// The byte spans of the words of `text`, in order — the one word
/// segmentation every view of words is cut from.
///
/// A word is a maximal run of alphanumeric characters, `_` and `'`; every
/// CJK character (see [`is_cjk`]) is a word of its own.
pub fn word_spans(text: &str) -> WordSpans<'_> {
    WordSpans {
        chars: text.char_indices(),
        len: text.len(),
        start: None,
        pending: None,
    }
}

/// Iterator returned by [`word_spans`].
#[derive(Debug, Clone)]
pub struct WordSpans<'a> {
    chars: CharIndices<'a>,
    len: usize,
    /// Start of the word being scanned, if inside one.
    start: Option<usize>,
    /// A CJK word found right after a word that ended at it.
    pending: Option<Range<usize>>,
}

impl Iterator for WordSpans<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if let Some(r) = self.pending.take() {
            return Some(r);
        }
        for (i, c) in self.chars.by_ref() {
            let in_word = if c.is_ascii() {
                c.is_ascii_alphanumeric() || c == '_' || c == '\''
            } else if is_cjk(c) {
                let cjk = i..i + c.len_utf8();
                return match self.start.take() {
                    Some(s) => {
                        self.pending = Some(cjk);
                        Some(s..i)
                    }
                    None => Some(cjk),
                };
            } else {
                c.is_alphanumeric()
            };
            if in_word {
                self.start.get_or_insert(i);
            } else if let Some(s) = self.start.take() {
                return Some(s..i);
            }
        }
        self.start.take().map(|s| s..self.len)
    }
}

/// Sentence segmentation on terminal punctuation (ASCII + CJK).
pub fn segment_sentences(text: &str) -> Vec<String> {
    let mut sents = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        cur.push(c);
        if matches!(c, '.' | '!' | '?' | '。' | '！' | '？') {
            let t = cur.trim();
            if !t.is_empty() {
                sents.push(t.to_string());
            }
            cur.clear();
        }
    }
    let t = cur.trim();
    if !t.is_empty() {
        sents.push(t.to_string());
    }
    sents
}

/// True for CJK unified ideographs and common fullwidth ranges.
pub fn is_cjk(c: char) -> bool {
    matches!(c as u32,
        0x4E00..=0x9FFF      // CJK Unified Ideographs
        | 0x3400..=0x4DBF    // Extension A
        | 0x3000..=0x303F    // CJK punctuation
        | 0xFF00..=0xFFEF    // fullwidth forms
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_memoized_until_invalidated() {
        let mut ctx = SampleContext::new();
        let text = "one two three";
        assert_eq!(ctx.words(text).len(), 3);
        assert_eq!(ctx.words(text).len(), 3);
        assert_eq!(ctx.compute_count, 1);
        ctx.invalidate();
        assert_eq!(ctx.words("four five").len(), 2);
        assert_eq!(ctx.compute_count, 2);
    }

    #[test]
    fn segment_words_handles_cjk_and_contractions() {
        assert_eq!(segment_words("don't stop"), vec!["don't", "stop"]);
        assert_eq!(segment_words("数据处理"), vec!["数", "据", "处", "理"]);
        assert_eq!(
            segment_words("mix 数据 end"),
            vec!["mix", "数", "据", "end"]
        );
        assert_eq!(segment_words(""), Vec::<String>::new());
        assert_eq!(segment_words("  ,,  "), Vec::<String>::new());
    }

    #[test]
    fn segment_sentences_splits_on_terminals() {
        let s = segment_sentences("One. Two! Three? Four");
        assert_eq!(s, vec!["One.", "Two!", "Three?", "Four"]);
        let zh = segment_sentences("第一句。第二句！");
        assert_eq!(zh, vec!["第一句。", "第二句！"]);
    }

    #[test]
    fn needs_set_operations() {
        let wl = ContextNeeds::WORDS.union(ContextNeeds::LINES);
        assert!(wl.intersects(ContextNeeds::WORDS));
        assert!(wl.intersects(ContextNeeds::LINES));
        assert!(!wl.intersects(ContextNeeds::SENTENCES));
        assert!(!ContextNeeds::NONE.intersects(wl));
        assert!(ContextNeeds::NONE.is_empty());
    }

    #[test]
    fn clear_forces_recompute() {
        let mut ctx = SampleContext::new();
        ctx.words("a b");
        ctx.clear();
        ctx.words("a b");
        assert_eq!(ctx.compute_count, 2);
    }
}
