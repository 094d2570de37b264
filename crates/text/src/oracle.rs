//! Reference implementations the allocation-free text kernels replaced,
//! kept as test oracles. The property tests below assert `to_bits`-equal
//! statistics and identical language predictions on random text heavy in
//! CJK, emoji, combining marks, case-changing letters, control characters
//! and Unicode whitespace, and byte-identical normalization output (with
//! `Borrowed` exactly when the text is unchanged) on random and mutated
//! text dense in the bytes the cleaning kernels react to.

use proptest::prelude::*;

use dj_core::segment_words;
use dj_hash::{hash64, FxHashSet};

use std::borrow::Cow;

use crate::lexicon;
use crate::normalize;
use crate::stats;

/// Pre-change stats kernels: per-window `String`s and `&[String]` words.
mod reference_stats {
    use dj_hash::{FxHashMap, FxHashSet};

    /// Character-level n-gram repetition ratio: fraction of n-gram occurrences
    /// belonging to n-grams that appear more than once. High values indicate
    /// boilerplate/spam (mirrors `character_repetition_filter`).
    pub fn char_rep_ratio(text: &str, n: usize) -> f64 {
        let chars: Vec<char> = text.chars().collect();
        if chars.len() < n || n == 0 {
            return 0.0;
        }
        let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
        let mut buf = String::with_capacity(n * 4);
        for win in chars.windows(n) {
            buf.clear();
            buf.extend(win.iter());
            *counts.entry(dj_hash::hash64(buf.as_bytes())).or_insert(0) += 1;
        }
        let total: u64 = counts.values().map(|&c| c as u64).sum();
        let repeated: u64 = counts.values().filter(|&&c| c > 1).map(|&c| c as u64).sum();
        repeated as f64 / total as f64
    }

    /// Word-level n-gram repetition ratio (mirrors `word_repetition_filter`,
    /// the `rep_len` parameter of the paper's Fig. 5 recipe).
    pub fn word_rep_ratio(words: &[String], n: usize) -> f64 {
        if words.len() < n || n == 0 {
            return 0.0;
        }
        let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
        let mut buf = String::new();
        for win in words.windows(n) {
            buf.clear();
            for w in win {
                buf.push_str(w);
                buf.push('\u{1}');
            }
            *counts.entry(dj_hash::hash64(buf.as_bytes())).or_insert(0) += 1;
        }
        let total: u64 = counts.values().map(|&c| c as u64).sum();
        let repeated: u64 = counts.values().filter(|&&c| c > 1).map(|&c| c as u64).sum();
        repeated as f64 / total as f64
    }

    /// Mean word length in characters.
    pub fn avg_word_length(words: &[String]) -> f64 {
        if words.is_empty() {
            return 0.0;
        }
        words.iter().map(|w| w.chars().count()).sum::<usize>() as f64 / words.len() as f64
    }

    /// Fraction of words found in `lexicon` (case-insensitive). Backs both the
    /// stopword-ratio filter (fluency signal) and the flagged-words filter
    /// (toxicity signal).
    pub fn lexicon_ratio(words: &[String], lexicon: &FxHashSet<String>) -> f64 {
        if words.is_empty() {
            return 0.0;
        }
        let hits = words
            .iter()
            .filter(|w| lexicon.contains(&w.to_lowercase()))
            .count();
        hits as f64 / words.len() as f64
    }

    /// Shannon entropy (bits) of the word distribution — the analyzer's
    /// linguistic-diversity dimension.
    pub fn word_entropy(words: &[String]) -> f64 {
        if words.is_empty() {
            return 0.0;
        }
        let mut counts: FxHashMap<&str, u32> = FxHashMap::default();
        for w in words {
            *counts.entry(w.as_str()).or_insert(0) += 1;
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
}

/// The per-label-map language-id model.
mod reference_langid {
    use super::super::langid::{SEED_CODE, SEED_EN, SEED_ZH};
    use dj_hash::{hash64, FxHashMap};

    /// A trained language-identification model.
    #[derive(Debug, Clone)]
    pub struct LangIdModel {
        labels: Vec<String>,
        /// per-label: hashed n-gram → log count
        log_probs: Vec<FxHashMap<u64, f64>>,
        /// per-label smoothing floor
        floors: Vec<f64>,
        priors: Vec<f64>,
    }

    impl LangIdModel {
        /// Train from `(label, corpus)` pairs.
        pub fn train(data: &[(&str, Vec<String>)]) -> LangIdModel {
            let mut labels = Vec::new();
            let mut log_probs = Vec::new();
            let mut floors = Vec::new();
            for (label, corpus) in data {
                let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
                let mut total = 0u64;
                for doc in corpus {
                    for g in char_ngrams(doc, 3) {
                        *counts.entry(g).or_insert(0) += 1;
                        total += 1;
                    }
                }
                let denom = (total + counts.len() as u64 + 1) as f64;
                let lp: FxHashMap<u64, f64> = counts
                    .into_iter()
                    .map(|(g, c)| (g, ((c + 1) as f64 / denom).ln()))
                    .collect();
                labels.push(label.to_string());
                log_probs.push(lp);
                floors.push((1.0 / denom).ln());
            }
            let prior = (1.0 / labels.len() as f64).ln();
            let priors = vec![prior; labels.len()];
            LangIdModel {
                labels,
                log_probs,
                floors,
                priors,
            }
        }

        /// The built-in model: English / Chinese / code, trained on small seed
        /// profiles embedded in the crate. Good enough to separate the three
        /// classes the paper's recipes dispatch on ("EN", "ZH", code files).
        pub fn builtin() -> LangIdModel {
            let en: Vec<String> = SEED_EN.iter().map(|s| s.to_string()).collect();
            let zh: Vec<String> = SEED_ZH.iter().map(|s| s.to_string()).collect();
            let code: Vec<String> = SEED_CODE.iter().map(|s| s.to_string()).collect();
            LangIdModel::train(&[("en", en), ("zh", zh), ("code", code)])
        }

        /// Classify text: returns `(label, confidence)` with confidence the
        /// softmax-normalized posterior of the winning label.
        pub fn classify(&self, text: &str) -> (String, f64) {
            if text.trim().is_empty() {
                return ("unknown".to_string(), 0.0);
            }
            // Cheap structural prior: overwhelmingly-CJK text is Chinese. This
            // mirrors fastText's near-certain score on unambiguous scripts and
            // keeps the n-gram model focused on the hard (latin vs code) cases.
            let grams: Vec<u64> = char_ngrams(text, 3).collect();
            let mut scores: Vec<f64> = self.priors.clone();
            for (i, lp) in self.log_probs.iter().enumerate() {
                for g in &grams {
                    scores[i] += lp.get(g).copied().unwrap_or(self.floors[i]);
                }
                // Length-normalize so confidence is comparable across texts.
                scores[i] /= grams.len().max(1) as f64;
            }
            let (best, &best_score) = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
                .expect("at least one label");
            // Softmax over length-normalized log scores.
            let z: f64 = scores.iter().map(|s| (s - best_score).exp()).sum();
            (self.labels[best].clone(), 1.0 / z)
        }

        /// Confidence that `text` is language `label` (0 when label unknown).
        pub fn score_for(&self, text: &str, label: &str) -> f64 {
            let (pred, conf) = self.classify(text);
            if pred == label {
                conf
            } else {
                // Return the complement mass spread over other labels; cheap but
                // monotone enough for threshold filters.
                (1.0 - conf) / (self.labels.len().max(2) - 1) as f64
            }
        }
    }

    /// Iterator over hashed character n-grams (orders 1..=max_order).
    fn char_ngrams(text: &str, max_order: usize) -> impl Iterator<Item = u64> + '_ {
        let chars: Vec<char> = text
            .chars()
            .map(|c| {
                if c.is_whitespace() {
                    ' '
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect();
        let mut out = Vec::with_capacity(chars.len() * max_order);
        let mut buf = String::with_capacity(max_order * 4);
        for order in 1..=max_order {
            if chars.len() < order {
                break;
            }
            for win in chars.windows(order) {
                buf.clear();
                buf.extend(win.iter());
                out.push(hash64(buf.as_bytes()));
            }
        }
        out.into_iter()
    }
}

/// The `Vec<String>` n-gram model.
mod reference_ngram {
    use dj_core::segment_words;
    use dj_hash::{hash64, FxHashMap};

    /// Interpolated n-gram LM over hashed word contexts.
    #[derive(Debug, Clone)]
    pub struct NgramModel {
        order: usize,
        /// counts[k]: (hashed k+1-gram) → count, k in 0..order
        counts: Vec<FxHashMap<u64, u32>>,
        /// context_counts[k]: hashed k-gram context → count
        context_counts: Vec<FxHashMap<u64, u32>>,
        vocab_size: usize,
        /// Jelinek-Mercer interpolation weight per order (higher order first).
        lambda: f64,
        add_k: f64,
    }

    const BOS: &str = "\u{2}bos";

    impl NgramModel {
        /// Train an `order`-gram model on the corpus (words lowercased).
        pub fn train<S: AsRef<str>>(corpus: &[S], order: usize) -> NgramModel {
            assert!(order >= 1, "order must be >= 1");
            let mut counts = vec![FxHashMap::default(); order];
            let mut context_counts = vec![FxHashMap::default(); order];
            let mut vocab = dj_hash::FxHashSet::default();
            for doc in corpus {
                let mut words: Vec<String> = Vec::with_capacity(32);
                for _ in 0..order - 1 {
                    words.push(BOS.to_string());
                }
                words.extend(
                    segment_words(doc.as_ref())
                        .into_iter()
                        .map(|w| w.to_lowercase()),
                );
                for w in &words {
                    if w != BOS {
                        vocab.insert(hash64(w.as_bytes()));
                    }
                }
                for k in 0..order {
                    let n = k + 1;
                    if words.len() < n {
                        continue;
                    }
                    for win in words.windows(n) {
                        let g = gram_key(win);
                        *counts[k].entry(g).or_insert(0) += 1;
                        let c = gram_key(&win[..n - 1]);
                        *context_counts[k].entry(c).or_insert(0) += 1;
                    }
                }
            }
            NgramModel {
                order,
                counts,
                context_counts,
                vocab_size: vocab.len().max(1),
                lambda: 0.75,
                add_k: 0.1,
            }
        }

        pub fn vocab_size(&self) -> usize {
            self.vocab_size
        }

        /// Smoothed probability of `word` following `context` at a given order.
        fn order_prob(&self, k: usize, window: &[String]) -> f64 {
            let n = k + 1;
            let gram = gram_key(&window[window.len() - n..]);
            let ctx = gram_key(&window[window.len() - n..window.len() - 1]);
            let c = *self.counts[k].get(&gram).unwrap_or(&0) as f64;
            let cc = *self.context_counts[k].get(&ctx).unwrap_or(&0) as f64;
            (c + self.add_k) / (cc + self.add_k * self.vocab_size as f64)
        }

        /// Interpolated log2-probability of one word given its full context.
        fn word_log2p(&self, window: &[String]) -> f64 {
            let mut p = 0.0;
            let mut weight = 1.0;
            for k in (0..self.order).rev() {
                let w = if k == 0 { weight } else { weight * self.lambda };
                p += w * self.order_prob(k, window);
                weight *= 1.0 - self.lambda;
            }
            p.max(1e-12).log2()
        }

        /// Per-word perplexity of `text` under the model. Empty text returns
        /// `f64::INFINITY` so filters treat it as maximally surprising.
        pub fn perplexity(&self, text: &str) -> f64 {
            let mut words: Vec<String> = Vec::with_capacity(32);
            for _ in 0..self.order - 1 {
                words.push(BOS.to_string());
            }
            let body: Vec<String> = segment_words(text)
                .into_iter()
                .map(|w| w.to_lowercase())
                .collect();
            if body.is_empty() {
                return f64::INFINITY;
            }
            words.extend(body);
            let n_scored = words.len() - (self.order - 1);
            let mut log2p = 0.0;
            for i in self.order - 1..words.len() {
                let lo = i + 1 - self.order;
                log2p += self.word_log2p(&words[lo..=i]);
            }
            (-log2p / n_scored as f64).exp2()
        }
    }

    fn gram_key(words: &[String]) -> u64 {
        let mut key = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            key = key.rotate_left(13).wrapping_mul(0x0100_0000_01b3) ^ hash64(w.as_bytes());
        }
        key
    }
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
}

/// Words and characters the generators draw from. Short repeated words
/// make repetition ratios non-trivial; the lexicon words exercise the
/// stopword, flagged-word and verb/noun paths, in mixed case.
const WORDS: &[&str] = &[
    "the",
    "The",
    "THE",
    "a",
    "of",
    "and",
    "casino",
    "Casino",
    "write",
    "Write",
    "story",
    "plan",
    "explain",
    "data",
    "model",
    "buy",
    "now",
    "don't",
    "x_y",
    "42",
    "数据",
    "処理",
    "Ａｂｃ",
    "İstanbul",
    "ΣΙΣΥΦΟΣ",
    "straße",
    "café",
    "cafe\u{301}",
    "ǅemal",
    "😀",
    "👍\u{1f3fd}",
];
const SEPARATORS: &[&str] = &[
    " ", " ", " ", ", ", ". ", "\n", "\t", "\r\n", "\u{a0}", "\u{3000}", "\u{2028}", "\u{85}",
    "\u{1}", "\u{7f}", "-", "—", "。", "",
];

fn gen_text(g: &mut Gen, max_words: usize) -> String {
    let n = g.below(max_words + 1);
    let mut out = String::new();
    for _ in 0..n {
        out.push_str(WORDS[g.below(WORDS.len())]);
        out.push_str(SEPARATORS[g.below(SEPARATORS.len())]);
    }
    out
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn repetition_ratios_are_bit_identical(seed in any::<u64>()) {
        let text = gen_text(&mut Gen(seed), 40);
        let owned = segment_words(&text);
        let words: Vec<&str> = owned.iter().map(String::as_str).collect();
        for n in [1, 2, 3, 5, 10] {
            prop_assert_eq!(
                bits(stats::char_rep_ratio(&text, n)),
                bits(reference_stats::char_rep_ratio(&text, n)),
                "char_rep_ratio n={} on {:?}", n, text
            );
            prop_assert_eq!(
                bits(stats::word_rep_ratio(&words, n)),
                bits(reference_stats::word_rep_ratio(&owned, n)),
                "word_rep_ratio n={} on {:?}", n, text
            );
        }
    }

    #[test]
    fn word_stats_are_bit_identical(seed in any::<u64>()) {
        let text = gen_text(&mut Gen(seed), 40);
        let owned = segment_words(&text);
        let words: Vec<&str> = owned.iter().map(String::as_str).collect();
        // Every generator word, lowercased: non-ASCII entries make the
        // lowercase step observable beyond ASCII.
        let all: FxHashSet<String> = WORDS.iter().map(|w| w.to_lowercase()).collect();
        for lex in [lexicon::english_stopwords(), lexicon::flagged_words(), all] {
            prop_assert_eq!(
                bits(stats::lexicon_ratio(&words, &lex)),
                bits(reference_stats::lexicon_ratio(&owned, &lex)),
                "lexicon_ratio on {:?}", text
            );
        }
        prop_assert_eq!(
            bits(stats::avg_word_length(&words)),
            bits(reference_stats::avg_word_length(&owned))
        );
        prop_assert_eq!(
            bits(stats::word_entropy(&words)),
            bits(reference_stats::word_entropy(&owned))
        );
        let (verbs, nouns) = (lexicon::common_verbs(), lexicon::common_nouns());
        prop_assert_eq!(
            lexicon::verb_noun_pairs(&words, &verbs, &nouns),
            reference_verb_noun_pairs(&owned, &verbs, &nouns)
        );
    }

    #[test]
    fn langid_predictions_are_bit_identical(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let text = gen_text(&mut g, 30);
        let (new, old) = builtin_models();
        let (nl, nc) = new.classify(&text);
        let (ol, oc) = old.classify(&text);
        prop_assert_eq!((nl, bits(nc)), (ol, bits(oc)), "classify on {:?}", text);
        for label in ["en", "zh", "code", "unknown", "xx"] {
            prop_assert_eq!(
                bits(new.score_for(&text, label)),
                bits(old.score_for(&text, label))
            );
        }
        // A model trained on random corpora, with an uneven label count.
        let data: Vec<(&str, Vec<String>)> = ["p", "q", "r", "s"][..2 + g.below(3)]
            .iter()
            .map(|l| (*l, (0..1 + g.below(3)).map(|_| gen_text(&mut g, 12)).collect()))
            .collect();
        let probe = gen_text(&mut g, 20);
        let (nl, nc) = crate::LangIdModel::train(&data).classify(&probe);
        let (ol, oc) = reference_langid::LangIdModel::train(&data).classify(&probe);
        prop_assert_eq!((nl, bits(nc)), (ol, bits(oc)), "trained classify on {:?}", probe);
    }

    #[test]
    fn perplexity_is_bit_identical(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let corpus: Vec<String> = (0..1 + g.below(6)).map(|_| gen_text(&mut g, 16)).collect();
        let text = gen_text(&mut g, 24);
        for order in 1..=3 {
            let new = crate::NgramModel::train(&corpus, order);
            let old = reference_ngram::NgramModel::train(&corpus, order);
            prop_assert_eq!(new.vocab_size(), old.vocab_size());
            prop_assert_eq!(
                bits(new.perplexity(&text)),
                bits(old.perplexity(&text)),
                "order {} perplexity on {:?}", order, text
            );
        }
    }
}

fn builtin_models() -> &'static (crate::LangIdModel, reference_langid::LangIdModel) {
    static MODELS: std::sync::OnceLock<(crate::LangIdModel, reference_langid::LangIdModel)> =
        std::sync::OnceLock::new();
    MODELS.get_or_init(|| {
        (
            crate::LangIdModel::builtin(),
            reference_langid::LangIdModel::builtin(),
        )
    })
}

/// The `Vec<String>`-lowercasing verb/noun pairing.
fn reference_verb_noun_pairs(
    words: &[String],
    verbs: &FxHashSet<String>,
    nouns: &FxHashSet<String>,
) -> Vec<(String, String)> {
    let lowered: Vec<String> = words.iter().map(|w| w.to_lowercase()).collect();
    let mut pairs = Vec::new();
    for (i, w) in lowered.iter().enumerate() {
        if verbs.contains(w) {
            for obj in lowered.iter().skip(i + 1).take(4) {
                if nouns.contains(obj) {
                    pairs.push((w.clone(), obj.clone()));
                    break;
                }
            }
        }
    }
    pairs
}

#[test]
fn char_windows_hash_the_bytes_of_each_char_window() {
    let text = "a数😀\u{301}b";
    let mut got = Vec::new();
    stats::CharWindows::new(text).for_each(2, |w| got.push(hash64(w)));
    let chars: Vec<char> = text.chars().collect();
    let want: Vec<u64> = chars
        .windows(2)
        .map(|w| hash64(w.iter().collect::<String>().as_bytes()))
        .collect();
    assert_eq!(got, want);
}

/// The `String`-returning normalization kernels and the
/// `remove_long_words_mapper` closure.
mod reference_normalize {
    /// Collapse runs of spaces/tabs, normalize newlines, trim trailing spaces.
    pub fn normalize_whitespace(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut pending_space = false;
        let mut pending_newlines = 0usize;
        for c in text.replace("\r\n", "\n").replace('\r', "\n").chars() {
            match c {
                '\n' => {
                    pending_space = false;
                    pending_newlines += 1;
                }
                c if c == ' ' || c == '\t' || c == '\u{a0}' || c == '\u{3000}' => {
                    pending_space = true;
                }
                c => {
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
                    out.push(c);
                }
            }
        }
        out
    }

    /// Map fullwidth/typographic unicode punctuation to ASCII equivalents.
    pub fn normalize_punctuation(text: &str) -> String {
        text.chars()
            .map(|c| match c {
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
                c => c,
            })
            .collect()
    }

    /// Repair common UTF-8-decoded-as-Latin-1 mojibake sequences.
    pub fn fix_mojibake(text: &str) -> String {
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
        let mut out = text.to_string();
        for (bad, good) in TABLE {
            if out.contains(bad) {
                out = out.replace(bad, good);
            }
        }
        out
    }

    /// Remove http(s)/ftp links, replacing them with nothing.
    pub fn remove_links(text: &str) -> String {
        remove_token_matches(text, |tok| {
            tok.starts_with("http://")
                || tok.starts_with("https://")
                || tok.starts_with("ftp://")
                || tok.starts_with("www.")
        })
    }

    /// Remove email addresses (token contains '@' with a dot after it).
    pub fn remove_emails(text: &str) -> String {
        remove_token_matches(text, |tok| {
            let t = tok.trim_matches(|c: char| !c.is_alphanumeric() && c != '@' && c != '.');
            match t.split_once('@') {
                Some((user, host)) => {
                    !user.is_empty() && host.contains('.') && !host.ends_with('.')
                }
                None => false,
            }
        })
    }

    /// Remove IPv4-looking tokens.
    pub fn remove_ips(text: &str) -> String {
        remove_token_matches(text, |tok| {
            let t = tok.trim_matches(|c: char| !c.is_ascii_digit() && c != '.');
            let parts: Vec<&str> = t.split('.').collect();
            parts.len() == 4
                && parts
                    .iter()
                    .all(|p| !p.is_empty() && p.len() <= 3 && p.chars().all(|c| c.is_ascii_digit()))
        })
    }

    fn remove_token_matches(text: &str, pred: impl Fn(&str) -> bool) -> String {
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
        out
    }

    /// Strip HTML tags, unescaping the few common entities.
    pub fn strip_html(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut in_tag = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '<' => in_tag = true,
                '>' if in_tag => {
                    in_tag = false;
                    // Tags often imply breaks; preserve word separation.
                    if !out.ends_with(' ') && !out.ends_with('\n') && !out.is_empty() {
                        out.push(' ');
                    }
                }
                _ if in_tag => {}
                '&' => {
                    let mut entity = String::from("&");
                    let mut matched = false;
                    for _ in 0..6 {
                        match chars.peek() {
                            Some(&e) if e.is_ascii_alphanumeric() || e == '#' => {
                                entity.push(e);
                                chars.next();
                            }
                            Some(&';') => {
                                chars.next();
                                matched = true;
                                break;
                            }
                            _ => break,
                        }
                    }
                    match (matched, entity.as_str()) {
                        (true, "&amp") => out.push('&'),
                        (true, "&lt") => out.push('<'),
                        (true, "&gt") => out.push('>'),
                        (true, "&quot") => out.push('"'),
                        (true, "&nbsp") => out.push(' '),
                        (true, "&#39") => out.push('\''),
                        _ => out.push_str(&entity),
                    }
                }
                c => out.push(c),
            }
        }
        normalize_whitespace(&out)
    }

    /// The `remove_long_words_mapper` closure.
    pub fn remove_long_words(t: &str, max: usize) -> String {
        t.split('\n')
            .map(|line| {
                line.split(' ')
                    .filter(|w| w.chars().count() <= max)
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Pieces dense in what the cleaning kernels react to: tags and entities,
/// `@` and email shapes, dotted digit runs, link prefixes, `` ` `` and
/// typographic punctuation, `\r`, tabs, U+00A0, U+3000, mojibake and
/// broken mojibake prefixes, and long ASCII and multibyte words.
const TRIGGERS: &[&str] = &[
    "<",
    ">",
    "<b>",
    "</p>",
    "<a href=\"x\">",
    "<br/",
    "&",
    "&amp;",
    "&lt;",
    "&gt;",
    "&quot;",
    "&nbsp;",
    "&#39;",
    "&#x;",
    "&amp",
    "&toolong;",
    "&;",
    "@",
    "a@b.com",
    "bob@example.org.",
    "@x.y",
    "(me@host.io)",
    "u@h",
    "x@@y.z",
    ".",
    "..",
    "1.2.3.4",
    "192.168.0.1",
    "10.0.0.2566",
    "1.2.3",
    "1.2.3.4.5",
    "[8.8.8.8]",
    "0.0.0.0.",
    "v1.2",
    "123",
    "`",
    "\r",
    "\r\n",
    "\t",
    "\u{a0}",
    "\u{3000}",
    "  ",
    "\n",
    "\n\n\n",
    " \n",
    "\n ",
    "â€™",
    "â€œ",
    "â€\u{9d}",
    "â€“",
    "â€”",
    "â€¦",
    "Ã©",
    "Ã±",
    "Â ",
    "\u{fffd}",
    "Ã",
    "â",
    "Â",
    "â€",
    "é",
    "à",
    "“",
    "”",
    "„",
    "«",
    "»",
    "‘",
    "’",
    "‚",
    "—",
    "–",
    "―",
    "…",
    "，",
    "。",
    "！",
    "？",
    "：",
    "；",
    "（",
    "）",
    "「",
    "http://x.y/z",
    "https://a.b",
    "ftp://f",
    "www.site.com",
    "wwwx",
    "http:/",
    "abcdefghijklmnopqrstu",
    "数据数据数据数据数据数据数据",
    "😀😀😀😀😀😀",
    "ééééééééééé",
    "word",
    "the",
    "ab",
    "abcdefghijklmnopqrstuvwxyz0123456789",
    "数数数数数数数数数数数数",
    "x\u{301}x\u{301}x\u{301}",
];
const TRIGGER_SEPARATORS: &[&str] = &[" ", " ", " ", "", "\n", "\t", "  ", "\r\n", "\u{a0}"];

/// Random trigger text, optionally framed by newlines.
fn gen_trigger_text(g: &mut Gen, max_pieces: usize) -> String {
    let mut out = String::new();
    for _ in 0..g.below(3) {
        out.push('\n');
    }
    for _ in 0..g.below(max_pieces + 1) {
        out.push_str(TRIGGERS[g.below(TRIGGERS.len())]);
        out.push_str(TRIGGER_SEPARATORS[g.below(TRIGGER_SEPARATORS.len())]);
    }
    for _ in 0..g.below(3) {
        out.push('\n');
    }
    out
}

/// `text` with a few trigger pieces spliced in at random char boundaries
/// and a few chars deleted, so triggers also land inside words.
fn mutate(g: &mut Gen, text: &str) -> String {
    let mut out = text.to_string();
    for _ in 0..1 + g.below(4) {
        let bounds: Vec<usize> = (0..=out.len())
            .filter(|&i| out.is_char_boundary(i))
            .collect();
        let at = bounds[g.below(bounds.len())];
        if g.below(3) == 0 && at < out.len() {
            out.remove(at);
        } else {
            out.insert_str(at, TRIGGERS[g.below(TRIGGERS.len())]);
        }
    }
    out
}

/// The kernel's output equals the oracle's byte for byte, and it borrows
/// exactly when the oracle left the text unchanged.
fn check_kernel(name: &str, text: &str, got: Cow<'_, str>, want: String) -> Result<(), String> {
    if got.as_ref() != want {
        return Err(format!("{name} on {text:?}: got {got:?}, want {want:?}"));
    }
    if matches!(got, Cow::Borrowed(_)) != (want == text) {
        return Err(format!(
            "{name} on {text:?}: borrowed = {}, unchanged = {}",
            matches!(got, Cow::Borrowed(_)),
            want == text
        ));
    }
    Ok(())
}

fn check_all_kernels(text: &str) -> Result<(), String> {
    check_kernel(
        "normalize_whitespace",
        text,
        normalize::normalize_whitespace(text),
        reference_normalize::normalize_whitespace(text),
    )?;
    check_kernel(
        "normalize_punctuation",
        text,
        normalize::normalize_punctuation(text),
        reference_normalize::normalize_punctuation(text),
    )?;
    check_kernel(
        "fix_mojibake",
        text,
        normalize::fix_mojibake(text),
        reference_normalize::fix_mojibake(text),
    )?;
    check_kernel(
        "strip_html",
        text,
        normalize::strip_html(text),
        reference_normalize::strip_html(text),
    )?;
    check_kernel(
        "remove_links",
        text,
        normalize::remove_links(text),
        reference_normalize::remove_links(text),
    )?;
    check_kernel(
        "remove_emails",
        text,
        normalize::remove_emails(text),
        reference_normalize::remove_emails(text),
    )?;
    check_kernel(
        "remove_ips",
        text,
        normalize::remove_ips(text),
        reference_normalize::remove_ips(text),
    )?;
    for max in [0, 1, 2, 3, 5, 8, 12, 20, 30, 31, 36, 45] {
        check_kernel(
            &format!("remove_long_words({max})"),
            text,
            normalize::remove_long_words(text, max),
            reference_normalize::remove_long_words(text, max),
        )?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn normalization_kernels_match_the_string_oracles(seed in any::<u64>()) {
        let g = &mut Gen(seed);
        let text = gen_trigger_text(g, 24);
        if let Err(e) = check_all_kernels(&text) {
            prop_assert!(false, "{}", e);
        }
    }

    #[test]
    fn normalization_kernels_match_on_mutated_text(seed in any::<u64>()) {
        let g = &mut Gen(seed);
        let base = if g.below(2) == 0 { gen_text(g, 30) } else { gen_trigger_text(g, 16) };
        let text = mutate(g, &base);
        if let Err(e) = check_all_kernels(&text) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Text that is already clean must come back borrowed from every kernel.
    #[test]
    fn normalized_text_comes_back_borrowed(seed in any::<u64>()) {
        let g = &mut Gen(seed);
        let text = gen_trigger_text(g, 24);
        let clean = reference_normalize::normalize_whitespace(&text);
        prop_assert!(matches!(normalize::normalize_whitespace(&clean), Cow::Borrowed(_)));
        if let Err(e) = check_all_kernels(&clean) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn kernel_edge_cases_match_the_oracles() {
    for text in [
        "",
        " ",
        "\n",
        "\n\n",
        "\n\nx",
        "\n\n\nx",
        "x\n\ny",
        "x \ny",
        "x\n y",
        " x",
        "x ",
        "x  y",
        "x\u{a0}y",
        "x\u{3000}y",
        "x\ty",
        "x\r\ny",
        "x\ry",
        "\u{a0}",
        "é\u{a0}",
        "ã€€",
        "<",
        "&",
        "&amp;",
        "a <b> c",
        "1.2.3.4",
        "1.2.3.4x",
        "a@b.c",
        "@",
        "`",
        "Â",
        "Â x",
        "\u{fffd}",
        "www.",
        "http://",
    ] {
        if let Err(e) = check_all_kernels(text) {
            panic!("{e}");
        }
    }
}
