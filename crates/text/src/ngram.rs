//! N-gram language model for perplexity scoring.
//!
//! Data-Juicer's `perplexity_filter` scores samples with a KenLM model; we
//! substitute an interpolated word n-gram model with add-k smoothing and
//! Jelinek-Mercer interpolation across orders. The absolute perplexities
//! differ from KenLM's, but the *ordering* — fluent text scores low, noisy
//! text scores high — is what the filter thresholds rely on, and that is
//! preserved (verified by tests on clean vs. scrambled text).

use dj_core::word_spans;
use dj_hash::{hash64, FxHashMap};

use crate::stats::lowercase;

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
        let mut vocab: dj_hash::FxHashSet<u64> = dj_hash::FxHashSet::default();
        for doc in corpus {
            let words = word_hashes(doc.as_ref(), order);
            vocab.extend(&words[order - 1..]);
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

    pub fn order(&self) -> usize {
        self.order
    }

    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Smoothed probability of the window's last word following the rest,
    /// at a given order. `window` holds word hashes.
    fn order_prob(&self, k: usize, window: &[u64]) -> f64 {
        let n = k + 1;
        let gram = gram_key(&window[window.len() - n..]);
        let ctx = gram_key(&window[window.len() - n..window.len() - 1]);
        let c = *self.counts[k].get(&gram).unwrap_or(&0) as f64;
        let cc = *self.context_counts[k].get(&ctx).unwrap_or(&0) as f64;
        (c + self.add_k) / (cc + self.add_k * self.vocab_size as f64)
    }

    /// Interpolated log2-probability of one word given its full context.
    fn word_log2p(&self, window: &[u64]) -> f64 {
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
        let words = word_hashes(text, self.order);
        if words.len() == self.order - 1 {
            return f64::INFINITY;
        }
        let n_scored = words.len() - (self.order - 1);
        let mut log2p = 0.0;
        for i in self.order - 1..words.len() {
            let lo = i + 1 - self.order;
            log2p += self.word_log2p(&words[lo..=i]);
        }
        (-log2p / n_scored as f64).exp2()
    }
}

/// `order - 1` BOS markers followed by the lowercased words of `text`,
/// each hashed once.
fn word_hashes(text: &str, order: usize) -> Vec<u64> {
    let mut hashes = vec![hash64(BOS.as_bytes()); order - 1];
    hashes.extend(word_spans(text).map(|r| hash64(lowercase(&text[r]).as_bytes())));
    hashes
}

/// Key of a word n-gram, folded from its word hashes.
fn gram_key(hashes: &[u64]) -> u64 {
    let mut key = 0xcbf2_9ce4_8422_2325u64;
    for &h in hashes {
        key = key.rotate_left(13).wrapping_mul(0x0100_0000_01b3) ^ h;
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_corpus() -> Vec<String> {
        let sents = [
            "the cat sat on the mat",
            "the dog sat on the rug",
            "a cat and a dog play in the garden",
            "language models predict the next word in a sentence",
            "the next word depends on the previous words",
            "models learn the structure of natural language",
        ];
        (0..5)
            .flat_map(|_| sents.iter().map(|s| s.to_string()))
            .collect()
    }

    #[test]
    fn in_domain_text_scores_lower_than_scrambled() {
        let lm = NgramModel::train(&train_corpus(), 3);
        let fluent = lm.perplexity("the cat sat on the mat");
        let scrambled = lm.perplexity("mat the on sat cat the");
        assert!(
            fluent < scrambled,
            "fluent={fluent:.1} scrambled={scrambled:.1}"
        );
    }

    #[test]
    fn gibberish_scores_higher_than_fluent() {
        let lm = NgramModel::train(&train_corpus(), 3);
        let fluent = lm.perplexity("the dog sat on the mat");
        let gibberish = lm.perplexity("zxqv wvut bnmp qqqq jjjj xkcd");
        assert!(
            gibberish > 3.0 * fluent,
            "fluent={fluent:.1} gibberish={gibberish:.1}"
        );
    }

    #[test]
    fn empty_text_is_infinite() {
        let lm = NgramModel::train(&train_corpus(), 2);
        assert!(lm.perplexity("").is_infinite());
        assert!(lm.perplexity("   ,,, ").is_infinite());
    }

    #[test]
    fn perplexity_is_finite_and_positive() {
        let lm = NgramModel::train(&train_corpus(), 3);
        let p = lm.perplexity("the cat and the dog");
        assert!(p.is_finite() && p > 1.0);
    }

    #[test]
    fn unigram_model_works() {
        let lm = NgramModel::train(&train_corpus(), 1);
        let common = lm.perplexity("the the the");
        let rare = lm.perplexity("zzz yyy xxx");
        assert!(common < rare);
    }

    #[test]
    fn case_insensitive_scoring() {
        let lm = NgramModel::train(&train_corpus(), 2);
        let lower = lm.perplexity("the cat sat");
        let upper = lm.perplexity("THE CAT SAT");
        assert!((lower - upper).abs() < 1e-9);
    }

    #[test]
    fn repeated_training_is_deterministic() {
        let a = NgramModel::train(&train_corpus(), 3);
        let b = NgramModel::train(&train_corpus(), 3);
        let t = "models learn language structure";
        assert!((a.perplexity(t) - b.perplexity(t)).abs() < 1e-9);
    }
}
