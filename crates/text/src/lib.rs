//! # dj-text — text-processing substrate
//!
//! The NLP machinery Data-Juicer's OPs depend on, built from scratch:
//!
//! * [`tokenize`] — standard word tokenization + a trainable byte-level BPE
//!   subword tokenizer (the SentencePiece substitute used for token counts);
//! * [`ngram`] — interpolated n-gram language model (the KenLM substitute
//!   behind the perplexity filter);
//! * [`langid`] — char-n-gram naive-Bayes language identification (the
//!   fastText substitute), with built-in English/Chinese/code profiles;
//! * [`stats`] — per-sample text statistics (alnum/special-char ratios,
//!   repetition ratios, line stats, lexicon ratios, entropy);
//! * [`normalize`] — whitespace/punctuation/mojibake repair and HTML, LaTeX,
//!   link/email/IP removal transforms;
//! * [`lexicon`] — embedded stopword/flagged-word/verb/noun lists plus the
//!   verb-noun diversity probe of the paper's Fig. 5.
//!
//! ## Per-sample kernels
//!
//! The word kernels ([`stats::word_rep_ratio`], [`stats::lexicon_ratio`],
//! [`stats::avg_word_length`], [`stats::word_entropy`],
//! [`lexicon::verb_noun_pairs`]) take words as `&[&str]` slices of the
//! sample text. The words come from `dj_core::word_spans`, the one word
//! segmentation: `SampleContext::words` memoizes its byte spans per text
//! version and hands out borrowed words, and `segment_words` collects the
//! same spans into owned strings.
//!
//! The kernels do not allocate per character, word or window:
//! character n-grams are hashed as byte slices of the text, words are
//! lowercased only when they contain an uppercase or non-ASCII byte, and
//! the language-id model scores a gram with one lookup into a flat
//! gram × label table. This is a pure speed-up with a **bit-identity
//! contract**: every statistic is `to_bits`-equal to what the earlier
//! per-`String` implementations computed — the same hash over the same
//! bytes, and the same floating-point sums in the same order. The earlier
//! implementations are kept as test oracles, and property tests hold the
//! kernels to them.
//!
//! ## Cleaning kernels
//!
//! The [`normalize`] kernels the cleaning mappers run on every sample
//! return `Cow<'_, str>` with the contract `Borrowed` ⇔ unchanged: a
//! kernel borrows its input exactly when its output would equal it. One
//! byte-level scan for the bytes an edit needs decides that, so a sample
//! that needs no edit is neither copied nor rebuilt, and a mapper reports
//! `changed` only for an `Owned` result that differs from the old text.
//! The earlier `String`-returning kernels are the test oracles here too.

// Panic-on-error is banned in library code: every unwrap/expect outside
// tests is restructured away.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod langid;
pub mod lexicon;
pub mod ngram;
pub mod normalize;
#[cfg(test)]
mod oracle;
pub mod stats;
mod table;
pub mod tokenize;

pub use langid::{cjk_ratio, LangIdModel};
pub use ngram::NgramModel;
pub use tokenize::{standard_tokenize, BpeTokenizer};
