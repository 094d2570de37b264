//! Language identification via character n-gram naive Bayes.
//!
//! Substitutes the fastText `language_id_score_filter` model: a multinomial
//! naive-Bayes classifier over character 1–3-grams, trained on per-language
//! seed profiles. It outputs a `(language, confidence)` pair exactly like the
//! original filter consumes. English, Chinese and a "code" pseudo-language
//! are built in; additional languages can be trained from user corpora.

use dj_core::is_cjk;
use dj_hash::{hash64, FxHashMap};

use crate::stats::CharWindows;
use crate::table::U64Table;

/// A trained language-identification model.
///
/// The per-label log-probabilities live in one flat table: a gram maps to
/// one row holding every label's log-probability (the label's smoothing
/// floor where that label never saw the gram), so scoring a gram is one
/// index lookup however many labels there are. Row 0 holds the floors and
/// serves every gram no label saw.
#[derive(Debug, Clone)]
pub struct LangIdModel {
    labels: Vec<String>,
    /// hashed n-gram → row of `table` (0 for unseen grams)
    rows: U64Table,
    /// `labels.len()` log-probabilities per row, row-major
    table: Vec<f64>,
    priors: Vec<f64>,
}

impl LangIdModel {
    /// Train from `(label, corpus)` pairs.
    pub fn train(data: &[(&str, Vec<String>)]) -> LangIdModel {
        let n_labels = data.len();
        // Per label: gram counts and the add-one denominator.
        let counted: Vec<(FxHashMap<u64, u32>, f64)> = data
            .iter()
            .map(|(_, corpus)| {
                let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
                let mut total = 0u64;
                for doc in corpus {
                    char_ngrams(doc, |g| {
                        *counts.entry(g).or_insert(0) += 1;
                        total += 1;
                    });
                }
                let denom = (total + counts.len() as u64 + 1) as f64;
                (counts, denom)
            })
            .collect();
        // Row 0: every label's floor.
        let mut table: Vec<f64> = counted.iter().map(|(_, d)| (1.0 / d).ln()).collect();
        let mut rows = U64Table::with_capacity(counted.iter().map(|(c, _)| c.len()).sum());
        for (i, (counts, denom)) in counted.iter().enumerate() {
            for (&g, &c) in counts {
                let row = rows.slot(g);
                if *row == 0 {
                    *row = (table.len() / n_labels) as u32;
                    table.extend_from_within(..n_labels);
                }
                table[*row as usize * n_labels + i] = ((c + 1) as f64 / denom).ln();
            }
        }
        let labels: Vec<String> = data.iter().map(|(l, _)| l.to_string()).collect();
        let prior = (1.0 / labels.len() as f64).ln();
        let priors = vec![prior; labels.len()];
        LangIdModel {
            labels,
            rows,
            table,
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

    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Classify text: returns `(label, confidence)` with confidence the
    /// softmax-normalized posterior of the winning label.
    pub fn classify(&self, text: &str) -> (String, f64) {
        let (label, conf) = self.predict(text);
        (label.to_string(), conf)
    }

    /// [`classify`](Self::classify) without copying the label.
    fn predict(&self, text: &str) -> (&str, f64) {
        if text.trim().is_empty() {
            return ("unknown", 0.0);
        }
        let n_labels = self.labels.len();
        let mut scores: Vec<f64> = self.priors.clone();
        let mut grams = 0usize;
        // Each label's score sums its per-gram terms in text order.
        char_ngrams(text, |g| {
            grams += 1;
            let row = self.rows.get(g) as usize;
            let terms = &self.table[row * n_labels..(row + 1) * n_labels];
            for (s, t) in scores.iter_mut().zip(terms) {
                *s += t;
            }
        });
        // Length-normalize so confidence is comparable across texts.
        for s in &mut scores {
            *s /= grams.max(1) as f64;
        }
        // On finite scores `total_cmp` agrees with `partial_cmp` except
        // that it puts -0.0 below +0.0.
        let Some((best, &best_score)) = scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))
        else {
            return ("unknown", 0.0); // a model trained on no labels
        };
        // Softmax over length-normalized log scores.
        let z: f64 = scores.iter().map(|s| (s - best_score).exp()).sum();
        (&self.labels[best], 1.0 / z)
    }

    /// Confidence that `text` is language `label` (0 when label unknown).
    pub fn score_for(&self, text: &str, label: &str) -> f64 {
        let (pred, conf) = self.predict(text);
        if pred == label {
            conf
        } else {
            // Return the complement mass spread over other labels; cheap but
            // monotone enough for threshold filters.
            (1.0 - conf) / (self.labels.len().max(2) - 1) as f64
        }
    }
}

/// Call `f` with every hashed character n-gram of `text` — orders 1, 2
/// and 3, each in text order — after mapping whitespace to `' '` and ASCII
/// to lowercase.
fn char_ngrams(text: &str, mut f: impl FnMut(u64)) {
    let norm: String = text
        .chars()
        .map(|c| {
            if c.is_whitespace() {
                ' '
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect();
    let windows = CharWindows::new(&norm);
    // One call per order with a constant width, so each pass hashes
    // fixed-length windows.
    windows.for_each(1, |g| f(hash64(g)));
    windows.for_each(2, |g| f(hash64(g)));
    windows.for_each(3, |g| f(hash64(g)));
}

/// Fraction of CJK characters among non-whitespace characters.
pub fn cjk_ratio(text: &str) -> f64 {
    let mut total = 0usize;
    let mut cjk = 0usize;
    for c in text.chars().filter(|c| !c.is_whitespace()) {
        total += 1;
        if is_cjk(c) {
            cjk += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        cjk as f64 / total as f64
    }
}

pub(crate) const SEED_EN: &[&str] = &[
    "the quick brown fox jumps over the lazy dog and runs through the field",
    "language models are trained on large collections of text from the web",
    "we present a system for processing data with composable operators",
    "in this paper we propose a novel method for improving performance",
    "the results show that our approach outperforms all previous baselines",
    "machine learning has transformed natural language processing research",
    "people share news stories opinions and conversations on social media",
    "the committee will meet on thursday to discuss the annual budget report",
    "scientists discovered new evidence about the formation of distant galaxies",
    "please read the following instructions carefully before you begin the test",
];

pub(crate) const SEED_ZH: &[&str] = &[
    "大型语言模型的训练需要大量高质量的文本数据",
    "我们提出了一个用于数据处理的系统",
    "这篇论文介绍了一种新的方法来提高模型性能",
    "实验结果表明我们的方法优于所有基线方法",
    "机器学习已经改变了自然语言处理研究的格局",
    "人们在社交媒体上分享新闻观点和对话",
    "委员会将于星期四开会讨论年度预算报告",
    "科学家发现了关于遥远星系形成的新证据",
    "请在开始测试之前仔细阅读以下说明",
    "数据质量对模型的最终效果有直接影响",
];

pub(crate) const SEED_CODE: &[&str] = &[
    "def process(self, sample): return {k: v for k, v in sample.items()}",
    "fn main() { let mut x = Vec::new(); x.push(1); println!(\"{:?}\", x); }",
    "for (int i = 0; i < n; i++) { sum += arr[i] * arr[i]; }",
    "import numpy as np; x = np.zeros((10, 10)); y = x.sum(axis=0)",
    "if err != nil { return fmt.Errorf(\"failed: %w\", err) }",
    "class Dataset: def __init__(self, samples): self.samples = samples",
    "const result = await fetch(url).then(r => r.json()).catch(e => null);",
    "pub struct Config { pub name: String, pub threshold: f64 }",
    "SELECT count(*) FROM samples WHERE word_count > 10 GROUP BY source;",
    "#include <stdio.h>\nint main(void) { printf(\"hello\\n\"); return 0; }",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_english() {
        let m = LangIdModel::builtin();
        let (lang, conf) =
            m.classify("this is a perfectly normal english sentence about the weather");
        assert_eq!(lang, "en");
        assert!(conf > 0.4, "conf={conf}");
    }

    #[test]
    fn classifies_chinese() {
        let m = LangIdModel::builtin();
        let (lang, _) = m.classify("今天的天气非常好我们一起去公园散步");
        assert_eq!(lang, "zh");
    }

    #[test]
    fn classifies_code() {
        let m = LangIdModel::builtin();
        let (lang, _) = m.classify("def foo(x):\n    return [i * 2 for i in range(x)]");
        assert_eq!(lang, "code");
    }

    #[test]
    fn empty_text_is_unknown() {
        let m = LangIdModel::builtin();
        let (lang, conf) = m.classify("   ");
        assert_eq!(lang, "unknown");
        assert_eq!(conf, 0.0);
    }

    #[test]
    fn score_for_is_high_for_true_label() {
        let m = LangIdModel::builtin();
        let s_en = m.score_for("the quick brown fox jumps over the dog", "en");
        let s_zh = m.score_for("the quick brown fox jumps over the dog", "zh");
        assert!(s_en > s_zh);
    }

    #[test]
    fn cjk_ratio_boundaries() {
        assert_eq!(cjk_ratio(""), 0.0);
        assert_eq!(cjk_ratio("abc"), 0.0);
        assert_eq!(cjk_ratio("中文"), 1.0);
        let r = cjk_ratio("ab中文");
        assert!((r - 0.5).abs() < 1e-9);
    }

    #[test]
    fn custom_training_labels() {
        let m = LangIdModel::train(&[
            ("aaa", vec!["aaa aaa aaa aaaa aaaaa".into()]),
            ("bbb", vec!["bbb bbb bbb bbbb bbbbb".into()]),
        ]);
        assert_eq!(m.classify("aaaa aaa").0, "aaa");
        assert_eq!(m.classify("bbbb bbb").0, "bbb");
    }
}
