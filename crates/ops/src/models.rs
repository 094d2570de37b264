//! Lazily-constructed default auxiliary models for model-backed OPs.
//!
//! The original system downloads fastText/KenLM/classifier checkpoints from
//! a cloud drive on first use; we train small substitutes once per process
//! from embedded seed corpora (deterministic, a few milliseconds each) and
//! share them behind `OnceLock`s. OPs also accept user-supplied models via
//! their `with_model` constructors — the "fresh links to auxiliary models"
//! customization of paper §5.3.

use std::sync::{Arc, OnceLock};

use dj_ml::{QualityClassifier, QualityTokenizer};
use dj_text::{LangIdModel, NgramModel};

/// Fluent English seed text for the default perplexity model.
fn fluent_seed() -> Vec<String> {
    const TEMPLATES: &[&str] = &[
        "the SUBJ OBJ was presented in the report and the committee agreed",
        "researchers found that the SUBJ improves the OBJ in most settings",
        "a new SUBJ for the OBJ has been proposed by the research group",
        "the SUBJ of the OBJ depends on the quality of the training data",
        "we describe the SUBJ and evaluate the OBJ on several benchmarks",
        "in recent years the SUBJ has become central to the OBJ of language",
    ];
    const SUBJECTS: &[&str] = &[
        "method", "system", "model", "analysis", "approach", "design",
    ];
    const OBJECTS: &[&str] = &[
        "performance",
        "accuracy",
        "pipeline",
        "result",
        "dataset",
        "metric",
    ];
    let mut out = Vec::with_capacity(TEMPLATES.len() * SUBJECTS.len() * OBJECTS.len());
    for t in TEMPLATES {
        for s in SUBJECTS {
            for o in OBJECTS {
                out.push(t.replace("SUBJ", s).replace("OBJ", o));
            }
        }
    }
    out
}

/// Noisy seed text for the default quality classifier's negative class.
fn noisy_seed() -> Vec<String> {
    let mut out = Vec::with_capacity(200);
    for i in 0..200 {
        out.push(format!(
            "click here {i} free casino jackpot winbig buy now buy now hotdeal \
             clickbait subscribe offer {i} {i} {i} xxxad freemoney $$$ ### @@@"
        ));
    }
    out
}

/// Shared default language-identification model.
pub fn default_langid() -> &'static Arc<LangIdModel> {
    static MODEL: OnceLock<Arc<LangIdModel>> = OnceLock::new();
    MODEL.get_or_init(|| Arc::new(LangIdModel::builtin()))
}

/// Shared default perplexity model (3-gram, trained on the fluent seed).
pub fn default_perplexity_model() -> &'static Arc<NgramModel> {
    static MODEL: OnceLock<Arc<NgramModel>> = OnceLock::new();
    MODEL.get_or_init(|| Arc::new(NgramModel::train(&fluent_seed(), 3)))
}

/// Shared default quality classifier (GPT-3-reproduction style: standard
/// tokenizer, fluent-vs-noisy training split).
pub fn default_quality_classifier() -> &'static Arc<QualityClassifier> {
    static MODEL: OnceLock<Arc<QualityClassifier>> = OnceLock::new();
    MODEL.get_or_init(|| {
        Arc::new(QualityClassifier::train(
            "default-gpt3-repro",
            QualityTokenizer::Standard,
            &fluent_seed(),
            &noisy_seed(),
            1 << 14,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_initialize_once_and_work() {
        let lid = default_langid();
        assert_eq!(
            lid.classify("a normal english sentence about the data").0,
            "en"
        );
        let lm = default_perplexity_model();
        assert!(
            lm.perplexity("the method improves the accuracy") < lm.perplexity("zxq vbn mlk pqr")
        );
        let qc = default_quality_classifier();
        assert!(qc.score("the committee agreed the analysis was sound") > 0.5);
        assert!(qc.score("click here free casino jackpot winbig") < 0.5);
        // Same instance on second call.
        assert!(std::ptr::eq(lid, default_langid()));
    }
}
