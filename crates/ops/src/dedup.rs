//! Deduplicator OPs: whole-dataset duplicate removal (Table 1, "compare
//! with hash-based and vector-based deduplication methods").
//!
//! All deduplicators follow the two-phase protocol of Listing 1:
//! `compute_hash` produces a per-sample fingerprint [`Value`] (parallelizable)
//! and `keep_mask` clusters fingerprints at dataset level, retaining the
//! first occurrence of each duplicate cluster.

use std::borrow::Cow;

use dj_core::{Dataset, Deduplicator, DjError, Result, Sample, SampleContext, Value, TEXT_KEY};
use dj_hash::{hash128, simhash_tokens, MinHasher};

use crate::par_dedup::ParallelDedup;

/// Exact document deduplication by 128-bit content hash
/// (`document_deduplicator`).
#[derive(Debug, Clone)]
pub struct DocumentDeduplicator {
    pub field: String,
    /// Compare case-insensitively.
    pub lowercase: bool,
    /// Strip non-alphanumeric characters before hashing (catches trivially
    /// reformatted duplicates).
    pub ignore_non_alnum: bool,
}

impl Default for DocumentDeduplicator {
    fn default() -> Self {
        DocumentDeduplicator {
            field: TEXT_KEY.to_string(),
            lowercase: false,
            ignore_non_alnum: false,
        }
    }
}

impl DocumentDeduplicator {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn normalized() -> Self {
        DocumentDeduplicator {
            field: TEXT_KEY.to_string(),
            lowercase: true,
            ignore_non_alnum: true,
        }
    }

    /// Canonical form for hashing. Borrows when no normalization is
    /// configured, so the common exact-hash path allocates nothing.
    fn canonical<'a>(&self, text: &'a str) -> Cow<'a, str> {
        if !self.lowercase && !self.ignore_non_alnum {
            return Cow::Borrowed(text);
        }
        let mut t = if self.lowercase {
            text.to_lowercase()
        } else {
            text.to_string()
        };
        if self.ignore_non_alnum {
            t.retain(|c| c.is_alphanumeric());
        }
        Cow::Owned(t)
    }
}

impl Deduplicator for DocumentDeduplicator {
    fn name(&self) -> &'static str {
        "document_deduplicator"
    }

    fn compute_hash(&self, sample: &Sample, ctx: &mut SampleContext) -> Result<Value> {
        self.compute_hash_text(sample.text_at(&self.field), ctx)
    }

    fn hash_field(&self) -> Option<&str> {
        Some(&self.field)
    }

    fn compute_hash_text(&self, text: &str, _ctx: &mut SampleContext) -> Result<Value> {
        let canon = self.canonical(text);
        let h = hash128(canon.as_bytes());
        // 128-bit hash stored as two i64 limbs (Value has no u128).
        Ok(Value::List(vec![
            Value::Int((h >> 64) as u64 as i64),
            Value::Int(h as u64 as i64),
        ]))
    }

    fn keep_mask(&self, samples: usize, hashes: &[Value]) -> Result<Vec<bool>> {
        self.keep_mask_parallel(samples, hashes, 1)
    }

    fn keep_mask_parallel(
        &self,
        samples: usize,
        hashes: &[Value],
        num_workers: usize,
    ) -> Result<Vec<bool>> {
        check_len(self.name(), samples, hashes)?;
        let keys: Vec<(i64, i64)> = hashes
            .iter()
            .map(|h| limbs(h, self.name()))
            .collect::<Result<_>>()?;
        Ok(ParallelDedup::new(num_workers).exact_mask(&keys))
    }
}

/// MinHash-LSH near-duplicate removal (`document_minhash_deduplicator`).
#[derive(Debug, Clone)]
pub struct MinHashDeduplicator {
    pub field: String,
    pub jaccard_threshold: f64,
    pub bands: usize,
    pub rows: usize,
    pub shingle_size: usize,
    hasher: MinHasher,
}

impl MinHashDeduplicator {
    /// `bands * rows` hash functions; the candidate S-curve midpoint is
    /// approximately `(1/bands)^(1/rows)`.
    pub fn new(
        jaccard_threshold: f64,
        bands: usize,
        rows: usize,
        shingle_size: usize,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&jaccard_threshold) {
            return Err(DjError::Config(
                "minhash: jaccard_threshold must be in [0,1]".into(),
            ));
        }
        if bands == 0 || rows == 0 || shingle_size == 0 {
            return Err(DjError::Config(
                "minhash: bands, rows and shingle_size must be positive".into(),
            ));
        }
        Ok(Self::checked(jaccard_threshold, bands, rows, shingle_size))
    }

    /// The paper-style default: threshold 0.7, 16 bands × 8 rows, 5-shingles.
    pub fn default_config() -> Self {
        Self::checked(0.7, 16, 8, 5)
    }

    /// Build from parameters [`new`](Self::new) has validated.
    fn checked(jaccard_threshold: f64, bands: usize, rows: usize, shingle_size: usize) -> Self {
        MinHashDeduplicator {
            field: TEXT_KEY.to_string(),
            jaccard_threshold,
            bands,
            rows,
            shingle_size,
            hasher: MinHasher::new(bands * rows, shingle_size),
        }
    }
}

impl Deduplicator for MinHashDeduplicator {
    fn name(&self) -> &'static str {
        "document_minhash_deduplicator"
    }

    fn compute_hash(&self, sample: &Sample, ctx: &mut SampleContext) -> Result<Value> {
        self.compute_hash_text(sample.text_at(&self.field), ctx)
    }

    fn hash_field(&self) -> Option<&str> {
        Some(&self.field)
    }

    fn compute_hash_text(&self, text: &str, ctx: &mut SampleContext) -> Result<Value> {
        let sig = self.hasher.signature(&ctx.words(text));
        Ok(Value::List(
            sig.into_iter().map(|v| Value::Int(v as i64)).collect(),
        ))
    }

    fn keep_mask(&self, samples: usize, hashes: &[Value]) -> Result<Vec<bool>> {
        self.keep_mask_parallel(samples, hashes, 1)
    }

    fn keep_mask_parallel(
        &self,
        samples: usize,
        hashes: &[Value],
        num_workers: usize,
    ) -> Result<Vec<bool>> {
        check_len(self.name(), samples, hashes)?;
        let sigs: Vec<Vec<u64>> = hashes
            .iter()
            .map(|h| signature(h, self.name()))
            .collect::<Result<_>>()?;
        // Signatures can come off disk (fingerprint sidecars): the banding
        // below needs exactly `bands × rows` components in each.
        let width = self.bands * self.rows;
        if let Some(bad) = sigs.iter().find(|sig| sig.len() != width) {
            return Err(DjError::op(
                self.name(),
                format!(
                    "signature has {} components, expected {} bands × {} rows = {width}",
                    bad.len(),
                    self.bands,
                    self.rows
                ),
            ));
        }
        Ok(ParallelDedup::new(num_workers).minhash_mask(
            &sigs,
            self.bands,
            self.rows,
            self.jaccard_threshold,
        ))
    }
}

/// SimHash near-duplicate removal (`document_simhash_deduplicator`),
/// the vector-based comparison method.
#[derive(Debug, Clone)]
pub struct SimHashDeduplicator {
    pub field: String,
    pub max_distance: u32,
}

impl SimHashDeduplicator {
    pub fn new(max_distance: u32) -> Result<Self> {
        if max_distance > 16 {
            return Err(DjError::Config(
                "simhash: max_distance above 16 makes everything a duplicate".into(),
            ));
        }
        Ok(SimHashDeduplicator {
            field: TEXT_KEY.to_string(),
            max_distance,
        })
    }
}

impl Deduplicator for SimHashDeduplicator {
    fn name(&self) -> &'static str {
        "document_simhash_deduplicator"
    }

    fn compute_hash(&self, sample: &Sample, ctx: &mut SampleContext) -> Result<Value> {
        self.compute_hash_text(sample.text_at(&self.field), ctx)
    }

    fn hash_field(&self) -> Option<&str> {
        Some(&self.field)
    }

    fn compute_hash_text(&self, text: &str, ctx: &mut SampleContext) -> Result<Value> {
        let fp = simhash_tokens(&ctx.words(text));
        Ok(Value::Int(fp as i64))
    }

    fn keep_mask(&self, samples: usize, hashes: &[Value]) -> Result<Vec<bool>> {
        self.keep_mask_parallel(samples, hashes, 1)
    }

    fn keep_mask_parallel(
        &self,
        samples: usize,
        hashes: &[Value],
        num_workers: usize,
    ) -> Result<Vec<bool>> {
        check_len(self.name(), samples, hashes)?;
        let fps: Vec<u64> = hashes
            .iter()
            .map(|h| {
                h.as_int()
                    .map(|i| i as u64)
                    .ok_or_else(|| DjError::op(self.name(), "fingerprint must be an int"))
            })
            .collect::<Result<_>>()?;
        Ok(ParallelDedup::new(num_workers).simhash_mask(&fps, self.max_distance))
    }
}

/// Paragraph-level exact dedup across the dataset: a sample is dropped when
/// all of its paragraphs have already been seen in kept samples
/// (`paragraph_deduplicator` — the "multiple views" comparison of Table 1).
#[derive(Debug, Clone)]
pub struct ParagraphDeduplicator {
    pub field: String,
}

impl Default for ParagraphDeduplicator {
    fn default() -> Self {
        ParagraphDeduplicator {
            field: TEXT_KEY.to_string(),
        }
    }
}

impl ParagraphDeduplicator {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Deduplicator for ParagraphDeduplicator {
    fn name(&self) -> &'static str {
        "paragraph_deduplicator"
    }

    fn compute_hash(&self, sample: &Sample, ctx: &mut SampleContext) -> Result<Value> {
        self.compute_hash_text(sample.text_at(&self.field), ctx)
    }

    fn hash_field(&self) -> Option<&str> {
        Some(&self.field)
    }

    fn compute_hash_text(&self, text: &str, _ctx: &mut SampleContext) -> Result<Value> {
        let hashes: Vec<Value> = text
            .split("\n\n")
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|p| Value::Int(dj_hash::hash64(p.as_bytes()) as i64))
            .collect();
        Ok(Value::List(hashes))
    }

    fn keep_mask(&self, samples: usize, hashes: &[Value]) -> Result<Vec<bool>> {
        self.keep_mask_parallel(samples, hashes, 1)
    }

    fn keep_mask_parallel(
        &self,
        samples: usize,
        hashes: &[Value],
        num_workers: usize,
    ) -> Result<Vec<bool>> {
        check_len(self.name(), samples, hashes)?;
        fn para_list<'a>(op: &str, h: &'a Value) -> Result<&'a [Value]> {
            h.as_list()
                .ok_or_else(|| DjError::op(op, "expected list fingerprint"))
        }
        fn para_key(op: &str, p: &Value) -> Result<i64> {
            p.as_int()
                .ok_or_else(|| DjError::op(op, "expected int paragraph hash"))
        }
        if num_workers <= 1 {
            // Stream the borrowed fingerprints directly — no typed copy of
            // every paragraph hash on the common sequential path.
            let mut seen = dj_hash::FxHashSet::default();
            let mut mask = Vec::with_capacity(hashes.len());
            for h in hashes {
                let paras = para_list(self.name(), h)?;
                if paras.is_empty() {
                    mask.push(true); // nothing to compare; keep
                    continue;
                }
                let mut any_new = false;
                for p in paras {
                    if seen.insert(para_key(self.name(), p)?) {
                        any_new = true;
                    }
                }
                mask.push(any_new);
            }
            return Ok(mask);
        }
        let paragraphs: Vec<Vec<i64>> = hashes
            .iter()
            .map(|h| {
                para_list(self.name(), h)?
                    .iter()
                    .map(|p| para_key(self.name(), p))
                    .collect()
            })
            .collect::<Result<_>>()?;
        Ok(ParallelDedup::new(num_workers).paragraph_mask(&paragraphs))
    }
}

fn check_len(op: &str, samples: usize, hashes: &[Value]) -> Result<()> {
    if samples != hashes.len() {
        return Err(DjError::op(
            op,
            format!("{} hashes for {samples} samples", hashes.len()),
        ));
    }
    Ok(())
}

fn limbs(v: &Value, op: &str) -> Result<(i64, i64)> {
    let l = v
        .as_list()
        .filter(|l| l.len() == 2)
        .ok_or_else(|| DjError::op(op, "expected 2-limb fingerprint"))?;
    match (l[0].as_int(), l[1].as_int()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(DjError::op(op, "fingerprint limbs must be ints")),
    }
}

fn signature(v: &Value, op: &str) -> Result<Vec<u64>> {
    v.as_list()
        .ok_or_else(|| DjError::op(op, "expected signature list"))?
        .iter()
        .map(|x| {
            x.as_int()
                .map(|i| i as u64)
                .ok_or_else(|| DjError::op(op, "signature entries must be ints"))
        })
        .collect()
}

/// Run a deduplicator end-to-end on a dataset (hash phase then mask phase),
/// returning the deduplicated dataset and the number of removed samples.
pub fn run_dedup(dedup: &dyn Deduplicator, mut dataset: Dataset) -> Result<(Dataset, usize)> {
    let mut ctx = SampleContext::new();
    let mut hashes = Vec::with_capacity(dataset.len());
    for s in dataset.iter() {
        ctx.invalidate();
        hashes.push(dedup.compute_hash(s, &mut ctx)?);
    }
    let mask = dedup.keep_mask(dataset.len(), &hashes)?;
    let removed = mask.iter().filter(|&&k| !k).count();
    dataset.retain_mask(&mask);
    Ok((dataset, removed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(texts: &[&str]) -> Dataset {
        Dataset::from_texts(texts.iter().copied())
    }

    #[test]
    fn exact_dedup_keeps_first_occurrence() {
        let d = ds(&["a", "b", "a", "c", "b"]);
        let (out, removed) = run_dedup(&DocumentDeduplicator::new(), d).unwrap();
        assert_eq!(removed, 2);
        let texts: Vec<_> = out.iter().map(|s| s.text()).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
    }

    #[test]
    fn normalized_dedup_catches_reformatted() {
        let d = ds(&["Hello, World!", "hello world", "different"]);
        let (out, removed) = run_dedup(&DocumentDeduplicator::normalized(), d).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(out.len(), 2);
        // Exact mode keeps both variants.
        let d2 = ds(&["Hello, World!", "hello world", "different"]);
        let (out2, _) = run_dedup(&DocumentDeduplicator::new(), d2).unwrap();
        assert_eq!(out2.len(), 3);
    }

    const LONG_BASE: &str = "the data juicer system processes massive heterogeneous corpora for \
         large language model pretraining with composable operators and tools \
         the pipeline applies filters mappers and deduplicators in sequence \
         producing refined recipes that improve downstream model quality";

    #[test]
    fn minhash_catches_near_duplicates() {
        let base = LONG_BASE;
        let near = format!("{base} indeed truly");
        let far = "completely unrelated text about gardening tomatoes in the greenhouse \
                   with notes on watering schedules and soil acidity levels for beginners";
        let d = ds(&[base, &near, far]);
        let (out, removed) = run_dedup(&MinHashDeduplicator::default_config(), d).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(0).unwrap().text(), base);
    }

    #[test]
    fn wrong_length_signatures_are_an_error_not_a_panic() {
        let dedup = MinHashDeduplicator::default_config();
        let short = vec![Value::List(vec![Value::Int(1)]); 2];
        for workers in [1, 2] {
            let err = dedup.keep_mask_parallel(2, &short, workers).unwrap_err();
            assert!(
                err.to_string().contains("expected 16 bands × 8 rows = 128"),
                "workers={workers}: {err}"
            );
        }
        // One good signature next to one bad one is still refused.
        let mut ctx = SampleContext::new();
        let good = dedup
            .compute_hash(&Sample::from_text(LONG_BASE), &mut ctx)
            .unwrap();
        let mixed = vec![good.clone(), Value::List(vec![Value::Int(1); 129])];
        for workers in [1, 2] {
            assert!(dedup.keep_mask_parallel(2, &mixed, workers).is_err());
        }
        let fine = vec![good.clone(), good];
        assert_eq!(
            dedup.keep_mask_parallel(2, &fine, 2).unwrap(),
            vec![true, false]
        );
    }

    #[test]
    fn simhash_catches_near_duplicates() {
        let base = LONG_BASE;
        let near = format!("{base} indeed truly");
        let far = "gardening tomatoes greenhouse watering schedule soil acidity compost \
                   seeds sunlight harvest pruning fertilizer mulch irrigation beds";
        let d = ds(&[base, &near, far]);
        let (out, removed) = run_dedup(&SimHashDeduplicator::new(3).unwrap(), d).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn paragraph_dedup_drops_fully_seen_docs() {
        let d = ds(&[
            "para one\n\npara two",
            "para two\n\npara three", // has a new paragraph → kept
            "para one\n\npara three", // all paragraphs already seen → dropped
            "",                       // empty → kept
        ]);
        let (out, removed) = run_dedup(&ParagraphDeduplicator::new(), d).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn dedup_on_large_duplicated_corpus() {
        // 200 docs, every 4th is a duplicate of doc i-4.
        let texts: Vec<String> = (0..200)
            .map(|i| {
                if i % 4 == 3 {
                    format!("unique document number {} with some padding words", i - 3)
                } else {
                    format!("unique document number {i} with some padding words")
                }
            })
            .collect();
        let d = Dataset::from_texts(texts);
        let (out, removed) = run_dedup(&DocumentDeduplicator::new(), d).unwrap();
        assert_eq!(removed, 50);
        assert_eq!(out.len(), 150);
    }

    #[test]
    fn config_validation() {
        assert!(MinHashDeduplicator::new(1.5, 4, 4, 3).is_err());
        assert!(MinHashDeduplicator::new(0.5, 0, 4, 3).is_err());
        assert!(SimHashDeduplicator::new(40).is_err());
    }

    #[test]
    fn mask_length_mismatch_is_error() {
        let dedup = DocumentDeduplicator::new();
        let d = ds(&["a", "b"]);
        let err = dedup.keep_mask(d.len(), &[]).unwrap_err();
        assert!(err.to_string().contains("0 hashes for 2 samples"));
    }

    #[test]
    fn empty_dataset_roundtrip() {
        let (out, removed) = run_dedup(&DocumentDeduplicator::new(), Dataset::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(removed, 0);
    }

    /// The `hash_field` contract: for every built-in deduplicator,
    /// `compute_hash_text(sample.text_at(field))` must equal
    /// `compute_hash(sample)` — the zero-copy slab hash pass relies on it.
    #[test]
    fn compute_hash_text_matches_compute_hash() {
        let d = ds(&[
            LONG_BASE,
            "",
            "para one\n\npara two",
            "Ünïcødé ♥ 中文 🦀 mixed-script text",
            "Hello, World!",
        ]);
        let dedups: Vec<Box<dyn Deduplicator>> = vec![
            Box::new(DocumentDeduplicator::new()),
            Box::new(DocumentDeduplicator::normalized()),
            Box::new(MinHashDeduplicator::default_config()),
            Box::new(SimHashDeduplicator::new(3).unwrap()),
            Box::new(ParagraphDeduplicator::new()),
        ];
        for dedup in &dedups {
            let field = dedup
                .hash_field()
                .expect("built-ins are single-field")
                .to_string();
            for s in d.iter() {
                let mut ctx = SampleContext::new();
                let whole = dedup.compute_hash(s, &mut ctx).unwrap();
                let mut ctx = SampleContext::new();
                let text_only = dedup
                    .compute_hash_text(s.text_at(&field), &mut ctx)
                    .unwrap();
                assert_eq!(whole, text_only, "{}", dedup.name());
            }
        }
    }

    /// Every deduplicator's parallel mask must be identical to its
    /// sequential mask (the executor treats workers as a pure perf knob).
    #[test]
    fn parallel_keep_mask_matches_sequential() {
        let base = LONG_BASE;
        let near = format!("{base} indeed truly");
        let texts: Vec<String> = (0..40)
            .map(|i| match i % 5 {
                0 => base.to_string(),
                1 => near.clone(),
                2 => format!("unique document number {i} about methodology\n\nshared para"),
                3 => "shared para".to_string(),
                _ => format!("unique document number {i} about methodology"),
            })
            .collect();
        let d = Dataset::from_texts(texts);
        let dedups: Vec<Box<dyn Deduplicator>> = vec![
            Box::new(DocumentDeduplicator::new()),
            Box::new(MinHashDeduplicator::default_config()),
            Box::new(SimHashDeduplicator::new(3).unwrap()),
            Box::new(ParagraphDeduplicator::new()),
        ];
        for dedup in &dedups {
            let mut ctx = SampleContext::new();
            let hashes: Vec<Value> = d
                .iter()
                .map(|s| {
                    ctx.invalidate();
                    dedup.compute_hash(s, &mut ctx).unwrap()
                })
                .collect();
            let sequential = dedup.keep_mask(d.len(), &hashes).unwrap();
            assert!(
                sequential.iter().any(|&k| !k),
                "{} must drop something",
                dedup.name()
            );
            for workers in [1usize, 2, 3, 4, 8] {
                let parallel = dedup.keep_mask_parallel(d.len(), &hashes, workers).unwrap();
                assert_eq!(parallel, sequential, "{} workers={workers}", dedup.name());
            }
        }
    }
}
