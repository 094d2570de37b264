//! Seeded workload inputs, recipes, set-up and reference digests.
//!
//! Everything here is a pure function of the seed: the same seed gives
//! byte-identical corpora, and the engine only ever sees the generated
//! samples (or the JSONL file written from them).

use std::path::Path;

use dj_bench::baselines::{matched_dj_ops, MatchedPipeline};
use dj_bench::workloads::redpajama_like;
use dj_config::{recipes, Recipe};
use dj_core::{Dataset, Op, Result, Value, WorkerPool};
use dj_exec::{ExecOptions, Executor, RunReport, Runtime, RuntimeConfig};
use dj_hash::{fnv1a, Fnv1a};
use dj_io::EgressManifest;
use dj_synth::{web_corpus, WebNoise};

/// `redpajama_like` scale for `refine-mem` (~11.6k samples, ~10 MB).
pub const REFINE_SCALE: usize = 3000;
/// C4 documents in the `c4-file-spill` corpus (~35 MB of JSONL).
pub const C4_DOCS: usize = 30_000;
/// C4 documents per small `serve-mix` job.
pub const SERVE_SMALL_DOCS: usize = 600;
/// Distinct small-job inputs `serve-mix` cycles through (each has a solo
/// reference digest).
pub const SERVE_SMALL_INPUTS: usize = 7;
/// C4 documents in the big file-to-file `serve-mix` job.
pub const SERVE_BIG_DOCS: usize = 2000;
/// Runtime admission limit in `serve-mix`.
pub const SERVE_MAX_JOBS: usize = 2;

/// The two recipes the workloads run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum RecipeKind {
    /// `pretrain-commoncrawl-refine`: 17 samplewise ops, exact + MinHash dedup.
    Refine,
    /// The Fig. 8 matched pipeline: 2 mappers, 5 filters, exact dedup.
    Matched,
}

/// A derived sub-seed, so that sub-corpora of one run never share a stream.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        >> 1
}

pub fn refine_corpus(seed: u64) -> Dataset {
    redpajama_like(seed, REFINE_SCALE)
}

/// Fig. 8-style C4 documents that also carry `url` and `headers`
/// metadata columns no op of the matched pipeline reads.
pub fn c4_meta_corpus(seed: u64, docs: usize) -> Dataset {
    let mut data = web_corpus(seed, docs, WebNoise::default());
    let servers = ["nginx/1.18", "apache/2.4", "envoy", "cloudflare"];
    for (i, s) in data.samples_mut().iter_mut().enumerate() {
        let root = s.value_mut();
        let url = format!("https://c4.example.org/{seed:x}/doc/{i}");
        let server = servers[(seed as usize + i) % servers.len()];
        let headers =
            format!("content-type: text/html; charset=utf-8; server: {server}; x-doc: {i}; ")
                .repeat(5 + i % 5);
        // Only fails on a non-map root, which synthetic samples never have.
        let _ = root.set_path("url", Value::Str(url));
        let _ = root.set_path("headers", Value::Str(headers));
    }
    data
}

/// Parse the recipe (refine) or assemble it (matched) and build its ops.
pub fn build_ops(kind: RecipeKind) -> Result<Vec<Op>> {
    match kind {
        RecipeKind::Refine => {
            let yaml = recipes::commoncrawl_refine().to_yaml();
            Recipe::from_yaml(&yaml)?.build_ops(&dj_ops::builtin_registry())
        }
        RecipeKind::Matched => Ok(matched_dj_ops(MatchedPipeline::default())),
    }
}

/// The ops of the other recipe, those `ops` lacks. They run as off-path
/// probes on this workload's data, so every workload reports every op.
pub fn other_recipe_ops(ops: &[Op]) -> Result<Vec<Op>> {
    let mut out: Vec<Op> = Vec::new();
    for kind in [RecipeKind::Refine, RecipeKind::Matched] {
        for op in build_ops(kind)? {
            if !ops.iter().chain(&out).any(|o| o.name() == op.name()) {
                out.push(op);
            }
        }
    }
    Ok(out)
}

/// One set-up: recipe parse + `build_ops`, construction of the model the
/// recipe's language filter uses, the service runtime (serve only) and a
/// width-`np` pool section. The first call also pays the process-wide
/// first use of the default models.
pub fn set_up(kind: RecipeKind, np: usize, runtime: bool) -> Result<Vec<Op>> {
    let ops = build_ops(kind)?;
    if kind == RecipeKind::Refine {
        std::hint::black_box(dj_text::LangIdModel::builtin());
        std::hint::black_box(dj_ops::models::default_langid());
        std::hint::black_box(dj_ops::models::default_perplexity_model());
    }
    if runtime {
        std::hint::black_box(Runtime::new(service_config()));
    }
    empty_pool_section(np);
    Ok(ops)
}

/// One empty width-`np` section on the process-wide worker pool.
pub fn empty_pool_section(np: usize) {
    WorkerPool::global().run_indexed(np, np, std::hint::black_box);
}

pub fn service_config() -> RuntimeConfig {
    RuntimeConfig {
        max_jobs: SERVE_MAX_JOBS,
        ..RuntimeConfig::default()
    }
}

pub fn mem_options(np: usize) -> ExecOptions {
    ExecOptions {
        num_workers: np,
        ..ExecOptions::default()
    }
}

/// File-to-file options; `spill` forces every stage out of core.
pub fn io_options(np: usize, input: &Path, output: &Path, spill: bool) -> ExecOptions {
    ExecOptions {
        num_workers: np,
        memory_budget: spill.then_some(1),
        input: Some(input.display().to_string()),
        output: Some(output.to_path_buf()),
        ..ExecOptions::default()
    }
}

/// The engine's own peak-memory estimate for a run: resident bytes of the
/// streaming machinery when it spilled, the in-memory dataset estimate
/// otherwise.
pub fn approx_peak(report: &RunReport) -> usize {
    if report.spilled {
        report.peak_resident_bytes
    } else {
        report.peak_bytes
    }
}

pub fn digest(ds: &Dataset) -> u64 {
    fnv1a(dj_store::to_jsonl(ds).as_bytes())
}

/// Digest of a sealed JSONL egress directory: its parts in manifest order,
/// which is the same byte stream as the in-memory output's JSONL.
pub fn egress_digest(dir: &Path) -> Result<(u64, usize)> {
    let manifest = EgressManifest::load(dir)?;
    let mut h = Fnv1a::new();
    for part in &manifest.parts {
        h.update(&std::fs::read(dir.join(&part.file))?);
    }
    Ok((h.finish(), manifest.total_samples))
}

/// The reference: a single-worker in-memory run of the same recipe on
/// the same input. Returns (digest, output samples, seconds).
pub fn reference(ops: &[Op], input: &Dataset) -> Result<(u64, usize, f64)> {
    let t0 = std::time::Instant::now();
    let (out, _) = Executor::new(ops.to_vec())
        .with_options(mem_options(1))
        .run(input.clone())?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((digest(&out), out.len(), secs))
}

pub fn write_jsonl(path: &Path, ds: &Dataset) -> Result<u64> {
    let text = dj_store::to_jsonl(ds);
    std::fs::write(path, &text)?;
    Ok(text.len() as u64)
}
