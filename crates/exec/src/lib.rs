//! # dj-exec — the sharded, pipelined execution engine (paper §6)
//!
//! ## Execution model: whole plan per shard, not whole dataset per op
//!
//! The naive executor of the paper's baseline systems runs *op-at-a-time*:
//! each operator scans the full dataset, all workers join at a barrier, the
//! intermediate dataset is materialized, and the next operator starts cold.
//! This engine inverts that loop:
//!
//! 1. **Plan.** The OP list is compiled into a [`Plan`] of [`PlanStep`]s —
//!    optionally fused & reordered per the Fig. 6 procedure ([`fusion`]).
//! 2. **Stages.** The plan is segmented into [`Stage`]s at the only true
//!    pipeline breakers: deduplicators, which need every sample's
//!    fingerprint before deciding anything. Mappers and filters are
//!    sample-local, so any run of them forms one `Stage::Pipeline`.
//! 3. **Shards.** For each pipeline stage the dataset is split into
//!    contiguous, order-preserving shards
//!    ([`Dataset::into_shards`](dj_core::Dataset::into_shards)). Worker
//!    threads claim shards off a shared queue (morsel-driven scheduling,
//!    over-partitioned ~4× the worker count so fast workers absorb
//!    stragglers) and drive each shard through **every step of the stage**
//!    before touching the next shard. A sample flows through the whole
//!    mapper/filter chain while hot in cache; samples a filter drops never
//!    reach later steps; no intermediate dataset is ever materialized.
//! 4. **Barriers.** At a `Stage::Barrier`, fingerprints are computed
//!    shard-parallel, the dataset-level keep mask is clustered on the
//!    worker pool (`keep_mask_parallel` — the banded hash exchange:
//!    candidate generation partitioned by LSH band / SimHash block /
//!    keyspace range, pairs deduplicated across bands, similarity
//!    verified in parallel, merged through a lock-free concurrent
//!    union-find), each existing shard applies its slice of the mask in
//!    parallel, and shard boundaries **carry through** the barrier: only
//!    shards the mask thins below [`ExecOptions::shard_fill`] × the
//!    pre-barrier average are merged into a neighbor, so a low-duplicate
//!    dataset pays near-zero barrier materialization instead of a full
//!    merge + re-split.
//!
//! Because shards are contiguous and merged in order, the output is
//! byte-identical to sequential single-shard execution for every shard
//! count and worker count (property-tested in `tests/properties.rs`).
//!
//! ## Knobs
//!
//! * [`ExecOptions::num_workers`] — worker threads; defaults to
//!   `available_parallelism` (the recipe's `np` when built via
//!   [`executor_from_recipe`]).
//! * [`ExecOptions::shard_size`] — samples per shard; `None` auto-shards
//!   to `4 × num_workers` shards. Exposed in recipe YAML as `shard_size`.
//! * [`ExecOptions::memory_budget`] / [`ExecOptions::spill_dir`] — the
//!   out-of-core knobs (recipe YAML `memory_budget` / `spill_dir`); see
//!   below.
//! * [`ExecOptions::dedup_parallel`] — cluster dedup barriers on the
//!   worker pool (default true; recipe YAML `dedup_parallel`). The mask
//!   is identical either way — workers are a pure performance knob.
//! * [`ExecOptions::shard_fill`] — post-barrier shard fill threshold in
//!   `[0, 1]` (default 0.5; recipe YAML `shard_fill`; `0.0` disables
//!   rebalancing).
//! * [`ExecOptions::prefetch_depth`] — shards buffered per worker while
//!   streaming (default 2 = double buffering; 1 disables read-ahead;
//!   recipe YAML `prefetch_depth`). The streaming resident ceiling is
//!   `num_workers × prefetch_depth × shard_size` samples.
//! * [`ExecOptions::input`] / [`ExecOptions::output`] /
//!   [`ExecOptions::output_format`] — the file-backed IO knobs for
//!   [`Executor::run_io`] (recipe YAML `input_path` / `output_path` /
//!   `output_format`); see below.
//! * [`ExecOptions::adaptive`] — measurement-driven planning (recipe YAML
//!   `adaptive`; env `DJ_ADAPTIVE=1` enables the *run-local* parts only).
//!   Ranks fusible steps by measured ns/sample ÷ selectivity from the
//!   [`CostModel`], re-plans commutable stage suffixes mid-run, and
//!   auto-tunes unset streaming knobs from a warm model. Output is
//!   byte-identical to the static plan; see `docs/planning.md`.
//! * [`ExecOptions::replan_after_shards`] — shards measured before the
//!   one mid-run replan of each stage (recipe YAML `replan_after_shards`;
//!   default: a quarter of the stage's shards, clamped to `[1, 8]`).
//! * [`ExecOptions::stats_dir`] — directory for the persistent
//!   `planner_stats.djcs` cost sidecar (recipe YAML `stats_dir`). Without
//!   it, measurements persist only when `adaptive` is set per options
//!   *and* a cache is attached (sidecar lives at the cache root).
//! * [`ExecOptions::prefix_cache`] — per-op cache keying (recipe YAML
//!   `prefix_cache`): each step becomes its own cache stage keyed by the
//!   chained fingerprint of every step before it, so editing op *k*
//!   resumes ops `0..k` from cache.
//!
//! ## Out-of-core execution (spill-to-disk)
//!
//! When a `memory_budget` (bytes) is set — per options, per recipe, or via
//! the `DJ_MEMORY_BUDGET` env var — and the estimated dataset size exceeds
//! it, the engine spills the shard queue to disk and streams it:
//!
//! 1. The dataset is cut into shards sized so the streaming live set fits
//!    the budget (an explicit `shard_size` is honored as-is) and each shard
//!    is written to a `dj-store` [`ShardSpool`](dj_store::ShardSpool) — a
//!    directory of length-prefixed, checksummed, atomically-renamed `DJSC`
//!    frame files under `spill_dir` (default: the system temp dir).
//! 2. Each pipeline stage streams spool→spool on the worker pool, at most
//!    one shard per worker resident at a time
//!    (`RunReport::peak_resident_samples` ≤ `num_workers ×
//!    prefetch_depth × shard_size`).
//! 3. When the stage feeding a dedup barrier spills, each shard is
//!    hashed as its frame is written and the fingerprints persist in a
//!    sidecar (fingerprint-on-ingest; see `docs/formats.md`). The
//!    barrier then runs a **single** streaming pass: the dataset-level
//!    mask is clustered from sidecar fingerprints alone — on the worker
//!    pool, exactly like the in-memory barrier — and one pass
//!    re-streams each shard against its slice of the mask
//!    (`RunReport::fingerprinted_barriers` counts these). Without
//!    sidecars the barrier first hashes the dedup's field straight out of
//!    its column region (or, for a dedup without a single hashed field,
//!    by a full-decode streaming pass).
//! 4. Cache/checkpoint entries are streams of `DJSC` frames
//!    (`CacheManager::save_spool` concatenates a spilled stage's frame
//!    files), so persistence and resume never materialize the dataset.
//! 5. Every spilled pipeline stage decodes only the top-level columns
//!    named by its steps' field footprints
//!    ([`Mapper::fields_read`](dj_core::Mapper::fields_read) et al.);
//!    untouched columns splice into the output frame byte-for-byte
//!    without ever materializing values. `RunReport::bytes_decoded` /
//!    `RunReport::bytes_passthrough` account the split, and outputs stay
//!    byte-identical to in-memory runs.
//!
//! ## File-backed execution ([`Executor::run_io`])
//!
//! With [`ExecOptions::input`] set (a JSONL/CSV path or glob), the whole
//! pipeline runs file-to-file as one continuous stream: ingest parses
//! samples and cuts `shard_size` shard frames straight into the spool
//! machinery (the plan's first pipeline stage runs *during* ingest, and
//! ingest-adjacent barriers get fingerprint-on-ingest sidecars), every
//! stage streams as above, and with [`ExecOptions::output`] set the
//! result is written as manifest-tracked shard parts (atomic temp+rename
//! per part, append-only commit log, resumable after a kill; `jsonl` or
//! raw-frame `frames` parts). The resident set stays ≤ `num_workers ×
//! prefetch_depth × shard_size` samples no matter the corpus size, and
//! the output is byte-identical to the in-memory engine on the
//! concatenated corpus (property-tested in `tests/io_roundtrip.rs`).
//!
//! Output is byte-identical to the in-memory path for every budget, worker
//! count and shard size (property-tested in `tests/properties.rs`); spools
//! delete themselves when the run finishes or fails. The final dataset
//! returned by `run()` is materialized once, at the very end, for the
//! caller.
//!
//! ## Reporting & caching
//!
//! Per-shard [`ShardStats`](dj_core::ShardStats) accumulators merge into
//! the per-op [`OpReport`]s (counts add; durations take the cross-shard
//! max), so funnel/tracer/Fig. 4 outputs are unchanged from the
//! op-at-a-time engine. Cache/checkpoint entries (`dj-store`) are keyed on
//! **stage** boundaries — the only points where a full dataset exists —
//! with `RunReport::resumed_steps` still counting covered plan steps.

pub mod cost;
pub mod executor;
pub mod fusion;
pub mod runtime;

pub use cost::{fallback_score, rank_score, CostModel, EWMA_ALPHA, MIN_MEASURED_SAMPLES};
pub use executor::{
    default_parallelism, executor_from_recipe, BarrierDecision, EnvKnobs, ExecOptions, Executor,
    OpReport, RunReport, TraceEvent, ADAPTIVE_ENV, DEFAULT_IO_SHARD_SIZE, DEFAULT_PREFETCH_DEPTH,
    FAULTS_ENV, INPUT_ENV, MEMORY_BUDGET_ENV, RUNTIME_ENV,
};
pub use fusion::{plan_fused, plan_fused_measured, plan_unfused, Plan, PlanStep, Stage};
pub use io::{CorpusReader, EgressManifest, OutputFormat, ShardedWriter};
pub use runtime::{
    global_runtime, JobControl, JobHandle, JobOutput, JobProgress, RetryPolicy, Runtime,
    RuntimeConfig,
};

pub use dj_io as io;
