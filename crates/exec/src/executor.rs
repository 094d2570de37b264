//! The sharded, pipelined executor: whole-plan-per-shard execution with
//! context management, optional fusion/reordering, per-OP tracing,
//! stage-boundary cache/checkpoint resume, and spill-to-disk streaming for
//! datasets larger than the memory budget.
//!
//! See the crate docs for the stage/shard execution model and the
//! out-of-core mode.

use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use dj_core::{
    faults, Dataset, Deduplicator, DjError, FaultGuard, FaultPlan, FieldSet, MemShardStore,
    OnError, Op, ResidencyGauge, Result, Sample, SampleContext, ShardSink, ShardSource, ShardStats,
    Step, Value, WorkerPool,
};
use dj_io::{CorpusReader, ErrorLedger, OutputFormat, ShardedWriter};
use dj_store::{split_column_path, CacheManager, Codec, ShardSpool, STATS_SIDECAR_FILE};

use dj_hash::fnv1a;

use crate::cost::{fallback_score, rank_score, CostModel};
use crate::fusion::{plan_fused_measured, plan_unfused, step_static_cost, Plan, PlanStep, Stage};
use crate::runtime::JobControl;

/// How many shards to cut per worker when `shard_size` is on auto.
/// Over-partitioning lets fast workers steal extra shards (morsel-driven
/// scheduling) instead of idling at the stage join.
const AUTO_SHARDS_PER_WORKER: usize = 4;

/// Codec for spilled shard frames (cheap LZ77: spill IO shrinks without a
/// zstd-class CPU bill).
const SPILL_CODEC: Codec = Codec::Djz;

/// Environment override for [`ExecOptions::memory_budget`] (bytes). Lets CI
/// force the spill path through the whole test suite without touching any
/// recipe (`DJ_MEMORY_BUDGET=1 cargo test`).
pub const MEMORY_BUDGET_ENV: &str = "DJ_MEMORY_BUDGET";

/// Environment override forcing [`ExecOptions::adaptive`] on (`1`, `true`
/// or `yes`; anything else leaves the option as configured). Lets CI run
/// the whole suite with adaptive planning live (`DJ_ADAPTIVE=1 cargo
/// test`).
///
/// Env-forced adaptive enables every *run-local* adaptation — mid-run
/// re-planning, measured barrier gating, model accumulation — all of
/// which are cache-key-neutral and output-identical. Cross-run sidecar
/// persistence (which lets plan-time step order change between runs, and
/// therefore changes stage cache keys) additionally requires an explicit
/// opt-in: `ExecOptions::adaptive = true` with a cache attached, or an
/// explicit [`ExecOptions::stats_dir`].
pub const ADAPTIVE_ENV: &str = "DJ_ADAPTIVE";

/// Environment override routing [`Executor::run`] through the
/// process-wide service runtime (`1`/`true`/`yes`): the dataset is
/// submitted as a job to [`crate::runtime::global_runtime`] and executes
/// on the shared persistent worker pool instead of ad-hoc scoped threads.
/// Output is byte-identical to a direct run, so CI can exercise the
/// pooled path suite-wide (`DJ_RUNTIME=1 cargo test`).
pub const RUNTIME_ENV: &str = "DJ_RUNTIME";

/// Environment fallback for [`ExecOptions::input`] (a JSONL/CSV path or
/// glob), used by [`Executor::run_io`] when the option is unset. Like
/// every other env knob it is snapshotted once at `ExecOptions`
/// construction — a long-lived `dj serve` process gives every job the
/// view that existed when its options were built.
pub const INPUT_ENV: &str = "DJ_INPUT";

/// Environment knob installing a deterministic fault plan for the run
/// (see [`dj_core::faults`] for the grammar: `seed:N` and/or
/// `site:kind[@n]` clauses). Snapshotted like every other knob; a
/// malformed plan is a hard config error. The parsed plan is resolved
/// once per options value, so retry attempts share one plan — and its
/// hit counters — and a transient injected fault fires once, not once
/// per attempt.
pub const FAULTS_ENV: &str = "DJ_FAULTS";

/// A one-shot snapshot of every executor env knob, captured when
/// [`ExecOptions`] is constructed.
///
/// The knobs used to be read straight from the environment at varying
/// points mid-run, which has two failure modes the service runtime makes
/// acute: (a) a long-lived `dj serve` process would hand different jobs
/// different views if the environment changed between reads, and (b) a
/// malformed value was silently ignored by some knobs (`DJ_ADAPTIVE=typo`
/// meant "off") while a hard error in others. The snapshot pins the view
/// per-options-construction, and [`EnvKnobs::validate`] makes every
/// malformed value a hard [`DjError::Config`].
#[derive(Debug, Clone, Default)]
pub struct EnvKnobs {
    memory_budget: Option<String>,
    adaptive: Option<String>,
    runtime: Option<String>,
    input: Option<String>,
    faults: Option<String>,
}

impl EnvKnobs {
    /// Snapshot the current environment.
    pub fn capture() -> EnvKnobs {
        let grab = |name: &str| std::env::var(name).ok();
        EnvKnobs {
            memory_budget: grab(MEMORY_BUDGET_ENV),
            adaptive: grab(ADAPTIVE_ENV),
            runtime: grab(RUNTIME_ENV),
            input: grab(INPUT_ENV),
            faults: grab(FAULTS_ENV),
        }
    }

    /// Parse a boolean force-on knob: `1`/`true`/`yes` forces the option
    /// on, unset/empty/`0`/`false`/`no` leaves it as configured, anything
    /// else is a hard config error.
    fn flag(raw: &Option<String>, name: &str) -> Result<bool> {
        match raw.as_deref().map(str::trim) {
            None | Some("" | "0" | "false" | "no") => Ok(false),
            Some("1" | "true" | "yes") => Ok(true),
            Some(junk) => Err(DjError::Config(format!(
                "{name} must be one of 1/true/yes/0/false/no, got `{junk}`"
            ))),
        }
    }

    /// The `DJ_MEMORY_BUDGET` override in bytes, if set. A malformed
    /// value is a configuration error — silently ignoring it would run
    /// the exact corpus the knob was set to protect fully in memory.
    pub fn memory_budget(&self) -> Result<Option<u64>> {
        let Some(raw) = self.memory_budget.as_deref().map(str::trim) else {
            return Ok(None);
        };
        if raw.is_empty() {
            return Ok(None);
        }
        match raw.parse::<u64>() {
            Ok(b) if b >= 1 => Ok(Some(b)),
            _ => Err(DjError::Config(format!(
                "{MEMORY_BUDGET_ENV} must be a positive integer byte count, got `{raw}`"
            ))),
        }
    }

    /// Whether `DJ_ADAPTIVE` forces adaptive planning on.
    pub fn adaptive(&self) -> Result<bool> {
        Self::flag(&self.adaptive, ADAPTIVE_ENV)
    }

    /// Whether `DJ_RUNTIME` routes `run` through the service runtime.
    pub fn runtime(&self) -> Result<bool> {
        Self::flag(&self.runtime, RUNTIME_ENV)
    }

    /// The `DJ_INPUT` corpus pattern fallback, if set and non-empty.
    pub fn input(&self) -> Option<&str> {
        self.input
            .as_deref()
            .map(str::trim)
            .filter(|s| !s.is_empty())
    }

    /// The `DJ_FAULTS` fault plan, parsed fresh. Callers that retry must
    /// parse once and share the plan (see [`FAULTS_ENV`]); the executor
    /// does this through `ExecOptions::resolved_faults`.
    pub fn faults(&self) -> Result<Option<Arc<FaultPlan>>> {
        let Some(raw) = self.faults.as_deref().map(str::trim) else {
            return Ok(None);
        };
        if raw.is_empty() {
            return Ok(None);
        }
        FaultPlan::parse(raw).map(|p| Some(Arc::new(p)))
    }

    /// Hard-validate every knob at once (run entry points call this so a
    /// typo fails the run up front, not at whichever point first consults
    /// the knob).
    pub fn validate(&self) -> Result<()> {
        self.memory_budget()?;
        self.adaptive()?;
        self.runtime()?;
        self.faults()?;
        Ok(())
    }
}

/// Minimum samples *per worker* before the parallel dedup barrier
/// clustering pays for its thread-spawn cost; smaller inputs cluster
/// sequentially (the mask is identical either way).
pub const MIN_BARRIER_SAMPLES_PER_WORKER: usize = 1024;

/// Auto-tune target: size shards so one shard costs roughly this much
/// wall time (balances scheduling overhead against work-stealing
/// granularity).
const SHARD_TARGET_SECONDS: f64 = 0.05;

/// Tunable keys recorded in the stats sidecar.
const TUNE_SAMPLES_PER_SEC: &str = "samples_per_sec";
const TUNE_SHARD_MS: &str = "shard_ms";

/// Monotonic suffix so concurrent runs in one process never share a spill
/// directory.
static SPILL_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Number of worker threads (the recipe's `np`).
    pub num_workers: usize,
    /// Enable OP fusion + reordering (§6).
    pub op_fusion: bool,
    /// How many trace examples to keep per OP (0 disables tracing).
    pub trace_examples: usize,
    /// Target samples per shard. `None` = auto: cut
    /// `num_workers * 4` shards so workers can steal work from stragglers.
    pub shard_size: Option<usize>,
    /// Peak dataset bytes the engine may keep in memory. When the estimated
    /// dataset size exceeds this, shards spill to disk and stages stream
    /// them with double-buffered prefetch (out-of-core mode). `None`
    /// disables spilling unless the `DJ_MEMORY_BUDGET` env var is set.
    pub memory_budget: Option<u64>,
    /// Directory for spilled shard frames; `None` = the system temp dir.
    /// Each run creates (and removes on completion) its own subdirectories.
    pub spill_dir: Option<PathBuf>,
    /// Run the dedup barrier's clustering (the banded hash exchange) on
    /// the worker pool. When false — or when `num_workers == 1` — the
    /// barrier clusters sequentially. The mask is identical either way.
    pub dedup_parallel: bool,
    /// Post-barrier shard fill threshold in `[0, 1]`: after a dedup mask
    /// is applied per shard, adjacent shards whose fill ratio (relative to
    /// the pre-barrier average shard size) falls below this are merged, so
    /// a low-duplicate dataset keeps its shard boundaries intact instead
    /// of paying a full merge + re-split. `0.0` disables rebalancing.
    pub shard_fill: f64,
    /// Streaming prefetch depth: how many shards may be in flight *per
    /// worker* while stages stream (loader hand + channel + worker hands),
    /// bounding the live set at `num_workers × prefetch_depth` shards.
    /// `2` (the default) is classic double buffering — disk reads overlap
    /// compute. `1` disables the loader thread entirely: workers pull
    /// shards themselves, halving the resident bound at the cost of IO
    /// overlap. Must be ≥ 1; validated at run time.
    pub prefetch_depth: usize,
    /// Input corpus for [`Executor::run_io`]: a file path or glob
    /// (`data/*.jsonl`) of JSONL/CSV files, streamed and cut into
    /// `shard_size` shards without ever materializing the corpus.
    pub input: Option<String>,
    /// Output directory for [`Executor::run_io`]: the processed corpus is
    /// written as manifest-tracked shard parts (see `dj_io::ShardedWriter`)
    /// instead of being returned in memory.
    pub output: Option<PathBuf>,
    /// Egress file format when `output` is set.
    pub output_format: OutputFormat,
    /// Enable the adaptive, measurement-driven planner: plan-time step
    /// reordering from the persisted cost model, mid-run re-planning
    /// after the first shards of a stage, measured barrier gating and
    /// knob auto-tuning. Also forced on by the `DJ_ADAPTIVE` env var
    /// (see [`ADAPTIVE_ENV`] for what the env force does *not* enable).
    pub adaptive: bool,
    /// After how many shards of a pipeline stage the mid-run replanner
    /// re-ranks the remaining commutable steps from live measurements.
    /// `None` = auto (a quarter of the stage's shards, clamped to
    /// `[1, 8]`). Only meaningful when adaptive planning is in force.
    pub replan_after_shards: Option<usize>,
    /// Where the cost-model sidecar lives. `None` = under the cache root
    /// when [`ExecOptions::adaptive`] is set and a cache is attached;
    /// set explicitly to persist measurements for cache-less runs (e.g.
    /// `run_io`).
    pub stats_dir: Option<PathBuf>,
    /// Per-op prefix caching: segment the plan into one stage per step so
    /// every step's output is cached under a chained prefix fingerprint —
    /// editing op *k* of an *n*-op stage resumes ops `0..k` from cache
    /// instead of recomputing the whole stage. Costs a dataset
    /// materialization per step, so it is opt-in (iterative recipe
    /// development, not production throughput). Only applies to cached
    /// runs.
    pub prefix_cache: bool,
    /// Snapshot of the executor env knobs, captured when these options
    /// were constructed. All env reads go through this snapshot so a
    /// long-lived service process gives every job a consistent view.
    pub env: EnvKnobs,
    /// The owning service job, when this run was submitted through the
    /// runtime: cancellation checks, shard-progress counters and
    /// admission-control accounting hang off it. `None` for direct runs.
    pub job: Option<Arc<JobControl>>,
    /// What to do when a single record fails — a malformed ingest line
    /// or a sample an OP rejects. `Fail` (default) aborts the run;
    /// `Skip` drops the record; `Quarantine` drops it and preserves it
    /// in a checksummed sidecar next to the egress manifest.
    pub on_error: OnError,
    /// Error budget for `Skip`/`Quarantine`: the run fails once
    /// `(skipped + quarantined) / records_seen` exceeds this ratio.
    /// `1.0` (default) never trips.
    pub max_error_ratio: f64,
    /// Deterministic fault plan for chaos testing. Explicitly set plans
    /// win over the `DJ_FAULTS` snapshot; the plan's per-site hit
    /// counters live in the `Arc`, so handing the *same* plan to every
    /// retry attempt makes an injected transient fault fire exactly on
    /// its programmed hit and never again.
    pub faults: Option<Arc<FaultPlan>>,
    /// One-shot resolution of `faults`-or-env, shared by clones of this
    /// options value (and therefore by retry attempts). Public only so
    /// functional-update construction (`..ExecOptions::default()`) works
    /// outside this crate; leave it defaulted.
    #[doc(hidden)]
    pub resolved_faults: OnceLock<Option<Arc<FaultPlan>>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            num_workers: default_parallelism(),
            op_fusion: true,
            trace_examples: 0,
            shard_size: None,
            memory_budget: None,
            spill_dir: None,
            dedup_parallel: true,
            shard_fill: DEFAULT_SHARD_FILL,
            prefetch_depth: DEFAULT_PREFETCH_DEPTH,
            input: None,
            output: None,
            output_format: OutputFormat::Jsonl,
            adaptive: false,
            replan_after_shards: None,
            stats_dir: None,
            prefix_cache: false,
            env: EnvKnobs::capture(),
            job: None,
            on_error: OnError::Fail,
            max_error_ratio: 1.0,
            faults: None,
            resolved_faults: OnceLock::new(),
        }
    }
}

/// Default post-barrier shard fill threshold.
pub const DEFAULT_SHARD_FILL: f64 = 0.5;

/// Default streaming prefetch depth (double buffering).
pub const DEFAULT_PREFETCH_DEPTH: usize = 2;

/// Shard size for file-backed runs when the recipe leaves `shard_size` on
/// auto — a fixed cut is required because the corpus length is unknown
/// until the stream is dry.
pub const DEFAULT_IO_SHARD_SIZE: usize = 1024;

/// The machine's available parallelism (fallback 1).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ExecOptions {
    /// How many shards to cut for a dataset of `len` samples.
    fn shard_count(&self, len: usize) -> usize {
        if len == 0 {
            return 1;
        }
        let n = match self.shard_size {
            Some(size) => len.div_ceil(size.max(1)),
            None => {
                let workers = self.num_workers.max(1);
                if workers == 1 {
                    1
                } else {
                    workers * AUTO_SHARDS_PER_WORKER
                }
            }
        };
        n.clamp(1, len)
    }
}

/// A recorded per-OP observation for the interactive tracer (§4.2).
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A sample a Filter discarded, with the stats that decided it.
    Discarded {
        text: String,
        stats: Vec<(String, f64)>,
    },
    /// A Mapper edit: before/after pair.
    Edited { before: String, after: String },
    /// A Deduplicator drop: the dropped near-duplicate's text.
    Duplicate { dropped: String },
}

/// Per-OP execution report.
#[derive(Debug, Clone)]
pub struct OpReport {
    pub name: String,
    pub samples_in: usize,
    pub samples_out: usize,
    /// Samples removed (filters/dedups) at this step.
    pub removed: usize,
    /// Samples whose text a mapper changed.
    pub changed: usize,
    /// The step's critical-path time: the maximum across shards of the
    /// time each shard spent inside this step.
    pub duration: Duration,
    pub fused: bool,
    /// Decompressed spill bytes decoded to run this step (spilled stages
    /// only; every step of a stage reports the stage's shared decode).
    pub bytes_decoded: u64,
    pub trace: Vec<TraceEvent>,
}

/// Whole-pipeline execution report (feeds the Fig. 4 visualizations and the
/// Fig. 8/9 measurements).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub ops: Vec<OpReport>,
    pub total_duration: Duration,
    pub initial_samples: usize,
    pub final_samples: usize,
    /// Peak approximate dataset heap footprint observed at stage
    /// boundaries while the dataset was held in memory (inside a stage only
    /// one shard per worker is hot).
    pub peak_bytes: usize,
    pub fused_groups: usize,
    /// Plan steps that were resumed from cache instead of executed.
    pub resumed_steps: usize,
    /// Pipeline stages the plan was segmented into.
    pub stages: usize,
    /// Shards cut for the largest pipeline stage.
    pub shards: usize,
    /// Whether the run spilled shards to disk (out-of-core mode).
    pub spilled: bool,
    /// Peak samples simultaneously resident in the streaming stage
    /// machinery. With double-buffered prefetch this stays ≤
    /// `num_workers × 2 × shard_size` — the engine's constant-memory bound
    /// while stages stream spilled shards.
    pub peak_resident_samples: usize,
    /// Approximate heap bytes of those resident samples at the peak.
    pub peak_resident_bytes: usize,
    /// Total wall time spent inside dedup barriers (fingerprinting,
    /// clustering and mask application) — the serial-section share the
    /// banded exchange attacks.
    pub barrier_duration: Duration,
    /// Spilled dedup barriers that skipped their fingerprint streaming
    /// pass because every shard carried a fingerprint sidecar
    /// (fingerprint-on-ingest): the barrier ran as a single mask-apply
    /// pass instead of two streaming passes.
    pub fingerprinted_barriers: usize,
    /// Raw corpus bytes consumed by [`Executor::run_io`]'s ingest stream.
    pub ingest_bytes: u64,
    /// Bytes physically written by the egress writer (resumed parts
    /// excluded).
    pub egress_bytes: u64,
    /// Wall time of the ingest stage (read + parse + first pipeline stage).
    pub ingest_duration: Duration,
    /// Wall time of the egress stage (serialize + write + manifest).
    pub egress_duration: Duration,
    /// Whether adaptive planning was in force for this run (option or
    /// `DJ_ADAPTIVE` env).
    pub adaptive: bool,
    /// Plan steps positioned by measured rank at plan time (warm model).
    pub measured_steps: usize,
    /// Mid-run re-plans performed (at most one per pipeline stage).
    pub replans: usize,
    /// Per-barrier parallel-vs-sequential clustering decisions, in
    /// execution order.
    pub barrier_decisions: Vec<BarrierDecision>,
    /// Shard size the auto-tuner picked from measured throughput, when it
    /// overrode an unset `shard_size`.
    pub tuned_shard_size: Option<usize>,
    /// Prefetch depth the auto-tuner picked, when it overrode the default.
    pub tuned_prefetch_depth: Option<usize>,
    /// Decompressed bytes the spilled stages actually decoded — the
    /// projected columns' share of the spilled data (plus full decodes
    /// where a step declared `FieldSet::All` or tracing was on).
    pub bytes_decoded: u64,
    /// Decompressed bytes of untouched columns that crossed stage
    /// input→output as byte-for-byte splices, never materialized into
    /// `Value`s — the work projection pushdown avoided.
    pub bytes_passthrough: u64,
    /// Records dropped by the `on_error: skip` policy (malformed ingest
    /// lines plus samples an OP rejected).
    pub records_skipped: u64,
    /// Records preserved in the quarantine sidecar by `on_error:
    /// quarantine`.
    pub records_quarantined: u64,
    /// Final bad-record ratio: `(skipped + quarantined) / records seen`.
    pub error_ratio: f64,
}

/// How a dedup barrier's clustering was scheduled: on the worker pool or
/// sequentially, and why.
#[derive(Debug, Clone)]
pub struct BarrierDecision {
    /// The deduplicator's name.
    pub name: String,
    /// Samples entering the barrier.
    pub samples: usize,
    /// Worker threads the clustering actually used.
    pub workers: usize,
    /// Whether the banded parallel exchange ran (`workers > 1`).
    pub parallel: bool,
    /// The gating rule that decided (`"parallel"`, `"disabled"`,
    /// `"single-worker"`, `"small-input"`).
    pub reason: &'static str,
}

/// What the auto-tuner overrode for one run (reported back via
/// [`RunReport::tuned_shard_size`] / [`RunReport::tuned_prefetch_depth`]).
#[derive(Debug, Clone, Copy, Default)]
struct TunedKnobs {
    shard_size: Option<usize>,
    prefetch_depth: Option<usize>,
}

impl RunReport {
    /// The Fig. 4(b) funnel: `(op name, samples remaining after it)`.
    pub fn funnel(&self) -> Vec<(String, usize)> {
        self.ops
            .iter()
            .map(|r| (r.name.clone(), r.samples_out))
            .collect()
    }
}

/// Per-run control block: the residency gauge plus the owning service
/// job (when the run was submitted through the runtime). Threaded through
/// every streaming pass so that (a) resident-sample accounting also
/// mirrors into the job's admission-control counters and the runtime's
/// aggregate gauge, (b) cancellation is observed at every shard
/// boundary, and (c) shard completions feed the job's progress API.
/// Direct runs construct one with no job attached — the gauge behaves
/// exactly as before.
pub(crate) struct RunCtl {
    gauge: ResidencyGauge,
    job: Option<Arc<JobControl>>,
    /// Record-level error policy for this run; shard workers route
    /// per-sample OP failures through it.
    ledger: Option<Arc<ErrorLedger>>,
}

impl RunCtl {
    fn new(job: Option<Arc<JobControl>>, ledger: Option<Arc<ErrorLedger>>) -> RunCtl {
        RunCtl {
            gauge: ResidencyGauge::default(),
            job,
            ledger,
        }
    }

    fn ledger(&self) -> Option<&ErrorLedger> {
        self.ledger.as_deref()
    }

    /// Fail the current shard with [`DjError::Cancelled`] if the owning
    /// job was cancelled. Checked at every shard claim, so a cancelled
    /// job stops within one shard of work per stepper.
    fn check(&self) -> Result<()> {
        match &self.job {
            Some(job) if job.is_cancelled() => Err(DjError::Cancelled),
            _ => Ok(()),
        }
    }

    fn acquire(&self, samples: usize, bytes: usize) {
        self.gauge.acquire(samples, bytes);
        if let Some(job) = &self.job {
            job.acquire(samples, bytes);
        }
    }

    fn release(&self, samples: usize, bytes: usize) {
        self.gauge.release(samples, bytes);
        if let Some(job) = &self.job {
            job.release(samples, bytes);
        }
    }

    /// Record one finished shard toward the job's progress counters.
    fn shard_done(&self) {
        if let Some(job) = &self.job {
            job.note_shard_done();
        }
    }

    fn peak_samples(&self) -> usize {
        self.gauge.peak_samples()
    }

    fn peak_bytes(&self) -> usize {
        self.gauge.peak_bytes()
    }
}

/// Where the dataset lives between stages: in memory as ordered shards
/// (default) or spilled to a disk spool of checksummed shard frames
/// (out-of-core mode).
///
/// The in-memory representation stays sharded *across* stage boundaries —
/// including through dedup barriers — so the engine never pays a full
/// merge + re-split between stages; concatenating the shards in index
/// order is the dataset.
enum StageData {
    Mem(Vec<Dataset>),
    Spilled(ShardSpool),
}

impl StageData {
    fn len(&self) -> usize {
        match self {
            StageData::Mem(shards) => shards.iter().map(Dataset::len).sum(),
            StageData::Spilled(s) => s.total_samples(),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            StageData::Mem(shards) => shards.iter().map(Dataset::approx_bytes).sum(),
            StageData::Spilled(_) => 0,
        }
    }
}

/// Pipeline executor over a fixed OP list.
#[derive(Clone)]
pub struct Executor {
    ops: Vec<Op>,
    pub(crate) options: ExecOptions,
}

impl Executor {
    pub fn new(ops: Vec<Op>) -> Executor {
        Executor {
            ops,
            options: ExecOptions::default(),
        }
    }

    pub fn with_options(mut self, options: ExecOptions) -> Executor {
        self.options = options;
        self
    }

    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// The plan this executor will run (exposed for inspection/tests).
    /// Static ranking — the adaptive path goes through [`Executor::plan_adaptive`].
    pub fn plan(&self) -> Plan {
        self.plan_adaptive(None)
    }

    /// The plan with measured ranking from a cost model (when fusion is
    /// on; unfused plans never reorder).
    pub fn plan_adaptive(&self, model: Option<&CostModel>) -> Plan {
        if self.options.op_fusion {
            plan_fused_measured(&self.ops, model)
        } else {
            plan_unfused(&self.ops)
        }
    }

    /// Whether adaptive planning is in force: the explicit option, or the
    /// `DJ_ADAPTIVE` snapshot (`1`/`true`/`yes`).
    fn effective_adaptive(&self) -> Result<bool> {
        Ok(self.options.adaptive || self.options.env.adaptive()?)
    }

    /// Install the fault plan in force — the explicit option, else the
    /// `DJ_FAULTS` snapshot — for the duration of the returned guard.
    /// Resolution is memoized on the options value so retry attempts
    /// reinstall the *same* plan and its hit counters carry across
    /// attempts: an injected transient fault fires on its programmed
    /// hit, the retry re-runs clean.
    fn fault_guard(&self) -> Result<Option<FaultGuard>> {
        let plan = self
            .options
            .resolved_faults
            .get_or_init(|| match &self.options.faults {
                Some(p) => Some(Arc::clone(p)),
                // `env.validate()` ran at every entry point before this,
                // so a malformed DJ_FAULTS already failed the run.
                None => self.options.env.faults().unwrap_or(None),
            })
            .clone();
        Ok(plan.map(faults::install))
    }

    /// The error ledger for one run attempt: fresh counters per attempt
    /// (a retry re-processes every record), quarantine sidecar attached
    /// next to the egress manifest when one is configured.
    fn new_ledger(&self) -> Result<Arc<ErrorLedger>> {
        let ledger = Arc::new(ErrorLedger::new(
            self.options.on_error,
            self.options.max_error_ratio,
        ));
        if let Some(dir) = &self.options.output {
            ledger.attach_dir(dir)?;
        }
        Ok(ledger)
    }

    /// A fresh spill spool in a run-private directory.
    fn new_spool(&self, slots: usize) -> Result<ShardSpool> {
        ShardSpool::create(self.fresh_spill_dir(), slots, SPILL_CODEC)
    }

    /// Where the cost-model sidecar persists, if anywhere: an explicit
    /// `stats_dir` always wins; otherwise the cache root, but only under
    /// the explicit `adaptive` option — an env-forced adaptive run stays
    /// run-local so `DJ_ADAPTIVE=1` across a test suite cannot reorder
    /// plans (and therefore cache keys) between runs that share a cache.
    fn stats_path(&self, cache: Option<&CacheManager>) -> Option<PathBuf> {
        if let Some(dir) = &self.options.stats_dir {
            return Some(dir.join(STATS_SIDECAR_FILE));
        }
        if self.options.adaptive {
            if let Some(cm) = cache {
                return Some(cm.stats_sidecar_path());
            }
        }
        None
    }

    /// Auto-tune unset performance knobs from a warm model's measured
    /// throughput. `samples` is the input size when it is known up front
    /// (in-memory runs). Returns a tuned executor clone plus what was
    /// tuned, or `None` when nothing changed (cold model, or every knob
    /// explicit).
    fn autotuned(
        &self,
        model: Option<&CostModel>,
        samples: Option<usize>,
    ) -> Option<(Executor, TunedKnobs)> {
        let model = model.filter(|m| m.is_warm())?;
        let mut options = self.options.clone();
        let mut tuned = TunedKnobs::default();
        if options.shard_size.is_none() {
            if let Some(sps) = model.tunable(TUNE_SAMPLES_PER_SEC).filter(|s| *s > 0.0) {
                // Size shards to ~SHARD_TARGET_SECONDS of measured work
                // each: big enough to amortize scheduling, small enough
                // that work stealing can absorb stragglers.
                let mut size = ((sps * SHARD_TARGET_SECONDS) as usize).clamp(64, 1 << 16);
                // A known input is cut into at least one shard per worker:
                // a bigger shard would leave workers idle.
                if let Some(n) = samples {
                    size = size.min(n.div_ceil(options.num_workers.max(1)).max(1));
                }
                options.shard_size = Some(size);
                tuned.shard_size = Some(size);
            }
        }
        if options.prefetch_depth == DEFAULT_PREFETCH_DEPTH {
            if let Some(ms) = model.tunable(TUNE_SHARD_MS) {
                // Tiny measured shards starve workers on handoff latency —
                // deepen the buffer. Chunky shards already overlap IO at 2.
                if ms < 8.0 {
                    options.prefetch_depth = 4;
                    tuned.prefetch_depth = Some(4);
                }
            }
        }
        if tuned.shard_size.is_none() && tuned.prefetch_depth.is_none() {
            return None;
        }
        Some((
            Executor {
                ops: self.ops.clone(),
                options,
            },
            tuned,
        ))
    }

    /// Execute the pipeline. With `DJ_RUNTIME` set (and no job already
    /// attached) the dataset is submitted to the process-wide service
    /// runtime and executes on the shared persistent pool; the result is
    /// byte-identical either way.
    pub fn run(&self, dataset: Dataset) -> Result<(Dataset, RunReport)> {
        if self.options.job.is_none() && self.options.env.runtime()? {
            return crate::runtime::global_runtime().run_direct(self.clone(), dataset);
        }
        self.run_inner(dataset, None)
    }

    /// Execute with cache/checkpoint support: resumes from the longest
    /// cached stage prefix and saves after every stage (§4.1.1).
    pub fn run_with_cache(
        &self,
        dataset: Dataset,
        cache: &CacheManager,
    ) -> Result<(Dataset, RunReport)> {
        self.run_inner(dataset, Some(cache))
    }

    /// Execute the pipeline file-to-file: stream the corpus named by
    /// [`ExecOptions::input`] (a JSONL/CSV path or glob), cut it into
    /// `shard_size` shards that flow straight into the out-of-core stage
    /// machinery, and — when [`ExecOptions::output`] is set — write the
    /// result as manifest-tracked shard parts, returning `None` in place
    /// of a dataset.
    ///
    /// Ingest, every stage and egress all stream: the resident set stays
    /// ≤ `num_workers × prefetch_depth × shard_size` samples no matter how
    /// large the input is. The plan's first pipeline stage runs *during*
    /// ingest (samples flow through it as they are parsed), and when the
    /// stage after it is a dedup barrier each shard is fingerprinted as
    /// its frame is written (fingerprint-on-ingest), so the barrier runs a
    /// single streaming pass. Stage caching is not applied on this path —
    /// file-backed runs are keyed by their input files, not by an
    /// in-memory dataset.
    pub fn run_io(&self) -> Result<(Option<Dataset>, RunReport)> {
        self.options.env.validate()?;
        let _faults = self.fault_guard()?;
        let adaptive = self.effective_adaptive()?;
        // File-backed runs have no cache, so the sidecar only persists
        // under an explicit `stats_dir`.
        let stats_path = if adaptive {
            self.stats_path(None)
        } else {
            None
        };
        let mut model = if adaptive {
            Some(match &stats_path {
                Some(p) => CostModel::load(p),
                None => CostModel::new(),
            })
        } else {
            None
        };
        let tuned = self.autotuned(model.as_ref(), None);
        let (exec, knobs) = match &tuned {
            Some((e, k)) => (e, *k),
            None => (self, TunedKnobs::default()),
        };
        let (out, mut report) = exec.run_io_inner(model.as_ref())?;
        report.adaptive = adaptive;
        report.tuned_shard_size = knobs.shard_size;
        report.tuned_prefetch_depth = knobs.prefetch_depth;
        if let Some(m) = model.as_mut() {
            m.observe_report(&report);
            record_tunables(m, &report);
            if let Some(p) = &stats_path {
                let _ = m.save(p);
            }
        }
        Ok((out, report))
    }

    fn run_io_inner(&self, model: Option<&CostModel>) -> Result<(Option<Dataset>, RunReport)> {
        let depth = self.validated_depth()?;
        let input = match self.options.input.as_deref() {
            Some(p) => p,
            None => self.options.env.input().ok_or_else(|| {
                DjError::Config(
                    "run_io requires ExecOptions::input (a path or glob) or DJ_INPUT".into(),
                )
            })?,
        };
        let plan = self.plan_adaptive(model);
        let stages = plan.stages();
        let start = Instant::now();
        let ledger = self.new_ledger()?;
        let ctl = RunCtl::new(self.options.job.clone(), Some(Arc::clone(&ledger)));
        let budget = self.effective_memory_budget()?;
        let mut report = RunReport {
            fused_groups: plan.fused_groups,
            stages: stages.len(),
            spilled: true,
            measured_steps: plan.measured_steps,
            ..RunReport::default()
        };
        let shard_size = self
            .options
            .shard_size
            .unwrap_or(DEFAULT_IO_SHARD_SIZE)
            .max(1);
        let workers = self.options.num_workers.max(1);
        let reader = CorpusReader::from_pattern(input)?.with_ledger(Arc::clone(&ledger));

        // The ingest stage runs the plan's first pipeline stage while the
        // corpus streams in; a leading barrier ingests raw shards instead.
        let (ingest_steps, remaining): (&[PlanStep], &[Stage]) = match stages.first() {
            Some(Stage::Pipeline { steps, .. }) => (steps.as_slice(), &stages[1..]),
            _ => (&[][..], &stages[..]),
        };
        let fp_dedup = next_barrier(remaining, 0);
        let cap = self.options.trace_examples;

        let ingest_start = Instant::now();
        // Slot count 0: the spool grows with the stream — the corpus
        // length is unknown until it is dry.
        let spool = self.new_spool(0)?;
        let spool_ref = &spool;
        let (per_shard, ingest_bytes, ingest_samples) =
            stream_ingest(reader, shard_size, workers, depth, &ctl, |i, shard| {
                let mut ctx = SampleContext::new();
                let outcome =
                    run_stage_on_shard(ingest_steps, shard, &mut ctx, cap, ctl.ledger(), i)?;
                spool_ref.write_shard(i, &outcome.shard)?;
                if let Some(dedup) = fp_dedup {
                    spool_ref.write_fingerprints(i, &hash_shard(dedup, &outcome.shard)?)?;
                }
                Ok((outcome.stats, outcome.traces))
            })?;
        merge_stage_reports(ingest_steps, per_shard, cap, &mut report);
        report.ingest_bytes = ingest_bytes;
        report.initial_samples = ingest_samples as usize;
        report.ingest_duration = ingest_start.elapsed();
        report.shards = report.shards.max(spool.shard_count());

        // Remaining stages run exactly like an out-of-core `run`.
        let mut data = StageData::Spilled(spool);
        for (k, stage) in remaining.iter().enumerate() {
            data = self.execute_stage(
                stage,
                next_barrier(remaining, k + 1),
                data,
                budget,
                &ctl,
                &mut report,
            )?;
        }
        report.final_samples = data.len();

        // Seal the error policy before egress: the budget check fails
        // the run *before* a manifest is written, and a sealed
        // quarantine sidecar lands next to the manifest on success.
        ledger.finish()?;
        report.records_skipped = ledger.records_skipped();
        report.records_quarantined = ledger.records_quarantined();
        report.error_ratio = ledger.error_ratio();

        // Egress: manifest-tracked shard parts, or materialize for the
        // caller when no output directory is configured.
        let egress_start = Instant::now();
        let out = match &self.options.output {
            Some(dir) => {
                self.write_output(dir, &data, &ctl, &mut report)?;
                None
            }
            None => Some(match data {
                StageData::Mem(shards) => Dataset::from_shards(shards),
                StageData::Spilled(spool) => spool.materialize()?,
            }),
        };
        report.egress_duration = egress_start.elapsed();
        report.peak_resident_samples = ctl.peak_samples();
        report.peak_resident_bytes = ctl.peak_bytes();
        report.total_duration = start.elapsed();
        Ok((out, report))
    }

    /// Write the final dataset as manifest-tracked shard parts. JSONL
    /// parts stream shard-by-shard through the worker pool; `frames`
    /// egress of spilled data copies the spool's frames byte-for-byte —
    /// zero decode, zero re-encode.
    fn write_output(
        &self,
        dir: &Path,
        data: &StageData,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<()> {
        let writer = ShardedWriter::create(dir, self.options.output_format)?;
        match (data, self.options.output_format) {
            (StageData::Spilled(spool), OutputFormat::Frames) => {
                for i in 0..spool.shard_count() {
                    let mut frame = Vec::new();
                    spool.copy_shard_frame_into(i, &mut frame)?;
                    writer.store_frame_bytes(i, &frame, spool.shard_len(i).unwrap_or(0))?;
                }
            }
            (StageData::Spilled(spool), OutputFormat::Jsonl) => {
                let workers = self.options.num_workers.max(1);
                let writer_ref = &writer;
                stream_shards(
                    spool,
                    workers,
                    true,
                    self.options.prefetch_depth,
                    ctl,
                    |i, shard| writer_ref.store_shard(i, &shard),
                )?;
            }
            (StageData::Mem(shards), _) => {
                for (i, shard) in shards.iter().enumerate() {
                    writer.store_shard(i, shard)?;
                }
            }
        }
        report.egress_bytes = writer.bytes_written();
        writer.finish()?;
        Ok(())
    }

    /// The memory budget in force: the explicit option, else the
    /// `DJ_MEMORY_BUDGET` env override (bytes), else none. A malformed
    /// override is a configuration error — silently ignoring it would run
    /// the exact corpus the knob was set to protect fully in memory.
    fn effective_memory_budget(&self) -> Result<Option<u64>> {
        if let Some(b) = self.options.memory_budget {
            return Ok(Some(b));
        }
        self.options.env.memory_budget()
    }

    /// The prefetch depth in force, validated: a depth of zero would
    /// deadlock the streaming machinery, so it is a configuration error.
    fn validated_depth(&self) -> Result<usize> {
        if self.options.prefetch_depth < 1 {
            return Err(DjError::Config(
                "prefetch_depth must be >= 1 (2 = double buffering)".into(),
            ));
        }
        Ok(self.options.prefetch_depth)
    }

    /// A unique, run-private directory for one spill spool.
    fn fresh_spill_dir(&self) -> PathBuf {
        let base = self
            .options
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        base.join(format!(
            "dj-spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Shard count for the spill cut: honor an explicit `shard_size`,
    /// otherwise size shards so the streaming live set (2 per worker,
    /// double-buffered) stays under the budget.
    fn spill_shard_count(&self, ds: &Dataset, budget: u64) -> usize {
        let len = ds.len();
        if len == 0 {
            return 1;
        }
        if let Some(size) = self.options.shard_size {
            return len.div_ceil(size.max(1)).clamp(1, len);
        }
        let workers = self.options.num_workers.max(1) as u64;
        let avg = ((ds.approx_bytes() / len).max(1)) as u64;
        let per_shard_bytes = (budget / (2 * workers + 2)).max(1);
        let shard_size = ((per_shard_bytes / avg).max(1)) as usize;
        len.div_ceil(shard_size).clamp(1, len)
    }

    /// Spill in-memory shards to a shard spool when they exceed the
    /// budget (`dj-store`'s `approx_bytes` estimate drives the decision).
    /// The spill cut is budget-derived, so carried boundaries are redrawn
    /// here — the spool must respect the streaming live-set bound.
    ///
    /// `upcoming` is the stage about to consume the spool: when it is a
    /// dedup barrier, each shard is fingerprinted *as its frame is
    /// written* and the fingerprints persist in a sidecar, so the barrier
    /// skips its hash streaming pass entirely (fingerprint-on-ingest).
    fn maybe_spill(
        &self,
        data: StageData,
        budget: Option<u64>,
        upcoming: Option<&dyn Deduplicator>,
        report: &mut RunReport,
    ) -> Result<StageData> {
        let Some(budget) = budget else {
            return Ok(data);
        };
        if data.len() == 0 || data.approx_bytes() as u64 <= budget {
            return Ok(data);
        }
        match data {
            StageData::Mem(shards) => {
                let ds = Dataset::from_shards(shards);
                let shard_count = self.spill_shard_count(&ds, budget);
                let spool = self.new_spool(shard_count)?;
                for (i, shard) in ds.into_shards(shard_count).into_iter().enumerate() {
                    spool.write_shard(i, &shard)?;
                    if let Some(dedup) = upcoming {
                        spool.write_fingerprints(i, &hash_shard(dedup, &shard)?)?;
                    }
                }
                report.spilled = true;
                Ok(StageData::Spilled(spool))
            }
            other => Ok(other),
        }
    }

    /// Orchestrate one adaptive-aware run: load the cost model (when
    /// adaptive is in force and a sidecar location exists), auto-tune
    /// unset knobs from it, execute, then fold this run's measurements
    /// back in and persist. Sidecar IO is advisory — it can never fail
    /// the run.
    fn run_inner(
        &self,
        dataset: Dataset,
        cache: Option<&CacheManager>,
    ) -> Result<(Dataset, RunReport)> {
        self.options.env.validate()?;
        let _faults = self.fault_guard()?;
        let adaptive = self.effective_adaptive()?;
        let stats_path = if adaptive {
            self.stats_path(cache)
        } else {
            None
        };
        let mut model = if adaptive {
            Some(match &stats_path {
                Some(p) => CostModel::load(p),
                None => CostModel::new(),
            })
        } else {
            None
        };
        let tuned = self.autotuned(model.as_ref(), Some(dataset.len()));
        let (exec, knobs) = match &tuned {
            Some((e, k)) => (e, *k),
            None => (self, TunedKnobs::default()),
        };
        let (out, mut report) = exec.run_stages(dataset, cache, model.as_ref())?;
        report.adaptive = adaptive;
        report.tuned_shard_size = knobs.shard_size;
        report.tuned_prefetch_depth = knobs.prefetch_depth;
        if let Some(m) = model.as_mut() {
            m.observe_report(&report);
            record_tunables(m, &report);
            if let Some(p) = &stats_path {
                let _ = m.save(p);
            }
        }
        Ok((out, report))
    }

    /// Plan, resume, and execute the stage sequence (the pre-adaptive
    /// `run_inner`). `model` only influences plan-time step order.
    fn run_stages(
        &self,
        dataset: Dataset,
        cache: Option<&CacheManager>,
        model: Option<&CostModel>,
    ) -> Result<(Dataset, RunReport)> {
        let plan = self.plan_adaptive(model);
        let prefix = self.options.prefix_cache && cache.is_some();
        let stages = if prefix {
            plan.stages_per_step()
        } else {
            plan.stages()
        };
        let keys = stage_cache_keys(&stages, prefix);
        let start = Instant::now();
        let ledger = self.new_ledger()?;
        ledger.note_seen(dataset.len() as u64);
        let ctl = RunCtl::new(self.options.job.clone(), Some(Arc::clone(&ledger)));
        let budget = self.effective_memory_budget()?;
        self.validated_depth()?;
        let mut report = RunReport {
            initial_samples: dataset.len(),
            peak_bytes: dataset.approx_bytes(),
            fused_groups: plan.fused_groups,
            stages: stages.len(),
            measured_steps: plan.measured_steps,
            ..RunReport::default()
        };
        let mut data = StageData::Mem(vec![dataset]);

        // Resume from the longest cached stage prefix. A corrupt or
        // unreadable cache must never fail the run — fall back to fresh
        // execution (the §4.1.1 resilience goal).
        let mut first_stage = 0;
        if let Some(cm) = cache {
            if let Ok(Some((idx, resumed))) = self.resume(cm, &keys, budget) {
                report.spilled = matches!(resumed, StageData::Spilled(_));
                data = resumed;
                first_stage = idx + 1;
                report.resumed_steps = stages[..first_stage].iter().map(Stage::step_count).sum();
            }
        }

        for (i, stage) in stages.iter().enumerate().skip(first_stage) {
            ctl.check()?;
            data = self.execute_stage(
                stage,
                next_barrier(&stages, i + 1),
                data,
                budget,
                &ctl,
                &mut report,
            )?;
            report.peak_bytes = report.peak_bytes.max(data.approx_bytes());
            if let Some(cm) = cache {
                let key = &keys[i].1;
                match &data {
                    // Carried shards persist one frame per shard straight
                    // from the borrowed shards, so caching never forces the
                    // merge (or a clone) the carry-through avoided.
                    StageData::Mem(shards) => cm.save_shards(i, key, shards)?,
                    // Spilled stages persist without materializing: the
                    // spool's frame files concatenate into the entry — no
                    // decode/re-encode, one sequential copy per shard.
                    StageData::Spilled(spool) => cm.save_spool(i, key, spool)?,
                };
            }
        }
        report.final_samples = data.len();
        ledger.finish()?;
        report.records_skipped = ledger.records_skipped();
        report.records_quarantined = ledger.records_quarantined();
        report.error_ratio = ledger.error_ratio();
        report.peak_resident_samples = ctl.peak_samples();
        report.peak_resident_bytes = ctl.peak_bytes();
        report.total_duration = start.elapsed();
        // The caller asked for an in-memory dataset back; this final merge
        // is the one deliberate materialization point of the run.
        let out = match data {
            StageData::Mem(shards) => Dataset::from_shards(shards),
            StageData::Spilled(spool) => spool.materialize()?,
        };
        Ok((out, report))
    }

    /// Load the longest cached stage prefix. Without a budget the entry is
    /// decoded into memory. With one it is rehydrated into a spool by frame
    /// copy and pulled back into memory only when it fits the budget — an
    /// under-budget run never downgrades to out-of-core on resume, and the
    /// probe loads shard by shard, bailing out the moment the budget is
    /// exceeded, so it never holds more than `budget` bytes.
    fn resume(
        &self,
        cm: &CacheManager,
        keys: &[(usize, String)],
        budget: Option<u64>,
    ) -> Result<Option<(usize, StageData)>> {
        let Some(budget) = budget else {
            return Ok(cm
                .latest_match(keys)?
                .map(|(idx, ds)| (idx, StageData::Mem(vec![ds]))));
        };
        let Some((idx, spool)) = cm.latest_match_streamed(keys, self.fresh_spill_dir())? else {
            return Ok(None);
        };
        let data = match materialize_within(&spool, budget)? {
            Some(shards) => StageData::Mem(shards),
            None => StageData::Spilled(spool),
        };
        Ok(Some((idx, data)))
    }

    /// Run one stage over the dataset, spilling first if the budget
    /// demands it. `next_dedup` is the following stage's deduplicator, if
    /// any — spilled pipeline stages fingerprint their output shards for
    /// it as the frames are written (fingerprint-on-ingest), so the
    /// barrier that follows runs in a single streaming pass.
    fn execute_stage(
        &self,
        stage: &Stage,
        next_dedup: Option<&dyn Deduplicator>,
        data: StageData,
        budget: Option<u64>,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<StageData> {
        let upcoming = match stage {
            Stage::Barrier { dedup, .. } => Some(dedup.as_ref()),
            _ => None,
        };
        let data = self.maybe_spill(data, budget, upcoming, report)?;
        Ok(match stage {
            Stage::Pipeline { steps, .. } => match data {
                StageData::Mem(shards) => {
                    StageData::Mem(self.run_pipeline_stage(steps, shards, ctl, report)?)
                }
                StageData::Spilled(spool) => StageData::Spilled(
                    self.run_pipeline_stage_spilled(steps, &spool, next_dedup, ctl, report)?,
                ),
            },
            Stage::Barrier { dedup, .. } => match data {
                StageData::Mem(shards) => {
                    StageData::Mem(self.run_dedup_stage(dedup.as_ref(), shards, report)?)
                }
                StageData::Spilled(spool) => StageData::Spilled(self.run_dedup_stage_spilled(
                    dedup.as_ref(),
                    &spool,
                    ctl,
                    report,
                )?),
            },
        })
    }

    /// Cut fresh (single-shard) data to the configured shard count; reuse
    /// carried multi-shard boundaries as-is — unless barrier rebalancing
    /// merged them below the worker count, in which case carrying them
    /// further would cap stage and hashing parallelism, so the data is
    /// recut. (The recut moves samples, it does not copy their text.)
    fn reshard(&self, mut shards: Vec<Dataset>) -> Vec<Dataset> {
        let desired = self
            .options
            .shard_count(shards.iter().map(Dataset::len).sum());
        let floor = desired.min(self.options.num_workers.max(1));
        let recut = match shards.len() {
            1 => desired > 1,
            n => n < floor,
        };
        if !recut {
            return shards;
        }
        let ds = if shards.len() == 1 {
            shards.pop().expect("one shard")
        } else {
            Dataset::from_shards(shards)
        };
        if desired <= 1 {
            vec![ds]
        } else {
            ds.into_shards(desired)
        }
    }

    /// Worker count for barrier clustering, gated on measured benefit:
    /// the pool size only when the `dedup_parallel` knob is on, more than
    /// one worker is available, *and* the input is large enough to
    /// amortize thread-spawn cost (`MIN_BARRIER_SAMPLES_PER_WORKER`
    /// samples per worker — below that, the `Data-Juicer-seq-barrier`
    /// bench rows show parallel masks losing to sequential). The mask is
    /// identical either way; this is a pure scheduling decision, recorded
    /// in [`RunReport::barrier_decisions`].
    fn barrier_workers(&self, samples: usize) -> (usize, &'static str) {
        let pool = self.options.num_workers.max(1);
        if !self.options.dedup_parallel {
            (1, "disabled")
        } else if pool <= 1 {
            (1, "single-worker")
        } else if samples < pool * MIN_BARRIER_SAMPLES_PER_WORKER {
            (1, "small-input")
        } else {
            (pool, "parallel")
        }
    }

    /// Run the gating decision for one barrier and record it.
    fn gated_mask_workers(
        &self,
        dedup: &dyn Deduplicator,
        samples: usize,
        report: &mut RunReport,
    ) -> usize {
        let (workers, reason) = self.barrier_workers(samples);
        report.barrier_decisions.push(BarrierDecision {
            name: dedup.name().to_string(),
            samples,
            workers,
            parallel: workers > 1,
            reason,
        });
        workers
    }

    /// Build the mid-run replan schedule for a pipeline stage: present
    /// only when adaptive planning is in force, the stage contains a
    /// commutable window (≥ 2 adjacent commutable steps), and the stage
    /// has enough shards both to measure (`replan_after` shards) and to
    /// benefit (at least one shard runs under the revised order).
    fn stage_schedule(&self, steps: &[PlanStep], nshards: usize) -> Option<StageSchedule> {
        // Validation already ran at the run entry point; a malformed knob
        // cannot reach here, so a parse failure just means "not forced".
        if !self.effective_adaptive().unwrap_or(false) || steps.len() < 2 {
            return None;
        }
        let k = self
            .options
            .replan_after_shards
            .unwrap_or((nshards / 4).clamp(1, 8))
            .max(1);
        if nshards <= k {
            return None;
        }
        StageSchedule::new(steps, k)
    }

    /// In-memory pipeline stage: stream the carried shards through the
    /// whole stage, carrying per-shard outcomes onward in shard order
    /// (output order is independent of worker scheduling, so any shard
    /// count produces byte-identical results).
    fn run_pipeline_stage(
        &self,
        steps: &[PlanStep],
        shards: Vec<Dataset>,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<Vec<Dataset>> {
        if steps.is_empty() {
            return Ok(shards);
        }
        let shards = self.reshard(shards);
        let n = shards.len();
        let source = MemShardStore::from_shards(shards);
        let cap = self.options.trace_examples;
        report.shards = report.shards.max(n);
        let workers = self.options.num_workers.max(1).min(n.max(1));
        let depth = self.options.prefetch_depth;
        let sched = self.stage_schedule(steps, n);
        let per_shard = stream_shards(&source, workers, false, depth, ctl, |i, shard| {
            let mut ctx = SampleContext::new();
            // With a schedule, each shard runs whatever step order is
            // current when it starts; its stats/traces are remapped onto
            // canonical positions before merging, and feeding them back may
            // trigger the (single) mid-run replan. Kept samples pass every
            // filter of a commutable window under any order and collect the
            // same (key-sorted) stats, so output is byte-identical.
            let outcome = match &sched {
                None => run_stage_on_shard(steps, shard, &mut ctx, cap, ctl.ledger(), i)?,
                Some(sched) => {
                    let order = sched.order();
                    let raw =
                        run_stage_on_shard(&order.steps, shard, &mut ctx, cap, ctl.ledger(), i)?;
                    let outcome = remap_outcome(&order, raw);
                    sched.observe(&outcome.stats);
                    outcome
                }
            };
            Ok((outcome.shard, (outcome.stats, outcome.traces)))
        })?;
        let (out, per_shard): (Vec<Dataset>, Vec<_>) = per_shard.into_iter().unzip();
        merge_stage_reports(steps, per_shard, cap, report);
        if let Some(sched) = &sched {
            report.replans += sched.replans.load(Ordering::Relaxed);
        }
        Ok(out)
    }

    /// Disk-backed pipeline stage with projection pushdown: compute the
    /// stage's needed-column set from the steps' field footprints, decode
    /// only those regions of each spilled frame, run the stage on the
    /// projected samples, and splice every untouched column from the input
    /// frame into the output frame byte-for-byte. When the next stage is a
    /// dedup barrier its read footprint joins the decode set, and each
    /// output shard is fingerprinted as its frame is written
    /// (fingerprint-on-ingest) so the barrier skips its hash pass.
    fn run_pipeline_stage_spilled(
        &self,
        steps: &[PlanStep],
        spool: &ShardSpool,
        next_dedup: Option<&dyn Deduplicator>,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<ShardSpool> {
        let cap = self.options.trace_examples;
        let n = spool.shard_count();
        report.shards = report.shards.max(n);
        let workers = self.options.num_workers.max(1).min(n.max(1));
        let cols = stage_decode_columns(steps, next_dedup, cap);
        let out = self.new_spool(n)?;
        // Mid-run replanning composes with projection: reordering only
        // permutes commutable steps, which never changes the stage's
        // union footprint, so the decode set stays valid under any order.
        let sched = self.stage_schedule(steps, n);

        type ColShard = (Vec<ShardStats>, Vec<Vec<TraceEvent>>, u64, u64);
        let slots: Vec<Result<ColShard>> = WorkerPool::global().run_indexed(workers, n, |i| {
            ctl.check()?;
            let slab = spool.read_frame_slab(i)?;
            let (projected, decoded) = slab.decode_projected(cols.as_ref())?;
            let (s, b) = (projected.len(), slab.payload_len());
            ctl.acquire(s, b);
            let run = (|| {
                let mut ctx = SampleContext::new();
                let mut outcome = match &sched {
                    None => run_stage_on_shard(steps, projected, &mut ctx, cap, ctl.ledger(), i)?,
                    Some(sched) => {
                        let order = sched.order();
                        let raw = run_stage_on_shard(
                            &order.steps,
                            projected,
                            &mut ctx,
                            cap,
                            ctl.ledger(),
                            i,
                        )?;
                        let outcome = remap_outcome(&order, raw);
                        sched.observe(&outcome.stats);
                        outcome
                    }
                };
                let (frame, passthrough) =
                    slab.splice(&outcome.shard, cols.as_ref(), &outcome.keep, SPILL_CODEC)?;
                out.write_frame_bytes(i, &frame, outcome.shard.len())?;
                if let Some(dedup) = next_dedup {
                    out.write_fingerprints(i, &hash_shard(dedup, &outcome.shard)?)?;
                }
                for st in &mut outcome.stats {
                    st.bytes_decoded = decoded;
                }
                Ok((outcome.stats, outcome.traces, decoded, passthrough))
            })();
            ctl.release(s, b);
            ctl.shard_done();
            run
        });
        let per_shard = slots.into_iter().collect::<Result<Vec<_>>>()?;
        let mut merged = Vec::with_capacity(per_shard.len());
        for (stats, traces, decoded, passthrough) in per_shard {
            report.bytes_decoded += decoded;
            report.bytes_passthrough += passthrough;
            merged.push((stats, traces));
        }
        merge_stage_reports(steps, merged, cap, report);
        if let Some(sched) = &sched {
            report.replans += sched.replans.load(Ordering::Relaxed);
        }
        Ok(out)
    }

    /// A dedup barrier with shard carry-through: fingerprints are computed
    /// shard-parallel, the keep mask is clustered on the worker pool (the
    /// banded hash exchange), each existing shard applies its slice of the
    /// mask in parallel, and only shards that fall below the fill
    /// threshold are merged into a neighbor — a low-duplicate dataset
    /// keeps its shard boundaries and pays near-zero materialization.
    fn run_dedup_stage(
        &self,
        dedup: &dyn dj_core::Deduplicator,
        shards: Vec<Dataset>,
        report: &mut RunReport,
    ) -> Result<Vec<Dataset>> {
        let cap = self.options.trace_examples;
        let t0 = Instant::now();
        let mut shards = self.reshard(shards);
        let nshards = shards.len();
        report.shards = report.shards.max(nshards);
        let in_len: usize = shards.iter().map(Dataset::len).sum();
        let pre_target = in_len.div_ceil(nshards.max(1)).max(1);

        // Pass 1: shard-parallel fingerprints.
        let hashes = self.parallel_hashes(dedup, &shards)?;
        // Clustering: banded exchange on the worker pool (sequential when
        // gated off — the mask is identical either way).
        let mask_pool = self.gated_mask_workers(dedup, in_len, report);
        let mask = dedup.keep_mask_parallel(in_len, &hashes, mask_pool)?;
        drop(hashes);

        // Pass 2: per-shard mask application, in parallel over contiguous
        // shard chunks. Offsets slice the dataset-level mask back onto
        // the existing shard boundaries.
        let mut offsets = Vec::with_capacity(nshards);
        let mut acc = 0usize;
        for s in &shards {
            offsets.push(acc);
            acc += s.len();
        }
        let workers = self.options.num_workers.max(1).min(nshards.max(1));
        let chunk_size = nshards.div_ceil(workers).max(1);
        let mask_ref = &mask;
        let offsets_ref = &offsets[..];
        // Contiguous shard chunks behind per-chunk mutexes: the pool's
        // indexed claim hands each chunk to exactly one stepper, so the
        // `&mut` access is exclusive even though the closure is `Fn`.
        let chunks: Vec<Mutex<&mut [Dataset]>> =
            shards.chunks_mut(chunk_size).map(Mutex::new).collect();
        let chunk_traces: Vec<Vec<Vec<TraceEvent>>> =
            WorkerPool::global().run_indexed(workers, chunks.len(), |c| {
                let mut chunk = chunks[c].lock().expect("mask chunk mutex");
                let mut traces = Vec::with_capacity(chunk.len());
                for (k, shard) in chunk.iter_mut().enumerate() {
                    let start = offsets_ref[c * chunk_size + k];
                    let slice = &mask_ref[start..start + shard.len()];
                    let mut t = Vec::new();
                    for (j, &keep) in slice.iter().enumerate() {
                        if !keep && t.len() < cap {
                            t.push(TraceEvent::Duplicate {
                                dropped: snippet(shard.get(j).expect("index valid").text()),
                            });
                        }
                    }
                    shard.retain_mask(slice);
                    traces.push(t);
                }
                traces
            });
        drop(chunks);
        let mut trace = Vec::new();
        for t in chunk_traces.into_iter().flatten() {
            let room = cap.saturating_sub(trace.len());
            trace.extend(t.into_iter().take(room));
        }
        let removed = mask.iter().filter(|&&k| !k).count();

        // Carry-through: merge only shards the mask thinned below the
        // fill threshold into their left neighbor.
        let min_len = (pre_target as f64 * self.options.shard_fill.clamp(0.0, 1.0)).ceil() as usize;
        let shards = rebalance_shards(shards, min_len);

        let elapsed = t0.elapsed();
        report.barrier_duration += elapsed;
        report.ops.push(OpReport {
            name: dedup.name().to_string(),
            samples_in: in_len,
            samples_out: in_len - removed,
            removed,
            changed: 0,
            duration: elapsed,
            fused: false,
            bytes_decoded: 0,
            trace,
        });
        Ok(shards)
    }

    /// A dedup barrier over spilled data. With fingerprint-on-ingest
    /// sidecars present this is a *single* streaming pass: the hashes are
    /// read from the tiny sidecars, the mask is clustered from them alone,
    /// and one pass re-streams the shards against their mask slice.
    /// Without sidecars the hashes are computed first — from the hashed
    /// field's column alone when the dedup hashes a single field, or by a
    /// full-decode streaming pass otherwise (two passes total).
    fn run_dedup_stage_spilled(
        &self,
        dedup: &dyn dj_core::Deduplicator,
        spool: &ShardSpool,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<ShardSpool> {
        let cap = self.options.trace_examples;
        let n = spool.shard_count();
        let in_len = spool.total_samples();
        let t0 = Instant::now();
        let workers = self.options.num_workers.max(1).min(n.max(1));
        let depth = self.options.prefetch_depth;

        let mut barrier_bytes = 0u64;
        let hashes: Vec<Value> = match spool.read_all_fingerprints()? {
            // Fingerprint-on-ingest fast path: every shard carried a
            // sidecar written while its frame was spilled — the hash
            // streaming pass disappears.
            Some(h) => {
                report.fingerprinted_barriers += 1;
                h
            }
            None => match dedup.hash_field() {
                // Read only the hashed field's column region out of each
                // frame — every other column's bytes never leave disk
                // compression.
                Some(field) => {
                    let (h, bytes) = self.columnar_hashes(dedup, spool, field, ctl)?;
                    barrier_bytes = bytes;
                    h
                }
                // No single hashed field: full-decode streaming hash pass.
                None => stream_shards(spool, workers, true, depth, ctl, |_, shard| {
                    hash_shard(dedup, &shard)
                })?
                .into_iter()
                .flatten()
                .collect(),
            },
        };
        // Clustering: the same banded exchange as the in-memory barrier —
        // only the clustering step changes in spilled mode, the
        // fingerprint and mask-apply passes already stream.
        let mask_pool = self.gated_mask_workers(dedup, in_len, report);
        let mask = dedup.keep_mask_parallel(in_len, &hashes, mask_pool)?;
        drop(hashes);

        // Shard offsets into the dataset-level mask (the shards were
        // spilled with their lengths recorded — the fingerprint tags that
        // let the mask slice back onto each shard).
        let mut offsets = Vec::with_capacity(n);
        let mut acc = 0usize;
        for i in 0..n {
            offsets.push(acc);
            acc += spool.shard_len(i).unwrap_or(0);
        }

        // Pass 2: re-stream each shard against its mask slice.
        let out = self.new_spool(n)?;
        let mask_ref = &mask;
        let offsets_ref = &offsets;
        let out_ref = &out;
        let mut trace = Vec::new();
        if cap == 0 {
            // Fast path: drop masked-out samples by re-writing
            // each frame's entry ranges — no column is ever decoded into
            // `Value`s, so the surviving bytes splice through verbatim.
            // (Duplicate traces need sample text, so a non-zero cap takes
            // the decode path below instead.)
            let slots: Vec<Result<u64>> = WorkerPool::global().run_indexed(workers, n, |i| {
                ctl.check()?;
                let slab = spool.read_frame_slab(i)?;
                let samples = slab.sample_count();
                ctl.acquire(samples, slab.payload_len());
                let run = (|| {
                    let start = offsets_ref[i];
                    let slice = &mask_ref[start..start + samples];
                    let kept = slice.iter().filter(|&&k| k).count();
                    let (frame, passthrough) = slab.filter_frame(slice, SPILL_CODEC)?;
                    out_ref.write_frame_bytes(i, &frame, kept)?;
                    Ok(passthrough)
                })();
                ctl.release(samples, slab.payload_len());
                ctl.shard_done();
                run
            });
            for passthrough in slots.into_iter().collect::<Result<Vec<_>>>()? {
                report.bytes_passthrough += passthrough;
            }
        } else {
            let drop_traces =
                stream_shards(spool, workers, true, depth, ctl, move |i, mut shard| {
                    let start = offsets_ref[i];
                    let slice = &mask_ref[start..start + shard.len()];
                    let mut trace = Vec::new();
                    for (j, &keep) in slice.iter().enumerate() {
                        if !keep && trace.len() < cap {
                            trace.push(TraceEvent::Duplicate {
                                dropped: snippet(shard.get(j).expect("index valid").text()),
                            });
                        }
                    }
                    shard.retain_mask(slice);
                    out_ref.store_shard(i, shard)?;
                    Ok(trace)
                })?;
            for t in drop_traces {
                let room = cap.saturating_sub(trace.len());
                trace.extend(t.into_iter().take(room));
            }
        }
        let removed = mask.iter().filter(|&&k| !k).count();
        let elapsed = t0.elapsed();
        report.barrier_duration += elapsed;
        report.ops.push(OpReport {
            name: dedup.name().to_string(),
            samples_in: in_len,
            samples_out: out.total_samples(),
            removed,
            changed: 0,
            duration: elapsed,
            fused: false,
            bytes_decoded: barrier_bytes,
            trace,
        });
        report.bytes_decoded += barrier_bytes;
        Ok(out)
    }

    /// Shard-parallel `compute_hash` over the carried shards: exactly one
    /// thread per worker, each hashing a contiguous run of *samples* — an
    /// explicit `shard_size` (or uneven carried boundaries) must never
    /// translate into thread count or load imbalance. Fingerprints come
    /// back flattened in shard order.
    fn parallel_hashes(
        &self,
        dedup: &dyn dj_core::Deduplicator,
        shards: &[Dataset],
    ) -> Result<Vec<Value>> {
        let total: usize = shards.iter().map(Dataset::len).sum();
        let workers = self.options.num_workers.max(1).min(total.max(1));
        let hash_samples = |samples: &mut dyn Iterator<Item = &Sample>| -> Result<Vec<Value>> {
            let mut ctx = SampleContext::new();
            let mut out = Vec::new();
            for s in samples {
                ctx.invalidate();
                out.push(dedup.compute_hash(s, &mut ctx)?);
                ctx.clear();
            }
            Ok(out)
        };
        if workers == 1 || total < 2 {
            return hash_samples(&mut shards.iter().flat_map(|s| s.samples().iter()));
        }
        let refs: Vec<&Sample> = shards.iter().flat_map(|s| s.samples().iter()).collect();
        let chunk_size = total.div_ceil(workers);
        let chunks: Vec<&[&Sample]> = refs.chunks(chunk_size).collect();
        let chunk_results: Vec<Result<Vec<Value>>> =
            WorkerPool::global().run_indexed(workers, chunks.len(), |c| {
                hash_samples(&mut chunks[c].iter().copied())
            });
        let mut hashes = Vec::with_capacity(total);
        for r in chunk_results {
            hashes.extend(r?);
        }
        Ok(hashes)
    }

    /// Shard-parallel fingerprints from columnar frames: decompress only
    /// the hashed field's column region per shard and hash the borrowed
    /// texts. Returns the flattened hashes plus the raw bytes decoded (the
    /// projected column's share of the corpus).
    fn columnar_hashes(
        &self,
        dedup: &dyn Deduplicator,
        spool: &ShardSpool,
        field: &str,
        ctl: &RunCtl,
    ) -> Result<(Vec<Value>, u64)> {
        let n = spool.shard_count();
        let workers = self.options.num_workers.max(1).min(n.max(1));
        let (top, rest) = split_column_path(field);
        type ColHashes = (Vec<Value>, u64);
        let slots: Vec<Result<ColHashes>> = WorkerPool::global().run_indexed(workers, n, |i| {
            ctl.check()?;
            let slab = spool.read_frame_slab(i)?;
            let samples = slab.sample_count();
            ctl.acquire(samples, slab.payload_len());
            let run = (|| {
                let mut ctx = SampleContext::new();
                match slab.read_column(top)? {
                    Some(region) => {
                        let bytes = region.raw_len();
                        let texts = region.texts_at(rest)?;
                        let mut out = Vec::with_capacity(texts.len());
                        for t in texts.iter() {
                            ctx.invalidate();
                            out.push(dedup.compute_hash_text(t, &mut ctx)?);
                            ctx.clear();
                        }
                        Ok((out, bytes))
                    }
                    // Column absent from this frame: every sample hashes
                    // the empty string, matching the missing-field
                    // semantics of the full-decode path.
                    None => {
                        let mut out = Vec::with_capacity(samples);
                        for _ in 0..samples {
                            ctx.invalidate();
                            out.push(dedup.compute_hash_text("", &mut ctx)?);
                            ctx.clear();
                        }
                        Ok((out, 0))
                    }
                }
            })();
            ctl.release(samples, slab.payload_len());
            run
        });
        let mut hashes = Vec::new();
        let mut bytes = 0u64;
        for (h, b) in slots.into_iter().collect::<Result<Vec<_>>>()? {
            hashes.extend(h);
            bytes += b;
        }
        Ok((hashes, bytes))
    }
}

/// The deduplicator of `stages[idx]`, if that stage is a barrier.
fn next_barrier(stages: &[Stage], idx: usize) -> Option<&dyn Deduplicator> {
    match stages.get(idx) {
        Some(Stage::Barrier { dedup, .. }) => Some(dedup.as_ref()),
        _ => None,
    }
}

/// Fingerprint every sample of a shard for `dedup`, in shard order.
fn hash_shard(dedup: &dyn Deduplicator, shard: &Dataset) -> Result<Vec<Value>> {
    let mut ctx = SampleContext::new();
    let mut out = Vec::with_capacity(shard.len());
    for s in shard.iter() {
        ctx.invalidate();
        out.push(dedup.compute_hash(s, &mut ctx)?);
        ctx.clear();
    }
    Ok(out)
}

/// Merge per-shard stage outcomes (stats + traces, in shard order) into
/// the run report's per-op entries.
fn merge_stage_reports(
    steps: &[PlanStep],
    per_shard: Vec<(Vec<ShardStats>, Vec<Vec<TraceEvent>>)>,
    cap: usize,
    report: &mut RunReport,
) {
    let mut stats = vec![ShardStats::default(); steps.len()];
    let mut traces: Vec<Vec<TraceEvent>> = vec![Vec::new(); steps.len()];
    for (shard_stats, shard_traces) in per_shard {
        for (k, s) in shard_stats.iter().enumerate() {
            stats[k].merge(s);
        }
        for (k, t) in shard_traces.into_iter().enumerate() {
            let room = cap.saturating_sub(traces[k].len());
            traces[k].extend(t.into_iter().take(room));
        }
    }
    for ((step, stat), trace) in steps.iter().zip(&stats).zip(traces) {
        report.ops.push(OpReport {
            name: step.name(),
            samples_in: stat.samples_in,
            samples_out: stat.samples_out,
            removed: stat.removed,
            changed: stat.changed,
            duration: stat.duration,
            fused: step.is_fused(),
            bytes_decoded: stat.bytes_decoded,
            trace,
        });
    }
}

/// The top-level columns a spilled pipeline stage must decode, or `None`
/// for every column.
///
/// The set is the union of every step's read+write footprint, plus the
/// next barrier's read footprint when fingerprints are computed on spill.
/// Tracing reads sample text and stats outside any op's declared fields,
/// so a non-zero trace cap disables projection rather than producing
/// truncated trace events.
fn stage_decode_columns(
    steps: &[PlanStep],
    next_dedup: Option<&dyn Deduplicator>,
    trace_cap: usize,
) -> Option<BTreeSet<String>> {
    if trace_cap > 0 {
        return None;
    }
    let mut fields = steps
        .iter()
        .fold(FieldSet::none(), |acc, s| acc.union(s.footprint()));
    if let Some(dedup) = next_dedup {
        fields = fields.union(dedup.fields_read());
    }
    fields.top_level_columns()
}

/// The steps of one pipeline stage in a live execution order, plus the
/// permutation back to canonical (plan) positions.
struct StepOrder {
    /// Steps in execution order.
    steps: Vec<PlanStep>,
    /// `canon[pos]` = canonical index of `steps[pos]` — remaps per-shard
    /// stats/traces onto the plan's step list before merging.
    canon: Vec<usize>,
}

/// Live per-step accumulators feeding the mid-run replanner.
struct LiveStageStats {
    ns: Vec<u128>,
    samples_in: Vec<u64>,
    samples_out: Vec<u64>,
    shards_done: usize,
}

/// Mid-run replanner state for one pipeline stage.
///
/// The stage starts under its canonical (plan-time) step order. Every
/// finished shard folds its per-step measurements in; once `replan_after`
/// shards have been measured, the remaining commutable windows are
/// re-ranked by the same cheapest-and-most-selective-first score the
/// plan-time reorderer uses, and later shards run under the revised
/// order. One replan per stage: measurements beyond the trigger point
/// keep accumulating into the run's cost model but do not flip the order
/// again (a mid-run order oscillating per shard would thrash caches for
/// no measurable gain).
///
/// Legality mirrors plan-time reordering exactly: only maximal runs of
/// adjacent [`commutable`](PlanStep::commutable) steps are permuted, so
/// mappers and non-commutable filters pin their positions and output is
/// byte-identical under every order the replanner can pick.
struct StageSchedule {
    /// The canonical step list (plan order) — merge target for stats.
    canonical: Vec<PlanStep>,
    /// Canonical-index ranges within which steps may be permuted.
    windows: Vec<std::ops::Range<usize>>,
    /// The order new shards pick up (swapped atomically at the replan).
    current: Mutex<Arc<StepOrder>>,
    live: Mutex<LiveStageStats>,
    replan_after: usize,
    /// Latch: the first thread past the measurement threshold replans.
    replan_armed: AtomicBool,
    /// Replans that actually changed the order (reported).
    replans: AtomicUsize,
}

impl StageSchedule {
    /// `None` when the stage has no window of ≥ 2 adjacent commutable
    /// steps — nothing could legally move.
    fn new(steps: &[PlanStep], replan_after: usize) -> Option<StageSchedule> {
        let mut windows = Vec::new();
        let mut start = None;
        for (i, step) in steps.iter().enumerate() {
            match (step.commutable(), start) {
                (true, None) => start = Some(i),
                (false, Some(b)) => {
                    if i - b >= 2 {
                        windows.push(b..i);
                    }
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(b) = start {
            if steps.len() - b >= 2 {
                windows.push(b..steps.len());
            }
        }
        if windows.is_empty() {
            return None;
        }
        let canonical = steps.to_vec();
        let identity = Arc::new(StepOrder {
            steps: canonical.clone(),
            canon: (0..canonical.len()).collect(),
        });
        Some(StageSchedule {
            windows,
            current: Mutex::new(identity),
            live: Mutex::new(LiveStageStats {
                ns: vec![0; canonical.len()],
                samples_in: vec![0; canonical.len()],
                samples_out: vec![0; canonical.len()],
                shards_done: 0,
            }),
            canonical,
            replan_after,
            replan_armed: AtomicBool::new(true),
            replans: AtomicUsize::new(0),
        })
    }

    /// The order a shard starting now should execute under.
    fn order(&self) -> Arc<StepOrder> {
        Arc::clone(&self.current.lock().expect("schedule order mutex"))
    }

    /// Fold one shard's canonical-order stats in; trigger the replan once
    /// `replan_after` shards have been measured.
    fn observe(&self, stats: &[ShardStats]) {
        let ready = {
            let mut live = self.live.lock().expect("schedule live mutex");
            for (k, s) in stats.iter().enumerate() {
                live.ns[k] += s.duration.as_nanos();
                live.samples_in[k] += s.samples_in as u64;
                live.samples_out[k] += s.samples_out as u64;
            }
            live.shards_done += 1;
            live.shards_done >= self.replan_after
        };
        if ready && self.replan_armed.swap(false, Ordering::Relaxed) {
            self.replan();
        }
    }

    /// Re-rank each commutable window from live measurements and publish
    /// the revised order (stable sort: unmeasured steps keep their static
    /// position among equals).
    fn replan(&self) {
        let scores: Vec<f64> = {
            let live = self.live.lock().expect("schedule live mutex");
            (0..self.canonical.len())
                .map(|i| {
                    if live.samples_in[i] > 0 {
                        let ns = live.ns[i] as f64 / live.samples_in[i] as f64;
                        let keep = live.samples_out[i] as f64 / live.samples_in[i] as f64;
                        rank_score(ns, keep)
                    } else {
                        // An earlier step drained the funnel before this one
                        // saw a sample — fall back to the static tier.
                        fallback_score(step_static_cost(&self.canonical[i]))
                    }
                })
                .collect()
        };
        let mut canon: Vec<usize> = (0..self.canonical.len()).collect();
        for w in &self.windows {
            canon[w.clone()].sort_by(|&a, &b| {
                scores[a]
                    .partial_cmp(&scores[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        if canon.iter().enumerate().all(|(pos, &c)| pos == c) {
            return; // measurements agree with the current order
        }
        let steps = canon
            .iter()
            .map(|&c| self.canonical[c].clone())
            .collect::<Vec<_>>();
        *self.current.lock().expect("schedule order mutex") = Arc::new(StepOrder { steps, canon });
        self.replans.fetch_add(1, Ordering::Relaxed);
    }
}

/// Remap a shard outcome produced under `order` back onto canonical step
/// positions, so per-shard stats and traces merge by plan index no matter
/// which order each shard actually ran.
fn remap_outcome(order: &StepOrder, outcome: ShardOutcome) -> ShardOutcome {
    if order.canon.iter().enumerate().all(|(pos, &c)| pos == c) {
        return outcome;
    }
    let ShardOutcome {
        shard,
        stats,
        traces,
        keep,
    } = outcome;
    let n = order.canon.len();
    let mut c_stats = vec![ShardStats::default(); n];
    let mut c_traces: Vec<Vec<TraceEvent>> = vec![Vec::new(); n];
    for (pos, (s, t)) in stats.into_iter().zip(traces).enumerate() {
        c_stats[order.canon[pos]] = s;
        c_traces[order.canon[pos]] = t;
    }
    ShardOutcome {
        shard,
        stats: c_stats,
        traces: c_traces,
        keep,
    }
}

/// Cache keys for a stage sequence.
///
/// Plain stage names by default (the status-quo keying). With prefix
/// caching, each key is a chained FNV-1a fingerprint of every stage name
/// up to and including this one, rendered as `p{chain:016x}` — the key
/// encodes the *whole op prefix*, so editing, inserting or removing op
/// `k` changes the keys of `k` and everything after it while ops before
/// `k` keep hitting their entries, and two recipes sharing a prefix (and
/// a cache space) can never collide on a same-named step at a different
/// position.
fn stage_cache_keys(stages: &[Stage], prefix: bool) -> Vec<(usize, String)> {
    if !prefix {
        return stages
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.name()))
            .collect();
    }
    let mut chain = 0u64;
    stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut bytes = chain.to_le_bytes().to_vec();
            bytes.extend_from_slice(s.name().as_bytes());
            chain = fnv1a(&bytes);
            (i, format!("p{chain:016x}"))
        })
        .collect()
}

/// Fold this run's whole-pipeline throughput figures into the model's
/// tunables — the numbers the next run's auto-tuner sizes shards and
/// prefetch depth from.
fn record_tunables(model: &mut CostModel, report: &RunReport) {
    let secs = report.total_duration.as_secs_f64();
    if secs <= 0.0 {
        return;
    }
    if report.initial_samples > 0 {
        model.set_tunable(TUNE_SAMPLES_PER_SEC, report.initial_samples as f64 / secs);
    }
    if report.shards > 0 {
        model.set_tunable(TUNE_SHARD_MS, secs * 1000.0 / report.shards as f64);
    }
}

/// Load a spool's shards into memory, preserving shard boundaries, unless
/// their decoded size exceeds `budget` — in which case `None` is returned
/// and at most `budget` bytes were ever resident.
fn materialize_within(spool: &ShardSpool, budget: u64) -> Result<Option<Vec<Dataset>>> {
    let mut shards = Vec::with_capacity(spool.shard_count());
    let mut bytes = 0u64;
    for i in 0..spool.shard_count() {
        let shard = spool.read_shard(i)?;
        bytes += shard.approx_bytes() as u64;
        if bytes > budget {
            return Ok(None);
        }
        shards.push(shard);
    }
    Ok(Some(shards))
}

/// Merge shards the barrier thinned below `min_len` samples into their
/// left neighbor (the first shard absorbs rightward). Shards at or above
/// the floor keep their boundaries — the carry-through fast path.
fn rebalance_shards(shards: Vec<Dataset>, min_len: usize) -> Vec<Dataset> {
    if min_len == 0 || shards.len() <= 1 {
        return shards;
    }
    let mut out: Vec<Dataset> = Vec::with_capacity(shards.len());
    for shard in shards {
        match out.last_mut() {
            Some(prev) if prev.len() < min_len || shard.len() < min_len => prev.extend(shard),
            _ => out.push(shard),
        }
    }
    out
}

/// Stream every shard of `source` through `work` on the shared persistent
/// [`WorkerPool`], returning the per-shard results in shard order.
///
/// `depth` is the prefetch depth — the per-worker live-shard budget. With
/// `overlap_io` and `depth ≥ 2` the section's steppers interleave two
/// kinds of step: load the next shard into a prefetch queue (when the
/// live-set reservation allows) or pop a queued shard and process it —
/// so disk reads overlap compute exactly like the old dedicated loader
/// thread, while the reservation caps shards acquired-but-not-released at
/// `workers × depth` (the engine's constant-memory streaming bound).
/// Without overlap (or `depth = 1`) there is no queue: each step loads
/// and processes one shard, so at most one shard per stepper is ever
/// resident. A single worker without overlap runs the loop inline.
///
/// Cancellation is observed at every step: a cancelled job stops loading,
/// drains its prefetch queue, and surfaces [`DjError::Cancelled`].
fn stream_shards<R, F>(
    source: &dyn ShardSource,
    workers: usize,
    overlap_io: bool,
    depth: usize,
    ctl: &RunCtl,
    work: F,
) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize, Dataset) -> Result<R> + Sync,
{
    let n = source.shard_count();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = workers.max(1).min(n);
    let depth = depth.max(1);
    if workers == 1 && (!overlap_io || depth == 1) {
        // Sequential fast path: same code path semantics, no threads.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            ctl.check()?;
            faults::check("exec.shard.claim")?;
            let shard = source.load_shard(i)?;
            let (s, b) = (shard.len(), shard.approx_bytes());
            ctl.acquire(s, b);
            let r = work(i, shard);
            ctl.release(s, b);
            ctl.shard_done();
            out.push(r?);
        }
        return Ok(out);
    }

    let use_queue = overlap_io && depth >= 2;
    // The extra stepper is the old loader thread's hands: with IO overlap
    // one stepper can always be inside `load_shard` while `workers`
    // others process.
    let (width, cap_live) = if use_queue {
        (workers + 1, workers * depth)
    } else {
        (workers, workers)
    };
    let queue: Mutex<VecDeque<(usize, Dataset, usize, usize)>> = Mutex::new(VecDeque::new());
    let next_load = AtomicUsize::new(0);
    // Live-set reservations: shards loading, queued, or being processed.
    // Reserving *before* the load means the resident bound can never
    // overshoot, however many steppers race.
    let reserved = AtomicUsize::new(0);
    let processed = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let first_err: Mutex<Option<DjError>> = Mutex::new(None);
    let record_err = |e: DjError| {
        abort.store(true, Ordering::Relaxed);
        let mut slot = first_err.lock().expect("stream err mutex");
        if slot.is_none() {
            *slot = Some(e);
        }
    };
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let finish = |i: usize, shard: Dataset, s: usize, b: usize| {
        let r = work(i, shard);
        ctl.release(s, b);
        reserved.fetch_sub(1, Ordering::Relaxed);
        ctl.shard_done();
        match r {
            Ok(v) => *results[i].lock().expect("result slot mutex") = Some(v),
            Err(e) => record_err(e),
        }
        processed.fetch_add(1, Ordering::Relaxed);
    };

    WorkerPool::global().run_section(width, &|| {
        if abort.load(Ordering::Relaxed) {
            return Step::Done;
        }
        if let Err(e) = ctl.check() {
            record_err(e);
            return Step::Done;
        }
        // Claim a load if the live-set budget and the index space allow.
        let mut res = reserved.load(Ordering::Relaxed);
        let reserved_ok = loop {
            if res >= cap_live || next_load.load(Ordering::Relaxed) >= n {
                break false;
            }
            match reserved.compare_exchange_weak(res, res + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break true,
                Err(seen) => res = seen,
            }
        };
        if reserved_ok {
            let i = next_load.fetch_add(1, Ordering::Relaxed);
            if i < n {
                match faults::check("exec.shard.claim").and_then(|()| source.load_shard(i)) {
                    Ok(shard) => {
                        let (s, b) = (shard.len(), shard.approx_bytes());
                        ctl.acquire(s, b);
                        if use_queue {
                            queue
                                .lock()
                                .expect("stream queue mutex")
                                .push_back((i, shard, s, b));
                        } else {
                            finish(i, shard, s, b);
                        }
                        return Step::Worked;
                    }
                    Err(e) => {
                        reserved.fetch_sub(1, Ordering::Relaxed);
                        record_err(e);
                        return Step::Done;
                    }
                }
            }
            reserved.fetch_sub(1, Ordering::Relaxed);
        }
        // Nothing loadable — process a prefetched shard instead.
        let popped = if use_queue {
            queue.lock().expect("stream queue mutex").pop_front()
        } else {
            None
        };
        if let Some((i, shard, s, b)) = popped {
            finish(i, shard, s, b);
            return Step::Worked;
        }
        if processed.load(Ordering::Relaxed) >= n {
            Step::Done
        } else {
            Step::Idle
        }
    });

    // A cancelled or failed run may leave prefetched shards behind; their
    // residency must be released before the caller drops its spool.
    for (_, shard, s, b) in queue.into_inner().expect("stream queue mutex").drain(..) {
        drop(shard);
        ctl.release(s, b);
    }
    if let Some(e) = first_err.into_inner().expect("stream err mutex") {
        return Err(e);
    }
    let mut out = Vec::with_capacity(n);
    for (i, slot) in results.into_iter().enumerate() {
        match slot.into_inner().expect("result slot mutex") {
            Some(r) => out.push(r),
            None => {
                return Err(DjError::Storage(format!(
                    "shard {i} streaming aborted before processing"
                )))
            }
        }
    }
    Ok(out)
}

/// Stream shards cut off a corpus reader through `work` on the shared
/// persistent [`WorkerPool`], bounding the live set at `workers × depth`
/// shards. Returns the per-shard results in shard order plus the reader's
/// final byte and sample counts.
///
/// With `depth ≥ 2` section steppers interleave pulling shards off the
/// (strictly sequential, lock-guarded) reader into a prefetch queue with
/// processing queued shards, so file IO and parsing overlap pipeline
/// compute — the ingest-side mirror of [`stream_shards`]'s double
/// buffering. With `depth = 1` each step pulls the reader directly and
/// processes in place: one shard per stepper, no overlap.
fn stream_ingest<R, F>(
    reader: CorpusReader,
    shard_size: usize,
    workers: usize,
    depth: usize,
    ctl: &RunCtl,
    work: F,
) -> Result<(Vec<R>, u64, u64)>
where
    R: Send,
    F: Fn(usize, Dataset) -> Result<R> + Sync,
{
    let workers = workers.max(1);
    let depth = depth.max(1);
    // The reader and the shard index counter share a lock so indices
    // always match stream order, whichever stepper pulls.
    let source = Mutex::new((reader, 0usize));
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    let first_err: Mutex<Option<DjError>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let record_err = |e: DjError| {
        abort.store(true, Ordering::Relaxed);
        let mut slot = first_err.lock().expect("ingest err mutex");
        if slot.is_none() {
            *slot = Some(e);
        }
    };

    let use_queue = depth >= 2;
    let (width, cap_live) = if use_queue {
        (workers + 1, workers * depth)
    } else {
        (workers, workers)
    };
    let queue: Mutex<VecDeque<(usize, Dataset, usize, usize)>> = Mutex::new(VecDeque::new());
    // Live-set reservations (pulling, queued, or processing shards).
    let reserved = AtomicUsize::new(0);
    let pulled_count = AtomicUsize::new(0);
    let processed = AtomicUsize::new(0);
    // Set once the reader returns `None`; afterwards no stepper pulls.
    let dry = AtomicBool::new(false);
    let finish = |i: usize, shard: Dataset, s: usize, b: usize| {
        let r = work(i, shard);
        ctl.release(s, b);
        reserved.fetch_sub(1, Ordering::Relaxed);
        ctl.shard_done();
        match r {
            Ok(v) => results.lock().expect("ingest results mutex").push((i, v)),
            Err(e) => record_err(e),
        }
        processed.fetch_add(1, Ordering::Relaxed);
    };

    WorkerPool::global().run_section(width, &|| {
        if abort.load(Ordering::Relaxed) {
            return Step::Done;
        }
        if let Err(e) = ctl.check() {
            record_err(e);
            return Step::Done;
        }
        // Claim a pull if the reader may still have data and the live-set
        // budget allows. Reserving before the pull keeps the resident
        // bound tight however many steppers race.
        let mut res = reserved.load(Ordering::Relaxed);
        let reserved_ok = loop {
            if dry.load(Ordering::Relaxed) || res >= cap_live {
                break false;
            }
            match reserved.compare_exchange_weak(res, res + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break true,
                Err(seen) => res = seen,
            }
        };
        if reserved_ok {
            let next = {
                let mut src = source.lock().expect("ingest reader mutex");
                match faults::check("exec.shard.claim").and_then(|()| src.0.next_shard(shard_size))
                {
                    Ok(Some(shard)) => {
                        let i = src.1;
                        src.1 += 1;
                        pulled_count.fetch_add(1, Ordering::Relaxed);
                        Some((i, shard))
                    }
                    Ok(None) => {
                        dry.store(true, Ordering::Relaxed);
                        None
                    }
                    Err(e) => {
                        record_err(e);
                        None
                    }
                }
            };
            match next {
                Some((i, shard)) => {
                    let (s, b) = (shard.len(), shard.approx_bytes());
                    ctl.acquire(s, b);
                    if use_queue {
                        queue
                            .lock()
                            .expect("ingest queue mutex")
                            .push_back((i, shard, s, b));
                    } else {
                        finish(i, shard, s, b);
                    }
                    return Step::Worked;
                }
                None => {
                    reserved.fetch_sub(1, Ordering::Relaxed);
                    if abort.load(Ordering::Relaxed) {
                        return Step::Done;
                    }
                    // Reader dry: fall through to drain the queue.
                }
            }
        }
        let popped = if use_queue {
            queue.lock().expect("ingest queue mutex").pop_front()
        } else {
            None
        };
        if let Some((i, shard, s, b)) = popped {
            finish(i, shard, s, b);
            return Step::Worked;
        }
        if dry.load(Ordering::Relaxed)
            && processed.load(Ordering::Relaxed) >= pulled_count.load(Ordering::Relaxed)
        {
            Step::Done
        } else {
            Step::Idle
        }
    });

    // Release any prefetched-but-unprocessed shards (cancel/error paths).
    for (_, shard, s, b) in queue.into_inner().expect("ingest queue mutex").drain(..) {
        drop(shard);
        ctl.release(s, b);
    }
    if let Some(e) = first_err.into_inner().expect("ingest err mutex") {
        return Err(e);
    }
    let (reader, _) = source.into_inner().expect("ingest reader mutex");
    let mut pairs = results.into_inner().expect("ingest results mutex");
    pairs.sort_by_key(|(i, _)| *i);
    let out = pairs.into_iter().map(|(_, r)| r).collect();
    Ok((out, reader.bytes_read(), reader.samples_read()))
}

/// What one shard produces after running a whole pipeline stage.
struct ShardOutcome {
    shard: Dataset,
    stats: Vec<ShardStats>,
    traces: Vec<Vec<TraceEvent>>,
    /// Per input sample, whether it survived the stage (in input order).
    /// The spilled splice path uses this to filter passthrough columns
    /// without ever decoding them.
    keep: Vec<bool>,
}

/// Run every step of a stage over one shard, sample by sample: each sample
/// flows through the full mapper/filter chain while it is hot in cache,
/// and dropped samples never reach later steps.
///
/// With a ledger, a sample that makes an OP error is routed through the
/// `on_error` policy — dropped (and optionally quarantined with
/// `op@shard-N` provenance) instead of failing the stage — unless the
/// policy is `fail` or the error budget is spent.
fn run_stage_on_shard(
    steps: &[PlanStep],
    shard: Dataset,
    ctx: &mut SampleContext,
    trace_cap: usize,
    ledger: Option<&ErrorLedger>,
    shard_idx: usize,
) -> Result<ShardOutcome> {
    // Chaos-harness injection point: one fault per stage-shard pass.
    faults::check("exec.worker.step")?;
    let mut stats = vec![ShardStats::default(); steps.len()];
    let mut traces: Vec<Vec<TraceEvent>> = vec![Vec::new(); steps.len()];
    let mut kept = Vec::with_capacity(shard.len());
    let mut keep_mask = Vec::with_capacity(shard.len());

    'samples: for mut sample in shard {
        ctx.invalidate();
        // One clock read per step boundary: each step's end timestamp is
        // the next step's start, halving timing overhead in this hot loop.
        let mut step_start = Instant::now();
        for (k, step) in steps.iter().enumerate() {
            stats[k].samples_in += 1;
            match step {
                PlanStep::Mapper(m) => {
                    let before = if trace_cap > traces[k].len() {
                        Some(sample.text().to_string())
                    } else {
                        None
                    };
                    let changed = match m.process(&mut sample, ctx) {
                        Ok(changed) => changed,
                        Err(e) => match ledger {
                            Some(l) => {
                                l.absorb(e, &format!("{}@shard-{shard_idx}", m.name()), || {
                                    sample.value().clone()
                                })?;
                                stats[k].removed += 1;
                                keep_mask.push(false);
                                continue 'samples;
                            }
                            None => return Err(e),
                        },
                    };
                    if changed {
                        ctx.invalidate();
                        stats[k].changed += 1;
                        if let Some(b) = before {
                            traces[k].push(TraceEvent::Edited {
                                before: snippet(&b),
                                after: snippet(sample.text()),
                            });
                        }
                    }
                    let now = Instant::now();
                    stats[k].duration += now - step_start;
                    step_start = now;
                    stats[k].samples_out += 1;
                }
                PlanStep::Filters(filters) => {
                    // Phase 1: stats for every member filter with one shared
                    // context — fused filters derive words/lines views once.
                    let mut failed: Option<(DjError, String)> = None;
                    for f in filters.iter() {
                        if let Err(e) = f.compute_stats(&mut sample, ctx) {
                            failed = Some((e, f.name().to_string()));
                            break;
                        }
                    }
                    // Fused-OP contract: contexts are cleaned after the op.
                    ctx.clear();
                    // Phase 2: boolean decisions from recorded stats only.
                    let mut keep = true;
                    if failed.is_none() {
                        for f in filters.iter() {
                            match f.process(&sample) {
                                Ok(true) => {}
                                Ok(false) => {
                                    keep = false;
                                    break;
                                }
                                Err(e) => {
                                    failed = Some((e, f.name().to_string()));
                                    break;
                                }
                            }
                        }
                    }
                    if let Some((e, name)) = failed {
                        match ledger {
                            Some(l) => {
                                l.absorb(e, &format!("{name}@shard-{shard_idx}"), || {
                                    sample.value().clone()
                                })?;
                                stats[k].removed += 1;
                                keep_mask.push(false);
                                continue 'samples;
                            }
                            None => return Err(e),
                        }
                    }
                    let now = Instant::now();
                    stats[k].duration += now - step_start;
                    step_start = now;
                    if keep {
                        stats[k].samples_out += 1;
                    } else {
                        stats[k].removed += 1;
                        if traces[k].len() < trace_cap {
                            traces[k].push(TraceEvent::Discarded {
                                text: snippet(sample.text()),
                                stats: sample.stats(),
                            });
                        }
                        keep_mask.push(false);
                        continue 'samples;
                    }
                }
                PlanStep::Dedup(_) => {
                    unreachable!("dedup steps are barriers, not pipeline steps")
                }
            }
        }
        kept.push(sample);
        keep_mask.push(true);
    }

    Ok(ShardOutcome {
        shard: Dataset::from_samples(kept),
        stats,
        traces,
        keep: keep_mask,
    })
}

fn snippet(text: &str) -> String {
    const MAX: usize = 120;
    if text.chars().count() <= MAX {
        text.to_string()
    } else {
        let cut: String = text.chars().take(MAX).collect();
        format!("{cut}…")
    }
}

/// Convenience: build an executor straight from a recipe + registry,
/// threading the recipe's `np`, `shard_size` and out-of-core knobs through.
pub fn executor_from_recipe(
    recipe: &dj_config::Recipe,
    registry: &dj_core::OpRegistry,
    fusion: bool,
) -> Result<Executor> {
    let ops = recipe.build_ops(registry)?;
    let output_format = match recipe.output_format.as_deref() {
        Some(name) => OutputFormat::from_name(name)?,
        None => OutputFormat::Jsonl,
    };
    Ok(Executor::new(ops).with_options(ExecOptions {
        num_workers: recipe.np,
        op_fusion: fusion,
        trace_examples: 0,
        shard_size: recipe.shard_size,
        memory_budget: recipe.memory_budget,
        spill_dir: recipe.spill_dir.as_ref().map(PathBuf::from),
        dedup_parallel: recipe.dedup_parallel,
        shard_fill: recipe.shard_fill.unwrap_or(DEFAULT_SHARD_FILL),
        prefetch_depth: recipe.prefetch_depth.unwrap_or(DEFAULT_PREFETCH_DEPTH),
        input: recipe.input_path.clone(),
        output: recipe.output_path.as_ref().map(PathBuf::from),
        output_format,
        adaptive: recipe.adaptive,
        replan_after_shards: recipe.replan_after_shards,
        stats_dir: recipe.stats_dir.as_ref().map(PathBuf::from),
        prefix_cache: recipe.prefix_cache,
        on_error: match recipe.on_error.as_deref() {
            Some(name) => OnError::from_name(name)?,
            None => OnError::Fail,
        },
        max_error_ratio: recipe.max_error_ratio.unwrap_or(1.0),
        ..ExecOptions::default()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::{OpParams, OpRegistry, Value};
    use dj_ops::builtin_registry;

    fn ops(reg: &OpRegistry, names: &[(&str, OpParams)]) -> Vec<Op> {
        names
            .iter()
            .map(|(n, p)| reg.build(n, p).unwrap())
            .collect()
    }

    fn p(pairs: &[(&str, Value)]) -> OpParams {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn noisy_dataset() -> Dataset {
        let mut texts = vec![
            "The committee reviewed the annual report and found the analysis sound.".to_string(),
            "  The committee   reviewed the annual report and found the analysis sound."
                .to_string(),
            "short".to_string(),
            "buy now buy now buy now buy now buy now buy now buy now buy now".to_string(),
            "A completely different fluent document describing the budget process.".to_string(),
        ];
        for i in 0..20 {
            texts.push(format!(
                "Unique fluent document number {i} about the research methodology and results."
            ));
        }
        Dataset::from_texts(texts)
    }

    fn pipeline(reg: &OpRegistry) -> Vec<Op> {
        ops(
            reg,
            &[
                ("whitespace_normalization_mapper", OpParams::new()),
                (
                    "text_length_filter",
                    p(&[
                        ("min_len", Value::Float(20.0)),
                        ("max_len", Value::Float(10000.0)),
                    ]),
                ),
                (
                    "word_num_filter",
                    p(&[
                        ("min_num", Value::Float(5.0)),
                        ("max_num", Value::Float(10000.0)),
                    ]),
                ),
                (
                    "word_repetition_filter",
                    p(&[
                        ("rep_len", Value::Int(3)),
                        ("min_ratio", Value::Float(0.0)),
                        ("max_ratio", Value::Float(0.3)),
                    ]),
                ),
                (
                    "document_deduplicator",
                    p(&[("lowercase", Value::Bool(true))]),
                ),
            ],
        )
    }

    fn opts(np: usize, fusion: bool, trace: usize) -> ExecOptions {
        ExecOptions {
            num_workers: np,
            op_fusion: fusion,
            trace_examples: trace,
            ..ExecOptions::default()
        }
    }

    fn spill_opts(np: usize, shard_size: usize, budget: u64) -> ExecOptions {
        ExecOptions {
            num_workers: np,
            op_fusion: true,
            trace_examples: 0,
            shard_size: Some(shard_size),
            memory_budget: Some(budget),
            ..ExecOptions::default()
        }
    }

    #[test]
    fn pipeline_runs_and_reports() {
        let reg = builtin_registry();
        let exec = Executor::new(pipeline(&reg)).with_options(opts(1, false, 4));
        let (out, report) = exec.run(noisy_dataset()).unwrap();
        assert_eq!(report.initial_samples, 25);
        assert_eq!(report.final_samples, out.len());
        // "short" and the spam line removed; whitespace-variant deduped.
        assert!(out.len() <= 23);
        assert!(report.ops.iter().any(|r| r.removed > 0));
        assert!(report.ops[0].changed >= 1, "whitespace mapper edited");
        assert!(report.peak_bytes > 0);
        assert_eq!(report.stages, 2, "mapper+filters stage, dedup barrier");
        // Funnel is monotone non-increasing.
        let funnel = report.funnel();
        assert!(funnel.windows(2).all(|w| w[1].1 <= w[0].1));
    }

    #[test]
    fn fused_and_unfused_produce_identical_output() {
        let reg = builtin_registry();
        let base = noisy_dataset();
        let unfused = Executor::new(pipeline(&reg)).with_options(opts(1, false, 0));
        let fused = Executor::new(pipeline(&reg)).with_options(opts(1, true, 0));
        let (a, ra) = unfused.run(base.clone()).unwrap();
        let (b, rb) = fused.run(base).unwrap();
        // Same surviving texts (order preserved).
        let ta: Vec<_> = a.iter().map(|s| s.text().to_string()).collect();
        let tb: Vec<_> = b.iter().map(|s| s.text().to_string()).collect();
        assert_eq!(ta, tb);
        assert_eq!(ra.fused_groups, 0);
        assert!(rb.fused_groups >= 1);
    }

    #[test]
    fn parallel_equals_serial() {
        let reg = builtin_registry();
        let base = noisy_dataset();
        let serial = Executor::new(pipeline(&reg)).with_options(opts(1, true, 0));
        let parallel = Executor::new(pipeline(&reg)).with_options(opts(4, true, 0));
        let (a, _) = serial.run(base.clone()).unwrap();
        let (b, _) = parallel.run(base).unwrap();
        assert_eq!(
            a.iter().map(|s| s.text()).collect::<Vec<_>>(),
            b.iter().map(|s| s.text()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shard_count_never_changes_output() {
        let reg = builtin_registry();
        let base = noisy_dataset();
        let baseline = Executor::new(pipeline(&reg)).with_options(opts(1, false, 0));
        let (expected, _) = baseline.run(base.clone()).unwrap();
        for shard_size in [1usize, 2, 7, 1000] {
            let exec = Executor::new(pipeline(&reg)).with_options(ExecOptions {
                num_workers: 3,
                op_fusion: true,
                trace_examples: 0,
                shard_size: Some(shard_size),
                ..ExecOptions::default()
            });
            let (out, report) = exec.run(base.clone()).unwrap();
            assert_eq!(out, expected, "shard_size {shard_size} diverged");
            assert!(report.shards >= 1);
        }
    }

    #[test]
    fn spilled_run_matches_in_memory_run() {
        let reg = builtin_registry();
        let base = noisy_dataset();
        // u64::MAX pins the reference in memory even when CI forces
        // spilling everywhere via DJ_MEMORY_BUDGET.
        let mut base_opts = opts(1, false, 0);
        base_opts.memory_budget = Some(u64::MAX);
        let baseline = Executor::new(pipeline(&reg)).with_options(base_opts);
        let (expected, _) = baseline.run(base.clone()).unwrap();
        for np in [1usize, 3] {
            let exec = Executor::new(pipeline(&reg)).with_options(spill_opts(np, 4, 1));
            let (out, report) = exec.run(base.clone()).unwrap();
            assert_eq!(out, expected, "np {np} spilled run diverged");
            assert!(report.spilled, "budget of 1 byte must force spilling");
            assert!(report.peak_resident_samples > 0);
            assert!(
                report.peak_resident_samples <= np * 2 * 4,
                "np {np}: resident {} > {}",
                report.peak_resident_samples,
                np * 2 * 4
            );
        }
    }

    #[test]
    fn large_budget_never_spills() {
        let reg = builtin_registry();
        let exec = Executor::new(pipeline(&reg)).with_options(spill_opts(2, 1000, u64::MAX));
        let (_, report) = exec.run(noisy_dataset()).unwrap();
        assert!(!report.spilled);
    }

    #[test]
    fn trace_captures_events() {
        let reg = builtin_registry();
        let exec = Executor::new(pipeline(&reg)).with_options(opts(1, false, 8));
        let (_, report) = exec.run(noisy_dataset()).unwrap();
        let edited = report
            .ops
            .iter()
            .flat_map(|r| &r.trace)
            .any(|e| matches!(e, TraceEvent::Edited { .. }));
        let discarded = report
            .ops
            .iter()
            .flat_map(|r| &r.trace)
            .any(|e| matches!(e, TraceEvent::Discarded { .. }));
        let dup = report
            .ops
            .iter()
            .flat_map(|r| &r.trace)
            .any(|e| matches!(e, TraceEvent::Duplicate { .. }));
        assert!(edited && discarded && dup);
    }

    #[test]
    fn spilled_trace_captures_events_too() {
        let reg = builtin_registry();
        let mut options = spill_opts(2, 4, 1);
        options.trace_examples = 8;
        options.op_fusion = false;
        let exec = Executor::new(pipeline(&reg)).with_options(options);
        let (_, report) = exec.run(noisy_dataset()).unwrap();
        assert!(report.spilled);
        let dup = report
            .ops
            .iter()
            .flat_map(|r| &r.trace)
            .any(|e| matches!(e, TraceEvent::Duplicate { .. }));
        let discarded = report
            .ops
            .iter()
            .flat_map(|r| &r.trace)
            .any(|e| matches!(e, TraceEvent::Discarded { .. }));
        assert!(dup && discarded);
    }

    #[test]
    fn cache_resume_skips_completed_steps() {
        let reg = builtin_registry();
        let dir = std::env::temp_dir().join(format!("dj-exec-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CacheManager::new(&dir, 777, dj_store::CacheMode::Cache);
        let exec = Executor::new(pipeline(&reg)).with_options(opts(1, false, 0));
        let (out1, r1) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
        assert_eq!(r1.resumed_steps, 0);
        let (out2, r2) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
        assert_eq!(
            r2.resumed_steps, 5,
            "all plan steps covered by cached stages"
        );
        assert!(r2.ops.is_empty());
        assert_eq!(
            out1.iter().map(|s| s.text()).collect::<Vec<_>>(),
            out2.iter().map(|s| s.text()).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_cache_entries_resume_like_in_memory_ones() {
        let reg = builtin_registry();
        let dir = std::env::temp_dir().join(format!("dj-exec-spillcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CacheManager::new(&dir, 778, dj_store::CacheMode::Cache);
        let exec = Executor::new(pipeline(&reg)).with_options(spill_opts(2, 4, 1));
        let (out1, r1) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
        assert!(r1.spilled);
        let (out2, r2) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
        assert_eq!(
            r2.resumed_steps,
            exec.plan().steps.len(),
            "streamed entries must resume every step"
        );
        assert!(r2.ops.is_empty());
        assert!(
            r2.spilled,
            "a budgeted resume must rehydrate into a spool, not materialize"
        );
        assert_eq!(out1, out2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn executor_from_recipe_builds() {
        let reg = builtin_registry();
        let recipe = dj_config::recipes::by_name("minimal-clean").unwrap();
        let exec = executor_from_recipe(&recipe, &reg, true).unwrap();
        let (out, _) = exec.run(Dataset::from_texts(["hello   world"])).unwrap();
        assert_eq!(out.get(0).unwrap().text(), "hello world");
    }

    #[test]
    fn empty_dataset_and_empty_pipeline() {
        let exec = Executor::new(vec![]);
        let (out, report) = exec.run(Dataset::new()).unwrap();
        assert!(out.is_empty());
        assert!(report.ops.is_empty());
        let reg = builtin_registry();
        let exec2 = Executor::new(pipeline(&reg));
        let (out2, _) = exec2.run(Dataset::new()).unwrap();
        assert!(out2.is_empty());
        // An empty dataset never spills, whatever the budget says.
        let exec3 = Executor::new(pipeline(&reg)).with_options(spill_opts(2, 4, 1));
        let (out3, r3) = exec3.run(Dataset::new()).unwrap();
        assert!(out3.is_empty());
        assert!(!r3.spilled);
    }

    #[test]
    fn default_options_use_available_parallelism() {
        let opts = ExecOptions::default();
        assert_eq!(opts.num_workers, default_parallelism());
        assert!(opts.num_workers >= 1);
        assert_eq!(opts.memory_budget, None);
        assert_eq!(opts.spill_dir, None);
        assert!(opts.dedup_parallel, "parallel barrier is the default");
        assert_eq!(opts.shard_fill, DEFAULT_SHARD_FILL);
    }

    #[test]
    fn rebalance_merges_only_underfilled_shards() {
        let full = || Dataset::from_texts(["a", "b", "c", "d"]);
        let thin = || Dataset::from_texts(["x"]);
        // Threshold 2: full shards keep their boundaries.
        let kept = rebalance_shards(vec![full(), full(), full()], 2);
        assert_eq!(kept.len(), 3, "well-filled shards are carried through");
        // A thinned middle shard merges into its left neighbor.
        let merged = rebalance_shards(vec![full(), thin(), full()], 2);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].len(), 5);
        assert_eq!(merged[1].len(), 4);
        // A thinned leading shard absorbs its right neighbor.
        let lead = rebalance_shards(vec![thin(), full(), full()], 2);
        assert_eq!(lead.len(), 2);
        assert_eq!(lead[0].len(), 5);
        // Order is preserved across merges.
        let texts: Vec<_> = rebalance_shards(
            vec![
                Dataset::from_texts(["1"]),
                Dataset::from_texts(["2"]),
                Dataset::from_texts(["3", "4"]),
            ],
            2,
        )
        .into_iter()
        .flat_map(|d| d.iter().map(|s| s.text().to_string()).collect::<Vec<_>>())
        .collect();
        assert_eq!(texts, vec!["1", "2", "3", "4"]);
        // Threshold 0 disables rebalancing entirely.
        assert_eq!(rebalance_shards(vec![thin(), thin()], 0).len(), 2);
    }

    #[test]
    fn under_budget_resume_stays_in_memory() {
        // Multi-shard in-memory stages cache as multi-frame entries; a
        // resume under a generous budget must pull them back into memory
        // rather than downgrading the run to out-of-core.
        let reg = builtin_registry();
        let dir = std::env::temp_dir().join(format!("dj-exec-memresume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CacheManager::new(&dir, 779, dj_store::CacheMode::Cache);
        let mut options = opts(3, true, 0);
        options.shard_size = Some(4);
        options.memory_budget = Some(u64::MAX);
        let exec = Executor::new(pipeline(&reg)).with_options(options);
        let (out1, r1) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
        assert!(!r1.spilled);
        let (out2, r2) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
        assert!(r2.resumed_steps > 0);
        assert!(
            !r2.spilled,
            "an under-budget resume must not downgrade to out-of-core"
        );
        assert_eq!(out1, out2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_barrier_toggle_never_changes_output() {
        let reg = builtin_registry();
        let base = noisy_dataset();
        for dedup_parallel in [false, true] {
            for shard_fill in [0.0, 0.5, 1.0] {
                let mut options = opts(4, true, 0);
                options.dedup_parallel = dedup_parallel;
                options.shard_fill = shard_fill;
                options.shard_size = Some(3);
                let exec = Executor::new(pipeline(&reg)).with_options(options);
                let (out, report) = exec.run(base.clone()).unwrap();
                let sequential = Executor::new(pipeline(&reg)).with_options(opts(1, true, 0));
                let (expected, _) = sequential.run(base.clone()).unwrap();
                assert_eq!(
                    out, expected,
                    "dedup_parallel={dedup_parallel} shard_fill={shard_fill} diverged"
                );
                assert!(report.barrier_duration > Duration::ZERO);
                assert!(report.barrier_duration <= report.total_duration);
            }
        }
    }

    #[test]
    fn autotuned_shard_size_leaves_every_worker_a_shard() {
        // Measured throughput sizes a ~50 ms shard at 1,000 samples.
        let mut model = CostModel::new();
        model.observe_step("f", 1000, 1000, Duration::from_millis(1));
        model.set_tunable(TUNE_SAMPLES_PER_SEC, 20_000.0);
        let mut options = opts(2, true, 0);
        options.shard_size = None;
        let exec = Executor::new(Vec::new()).with_options(options);

        let (tuned, knobs) = exec.autotuned(Some(&model), Some(900)).unwrap();
        assert_eq!(knobs.shard_size, Some(450));
        assert_eq!(tuned.options.shard_count(900), 2);

        // A streamed input's size is unknown up front: no cap.
        let (_, knobs) = exec.autotuned(Some(&model), None).unwrap();
        assert_eq!(knobs.shard_size, Some(1000));
    }
}
