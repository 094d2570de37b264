//! The three workloads. Why each exists and which layer metric it is
//! meant to move is written down in `perfbench/README.md`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dj_core::{Dataset, Op, Result, WorkerPool};
use dj_exec::{plan_fused, Executor, RunReport};

use crate::inputs::{self, RecipeKind};
use crate::layers::{self, Replay};
use crate::mem;
use crate::report::{Metrics, Outcome};
use crate::serve::{self, Due, JobKind, Tenants};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    RefineMem,
    C4FileSpill,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RefineMem,
        Workload::C4FileSpill,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RefineMem => "refine-mem",
            Workload::C4FileSpill => "c4-file-spill",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

pub struct Params<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub np: usize,
    /// Scratch directory inside the checkout, removed afterwards.
    pub dir: &'a Path,
    /// Where the Chrome trace of a traced run goes.
    pub trace_file: PathBuf,
}

/// Timed runs a batch workload makes at least, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Set-ups timed per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 201;
/// Open-loop arrival rate of `serve-mix`, jobs per second.
const SERVE_RATE: f64 = 14.0;
/// Each gap between arrivals is the mean gap times 1 ± this (uniform).
const SERVE_JITTER: f64 = 0.5;
/// Every `BIG_EVERY`-th `serve-mix` job is the big file-to-file job.
const BIG_EVERY: usize = 8;
/// Jobs in the runtime probe of the batch workloads (all due at once).
const PROBE_JOBS: usize = 8;
/// Samples per runtime-probe job.
const PROBE_JOB_SAMPLES: usize = 1000;
/// Repetitions behind the microsecond-scale probes.
const MICRO_REPS: usize = 201;

pub fn run(w: Workload, p: &Params<'_>) -> Result<Outcome> {
    match w {
        Workload::RefineMem | Workload::C4FileSpill => run_batch(w, p),
        Workload::ServeMix => run_serve(p),
    }
}

/// Time `SETUP_REPS` set-ups; returns the ops, the median and the first.
fn timed_setup(kind: RecipeKind, np: usize, runtime: bool) -> Result<(Vec<Op>, f64, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut ops = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        ops = inputs::set_up(kind, np, runtime)?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((ops, median(&times), times[0]))
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Pushes the memory metrics; returns the allocation count for provenance.
fn push_memory(m: &mut Metrics) -> u64 {
    let heap = mem::heap();
    m.push("peak_rss_mb", mb(mem::peak_rss_bytes()), "MB");
    m.push("peak_heap_mb", mb(heap.peak_bytes as u64), "MB");
    heap.allocations
}

/// One verified batch run: (seconds, output matched, report).
fn batch_run(
    w: Workload,
    ops: &[Op],
    np: usize,
    input: &Dataset,
    corpus: &Path,
    dir: &Path,
    want: u64,
) -> Result<(f64, bool, RunReport)> {
    match w {
        Workload::RefineMem => {
            let data = input.clone();
            let t0 = Instant::now();
            let (out, report) = Executor::new(ops.to_vec())
                .with_options(inputs::mem_options(np))
                .run(data)?;
            let ok = inputs::digest(&out) == want;
            let secs = t0.elapsed().as_secs_f64();
            drop(out);
            Ok((secs, ok, report))
        }
        _ => {
            let out = dir.join("egress");
            let _ = std::fs::remove_dir_all(&out);
            let t0 = Instant::now();
            let exec = Executor::new(ops.to_vec())
                .with_options(inputs::io_options(np, corpus, &out, true));
            let (_, report) = exec.run_io()?;
            let ok = inputs::egress_digest(&out)?.0 == want;
            let secs = t0.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&out);
            Ok((secs, ok, report))
        }
    }
}

fn run_batch(w: Workload, p: &Params<'_>) -> Result<Outcome> {
    let (kind, spill) = match w {
        Workload::RefineMem => (RecipeKind::Refine, false),
        _ => (RecipeKind::Matched, true),
    };
    let input = match w {
        Workload::RefineMem => inputs::refine_corpus(p.seed),
        _ => inputs::c4_meta_corpus(p.seed, inputs::C4_DOCS),
    };
    let corpus = p.dir.join("corpus.jsonl");
    let input_bytes = inputs::write_jsonl(&corpus, &input)?;
    let samples = input.len();

    let (ops, setup_s, setup_cold_s) = timed_setup(kind, p.np, false)?;
    let (want, ref_len, ref_secs) = inputs::reference(&ops, &input)?;
    let probe_input = input.take(PROBE_JOB_SAMPLES);
    // The spilled workload reads its corpus from disk; keep no copy resident.
    let input = if spill { Dataset::new() } else { input };

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut times = Vec::new();
    mem::reset_peaks();
    let began = Instant::now();
    while times.len() < MIN_RUNS || began.elapsed().as_secs_f64() < p.seconds {
        attempted += 1;
        match batch_run(w, &ops, p.np, &input, &corpus, p.dir, want) {
            Ok((secs, ok, _)) => {
                failed += u64::from(!ok);
                times.push(secs);
            }
            Err(e) => {
                eprintln!("perfbench: {} run failed: {e}", w.name());
                failed += 1;
                if attempted >= MIN_RUNS as u64 && times.is_empty() {
                    break;
                }
            }
        }
    }
    let measured_s: f64 = times.iter().sum();
    let run_s = median(&times);
    let mut e2e = Metrics::default();
    e2e.push("setup_s", setup_s, "s");
    e2e.push("run_s", run_s, "s");
    e2e.push("throughput_mb_s", mb(input_bytes) / run_s.max(1e-9), "MB/s");
    let allocations = push_memory(&mut e2e);
    e2e.push(
        "jobs_per_s",
        times.len() as f64 / measured_s.max(1e-9),
        "1/s",
    );
    e2e.push("job_p50_s", run_s, "s");
    e2e.push("job_p90_s", percentile(&times, 0.9), "s");
    e2e.push("big_job_p50_s", run_s, "s");

    let mut provenance = vec![
        ("input_samples".to_string(), samples.to_string()),
        ("input_mb".to_string(), mb(input_bytes).to_string()),
        ("output_samples".to_string(), ref_len.to_string()),
        ("timed_runs".to_string(), times.len().to_string()),
        ("run_times_s".to_string(), format!("{times:?}")),
        ("allocations".to_string(), allocations.to_string()),
        ("setup_cold_s".to_string(), setup_cold_s.to_string()),
        ("reference_np1_s".to_string(), ref_secs.to_string()),
    ];
    let mut layers = Metrics::default();
    let mut layer_self = Vec::new();
    if p.trace {
        let mut tr = Tracer::new();
        // Traced engine run: the same job, timed inside a span, with the
        // real and the estimated memory peaks side by side.
        mem::reset_peaks();
        let id = tr.open("engine.run");
        let (traced_s, ok, report) = batch_run(w, &ops, p.np, &input, &corpus, p.dir, want)?;
        tr.close(id);
        attempted += 1;
        failed += u64::from(!ok);
        let real_peak = mem::heap().peak_bytes;
        let np1_s = if spill {
            let (secs, ok, _) = batch_run(w, &ops, 1, &input, &corpus, p.dir, want)?;
            attempted += 1;
            failed += u64::from(!ok);
            secs
        } else {
            ref_secs
        };
        let on_path: &[&str] = if spill {
            &["io.", "store.", "ops."]
        } else {
            &["ops."]
        };
        let probe_ops = inputs::other_recipe_ops(&ops)?;
        let replay = layers::replay(
            &mut tr,
            &Replay {
                ops: &ops,
                probe_ops: &probe_ops,
                corpus: &corpus,
                dir: p.dir,
                np: p.np,
                on_path,
            },
            &mut layers,
        )?;
        attempted += 1;
        failed += u64::from(replay.digest != want);

        let (probe_want, _, _) = inputs::reference(&ops, &probe_input)?;
        let tenants = Tenants {
            ops: &ops,
            np: p.np,
            small: std::slice::from_ref(&probe_input),
            small_refs: &[probe_want],
            big_input: None,
            big_ref: 0,
            dir: p.dir,
        };
        let burst: Vec<Due> = (0..PROBE_JOBS)
            .map(|_| Due {
                at: 0.0,
                kind: JobKind::Small(0),
            })
            .collect();
        let window = serve::run_window(&tenants, &burst, Some(&mut tr))?;
        attempted += window.jobs.len() as u64;
        failed += window.jobs.iter().filter(|j| !j.ok).count() as u64;

        push_exec(
            &mut layers,
            &ops,
            &report,
            np1_s,
            run_s,
            replay.on_path_s,
            real_peak,
            inputs::approx_peak(&report),
            p.np,
        );
        push_runtime(&mut layers, &window);
        layers.push("gen.late_max_s", window.late_max_s, "s");
        layers.push(
            "trace.overhead_share",
            traced_s / run_s.max(1e-9) - 1.0,
            "ratio",
        );
        layer_self = replay.layer_self.into_iter().collect();
        tr.write_chrome(&p.trace_file)?;
        provenance.push((
            "trace_file".to_string(),
            crate::trace::json_str(&p.trace_file.display().to_string()),
        ));
    }
    Ok(Outcome {
        attempted,
        failed,
        e2e,
        layers,
        provenance,
        layer_self,
    })
}

#[allow(clippy::too_many_arguments)]
fn push_exec(
    m: &mut Metrics,
    ops: &[Op],
    report: &RunReport,
    np1_s: f64,
    run_s: f64,
    on_path_s: f64,
    real_peak: usize,
    approx: usize,
    np: usize,
) {
    let mut plan = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let t0 = Instant::now();
        std::hint::black_box(plan_fused(ops));
        plan.push(t0.elapsed().as_secs_f64());
    }
    m.push("exec.plan_s", median(&plan), "s");
    m.push("exec.fused_groups", report.fused_groups as f64, "count");
    m.push("exec.np1_run_s", np1_s, "s");
    m.push("exec.speedup", np1_s / run_s.max(1e-9), "ratio");
    m.push(
        "exec.unattributed_share",
        1.0 - on_path_s / np1_s.max(1e-9),
        "ratio",
    );
    m.push("exec.approx_peak_mb", mb(approx as u64), "MB");
    m.push("exec.real_peak_heap_mb", mb(real_peak as u64), "MB");
    let mut section = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let t0 = Instant::now();
        inputs::empty_pool_section(np);
        section.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    m.push("pool.section_us", median(&section), "us");
    m.push(
        "pool.spawned_total",
        WorkerPool::spawned_total() as f64,
        "count",
    );
}

fn push_runtime(m: &mut Metrics, w: &serve::Window) {
    let waits: Vec<f64> = w.jobs.iter().filter_map(|j| j.admission_wait).collect();
    let service: Vec<f64> = w.jobs.iter().filter_map(|j| j.service).collect();
    m.push("runtime.admission_wait_p50_s", median(&waits), "s");
    m.push("runtime.admission_wait_p90_s", percentile(&waits, 0.9), "s");
    m.push("runtime.service_p50_s", median(&service), "s");
    m.push(
        "runtime.retries",
        w.jobs.iter().map(|j| j.retries).sum::<usize>() as f64,
        "count",
    );
}

/// The seeded open-loop schedule: arrivals at `SERVE_RATE` with ±50%
/// uniform jitter, every `BIG_EVERY`-th job big, small jobs cycling
/// through the distinct small inputs.
fn schedule(seed: u64, seconds: f64) -> Vec<Due> {
    let mut state = inputs::sub_seed(seed, 0x5EED);
    let mut uniform = || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    let mut out = Vec::new();
    let mut at = 0.0;
    let mut small = 0;
    while at < seconds {
        let kind = if out.len() % BIG_EVERY == BIG_EVERY - 1 {
            JobKind::Big
        } else {
            small += 1;
            JobKind::Small((small - 1) % inputs::SERVE_SMALL_INPUTS)
        };
        out.push(Due { at, kind });
        at += (1.0 + SERVE_JITTER * (2.0 * uniform() - 1.0)) / SERVE_RATE;
    }
    out
}

fn run_serve(p: &Params<'_>) -> Result<Outcome> {
    let small: Vec<Dataset> = (0..inputs::SERVE_SMALL_INPUTS)
        .map(|k| {
            dj_synth::web_corpus(
                inputs::sub_seed(p.seed, k as u64 + 1),
                inputs::SERVE_SMALL_DOCS,
                Default::default(),
            )
        })
        .collect();
    let small_bytes: Vec<u64> = small
        .iter()
        .map(|d| dj_store::to_jsonl(d).len() as u64)
        .collect();
    let big = inputs::c4_meta_corpus(inputs::sub_seed(p.seed, 100), inputs::SERVE_BIG_DOCS);
    let big_path = p.dir.join("big.jsonl");
    let big_bytes = inputs::write_jsonl(&big_path, &big)?;

    let (ops, setup_s, setup_cold_s) = timed_setup(RecipeKind::Matched, p.np, true)?;
    let mut small_refs = Vec::with_capacity(small.len());
    for d in &small {
        small_refs.push(inputs::reference(&ops, d)?.0);
    }
    let (big_ref, _, big_np1_ref_s) = inputs::reference(&ops, &big)?;
    drop(big);
    let tenants = Tenants {
        ops: &ops,
        np: p.np,
        small: &small,
        small_refs: &small_refs,
        big_input: Some(&big_path),
        big_ref,
        dir: p.dir,
    };
    let plan = schedule(p.seed, p.seconds);

    mem::reset_peaks();
    let window = serve::run_window(&tenants, &plan, None)?;
    let mut attempted = window.jobs.len() as u64;
    let mut failed = window.jobs.iter().filter(|j| !j.ok).count() as u64;
    let input_bytes: u64 = plan
        .iter()
        .map(|d| match d.kind {
            JobKind::Small(k) => small_bytes[k],
            JobKind::Big => big_bytes,
        })
        .sum();
    let latencies = |big: bool| -> Vec<f64> {
        window
            .jobs
            .iter()
            .filter(|j| (j.kind == JobKind::Big) == big)
            .map(|j| j.latency)
            .collect()
    };
    let (small_lat, big_lat) = (latencies(false), latencies(true));
    let run_s = window.drain_s;
    let mut e2e = Metrics::default();
    e2e.push("setup_s", setup_s, "s");
    e2e.push("run_s", run_s, "s");
    e2e.push("throughput_mb_s", mb(input_bytes) / run_s.max(1e-9), "MB/s");
    let allocations = push_memory(&mut e2e);
    e2e.push(
        "jobs_per_s",
        window.jobs.iter().filter(|j| j.ok).count() as f64 / run_s.max(1e-9),
        "1/s",
    );
    e2e.push("job_p50_s", median(&small_lat), "s");
    e2e.push("job_p90_s", percentile(&small_lat, 0.9), "s");
    e2e.push("big_job_p50_s", median(&big_lat), "s");

    let mut provenance = vec![
        (
            "input_samples".to_string(),
            (small.iter().map(Dataset::len).sum::<usize>() + inputs::SERVE_BIG_DOCS).to_string(),
        ),
        ("input_mb".to_string(), mb(input_bytes).to_string()),
        ("rate_jobs_per_s".to_string(), SERVE_RATE.to_string()),
        ("small_jobs".to_string(), small_lat.len().to_string()),
        (
            "small_job_deciles_s".to_string(),
            format!(
                "{:?}",
                (1..10)
                    .map(|d| percentile(&small_lat, d as f64 / 10.0))
                    .collect::<Vec<_>>()
            ),
        ),
        ("big_jobs".to_string(), big_lat.len().to_string()),
        ("allocations".to_string(), allocations.to_string()),
        ("big_job_mb".to_string(), mb(big_bytes).to_string()),
        (
            "generator_late_max_s".to_string(),
            window.late_max_s.to_string(),
        ),
        ("setup_cold_s".to_string(), setup_cold_s.to_string()),
        ("reference_big_np1_s".to_string(), big_np1_ref_s.to_string()),
    ];
    let mut layers = Metrics::default();
    let mut layer_self = Vec::new();
    if p.trace {
        let mut tr = Tracer::new();
        mem::reset_peaks();
        let id = tr.open("engine.window");
        let traced = serve::run_window(&tenants, &plan, Some(&mut tr))?;
        tr.close(id);
        attempted += traced.jobs.len() as u64;
        failed += traced.jobs.iter().filter(|j| !j.ok).count() as u64;
        let real_peak = mem::heap().peak_bytes;
        let approx = traced
            .jobs
            .iter()
            .map(|j| j.approx_peak_bytes)
            .max()
            .unwrap_or(0);

        // The big job alone, at np and at one worker.
        let solo = |np: usize| -> Result<(f64, bool, RunReport)> {
            let out = p.dir.join("solo");
            let _ = std::fs::remove_dir_all(&out);
            let t0 = Instant::now();
            let (_, report) = Executor::new(ops.clone())
                .with_options(inputs::io_options(np, &big_path, &out, false))
                .run_io()?;
            let ok = inputs::egress_digest(&out)?.0 == big_ref;
            let secs = t0.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&out);
            Ok((secs, ok, report))
        };
        let (np_s, ok_np, report) = solo(p.np)?;
        let (np1_s, ok_np1, _) = solo(1)?;
        attempted += 2;
        failed += u64::from(!ok_np) + u64::from(!ok_np1);

        let probe_ops = inputs::other_recipe_ops(&ops)?;
        let replay = layers::replay(
            &mut tr,
            &Replay {
                ops: &ops,
                probe_ops: &probe_ops,
                corpus: &big_path,
                dir: p.dir,
                np: p.np,
                on_path: &["io.", "ops."],
            },
            &mut layers,
        )?;
        attempted += 1;
        failed += u64::from(replay.digest != big_ref);
        push_exec(
            &mut layers,
            &ops,
            &report,
            np1_s,
            np_s,
            replay.on_path_s,
            real_peak,
            approx,
            p.np,
        );
        push_runtime(&mut layers, &traced);
        layers.push("gen.late_max_s", traced.late_max_s, "s");
        layers.push(
            "trace.overhead_share",
            traced.drain_s / run_s.max(1e-9) - 1.0,
            "ratio",
        );
        layer_self = replay.layer_self.into_iter().collect();
        tr.write_chrome(&p.trace_file)?;
        provenance.push((
            "trace_file".to_string(),
            crate::trace::json_str(&p.trace_file.display().to_string()),
        ));
    }
    Ok(Outcome {
        attempted,
        failed,
        e2e,
        layers,
        provenance,
        layer_self,
    })
}
