//! Open-loop job generator for the service runtime.
//!
//! One thread submits jobs at their due times and polls
//! `JobHandle::is_finished`; each job's latency runs from its due time
//! (not its submit time), so a stalled generator or a backlog shows up in
//! every later job. With a tracer attached it also polls
//! `progress().attempts` to split each job into queueing and service.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dj_core::{Dataset, Op, Result};
use dj_exec::{Executor, JobHandle, Runtime};

use crate::inputs::{approx_peak, digest, egress_digest, io_options, mem_options, service_config};
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// In-memory job over small input `k`.
    Small(usize),
    /// File-to-file job over the big corpus.
    Big,
}

#[derive(Clone, Copy, Debug)]
pub struct Due {
    /// Seconds after the window opens.
    pub at: f64,
    pub kind: JobKind,
}

/// What the jobs run on, with the solo-run digest each output must match.
pub struct Tenants<'a> {
    pub ops: &'a [Op],
    pub np: usize,
    pub small: &'a [Dataset],
    pub small_refs: &'a [u64],
    pub big_input: Option<&'a Path>,
    pub big_ref: u64,
    pub dir: &'a Path,
}

pub struct JobResult {
    pub kind: JobKind,
    /// Due → finished, seconds.
    pub latency: f64,
    /// Submitted → first attempt started (traced windows only).
    pub admission_wait: Option<f64>,
    /// First attempt started → finished (traced windows only).
    pub service: Option<f64>,
    pub retries: usize,
    pub ok: bool,
    pub approx_peak_bytes: usize,
}

pub struct Window {
    pub jobs: Vec<JobResult>,
    /// Window open → last job finished.
    pub drain_s: f64,
    /// Worst submit delay behind a due time.
    pub late_max_s: f64,
}

struct InFlight {
    idx: usize,
    kind: JobKind,
    due: Instant,
    submitted: Instant,
    admitted: Option<Instant>,
    handle: JobHandle,
    out_dir: Option<PathBuf>,
}

const POLL: Duration = Duration::from_micros(1000);

/// Run `schedule` against a fresh runtime and verify every output.
pub fn run_window(
    t: &Tenants<'_>,
    schedule: &[Due],
    mut tracer: Option<&mut Tracer>,
) -> Result<Window> {
    let rt = Runtime::new(service_config());
    let mut flying: Vec<InFlight> = Vec::new();
    let mut done: Vec<(usize, JobResult)> = Vec::with_capacity(schedule.len());
    let mut big_dirs: Vec<(usize, PathBuf)> = Vec::new();
    let mut late_max = 0f64;
    let start = Instant::now();
    let mut last_finish = start;
    let mut next = 0;
    while next < schedule.len() || !flying.is_empty() {
        let now = Instant::now();
        while next < schedule.len() && start + secs(schedule[next].at) <= now {
            let due = start + secs(schedule[next].at);
            let (handle, out_dir) = submit(&rt, t, schedule[next].kind, next)?;
            let submitted = Instant::now();
            late_max = late_max.max(submitted.duration_since(due).as_secs_f64());
            flying.push(InFlight {
                idx: next,
                kind: schedule[next].kind,
                due,
                submitted,
                admitted: None,
                handle,
                out_dir,
            });
            next += 1;
        }
        let mut i = 0;
        while i < flying.len() {
            let job = &mut flying[i];
            if tracer.is_some() && job.admitted.is_none() && job.handle.progress().attempts > 0 {
                job.admitted = Some(Instant::now());
            }
            if !job.handle.is_finished() {
                i += 1;
                continue;
            }
            let finished = Instant::now();
            last_finish = finished;
            let job = flying.swap_remove(i);
            let retries = job.handle.progress().attempts.saturating_sub(1);
            let admitted = job.admitted.unwrap_or(job.submitted).min(finished);
            if let Some(tr) = tracer.as_deref_mut() {
                let run = job.idx as u64 + 1;
                tr.record("runtime.queue", job.submitted, admitted, run);
                tr.record("runtime.service", admitted, finished, run);
            }
            let (ok, approx) = match job.handle.wait() {
                Ok(out) => {
                    let approx = approx_peak(&out.report);
                    let ok = match (job.kind, out.dataset) {
                        (JobKind::Small(k), Some(ds)) => digest(&ds) == t.small_refs[k],
                        (JobKind::Big, None) => {
                            // Checked after the window, off the generator's clock.
                            if let Some(d) = job.out_dir.clone() {
                                big_dirs.push((job.idx, d));
                            }
                            true
                        }
                        _ => false,
                    };
                    (ok, approx)
                }
                Err(e) => {
                    eprintln!("perfbench: job {} failed: {e}", job.idx);
                    (false, 0)
                }
            };
            let traced = tracer.is_some();
            done.push((
                job.idx,
                JobResult {
                    kind: job.kind,
                    latency: finished.duration_since(job.due).as_secs_f64(),
                    admission_wait: traced
                        .then(|| admitted.duration_since(job.submitted).as_secs_f64()),
                    service: traced.then(|| finished.duration_since(admitted).as_secs_f64()),
                    retries,
                    ok,
                    approx_peak_bytes: approx,
                },
            ));
        }
        let wake = match schedule.get(next) {
            Some(d) => (start + secs(d.at)).min(Instant::now() + POLL),
            None => Instant::now() + POLL,
        };
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    let drain_s = last_finish.duration_since(start).as_secs_f64();
    for (idx, dir) in big_dirs {
        let ok = matches!(egress_digest(&dir), Ok((d, _)) if d == t.big_ref);
        let _ = std::fs::remove_dir_all(&dir);
        if let Some((_, r)) = done.iter_mut().find(|(i, _)| *i == idx) {
            r.ok &= ok;
        }
    }
    done.sort_by_key(|(i, _)| *i);
    Ok(Window {
        jobs: done.into_iter().map(|(_, r)| r).collect(),
        drain_s,
        late_max_s: late_max,
    })
}

fn submit(
    rt: &Runtime,
    t: &Tenants<'_>,
    kind: JobKind,
    idx: usize,
) -> Result<(JobHandle, Option<PathBuf>)> {
    match kind {
        JobKind::Small(k) => {
            let exec = Executor::new(t.ops.to_vec()).with_options(mem_options(t.np));
            Ok((rt.submit(exec, t.small[k].clone()), None))
        }
        JobKind::Big => {
            let input = t
                .big_input
                .ok_or_else(|| dj_core::DjError::Config("no big input".into()))?;
            let out = t.dir.join(format!("big-{idx}"));
            let _ = std::fs::remove_dir_all(&out);
            let exec =
                Executor::new(t.ops.to_vec()).with_options(io_options(t.np, input, &out, false));
            Ok((rt.submit_io(exec), Some(out)))
        }
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}
