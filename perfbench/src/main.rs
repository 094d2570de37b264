//! `perfbench`: the repository's repeatable benchmark.
//!
//! ```text
//! perfbench --workload <refine-mem|c4-file-spill|serve-mix> --seed N \
//!           --seconds S --trace <0|1> [--out results.jsonl]
//! perfbench compare BASE.jsonl CHANGE.jsonl
//! ```
//!
//! A run generates its inputs from the seed, times set-up, computes the
//! reference digest of each output (a single-worker in-memory run of the
//! same recipe on the same input), then measures the workload for
//! `--seconds`, verifying every output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` adds a traced run and reports the
//! per-layer metrics, writing the spans as Chrome trace-event JSON under
//! `perfbench/out/`. The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits non-zero when any output differs from its reference.

mod compare;
mod inputs;
mod layers;
mod mem;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};

use workloads::{Params, Workload};

#[global_allocator]
static ALLOC: mem::Counting = mem::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The metric names `BENCHMARK.json` (in the working directory) promises
/// for this mode, if the file is there.
fn promised_metrics(trace: bool) -> Option<Vec<String>> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let spec = dj_core::parse_json(&text).ok()?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = spec.get_path(key)?.as_list()?;
    Some(
        list.iter()
            .filter_map(|m| m.get_path("name")?.as_str().map(str::to_string))
            .collect(),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("compare") {
        match argv.get(1..3) {
            Some([a, b]) => compare::run(a, b).map(|()| 0),
            _ => Err("usage: perfbench compare BASE.jsonl CHANGE.jsonl".to_string()),
        }
    } else {
        parse_args(&argv).and_then(|a| measure(&a))
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn measure(a: &Args) -> Result<i32, String> {
    let out_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let dir = out_root.join(format!("run-{}", std::process::id()));
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // Spill spools and other temp files stay inside the checkout.
    std::env::set_var("TMPDIR", &tmp);
    let np = std::thread::available_parallelism().map_or(1, |n| n.get());
    let params = Params {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        np,
        dir: &dir,
        trace_file: out_root.join(format!("trace-{}-seed{}.json", a.workload.name(), a.seed)),
    };
    let outcome = workloads::run(a.workload, &params);
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = outcome.map_err(|e| format!("{}: {e}", a.workload.name()))?;

    let metrics = if a.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    if let Some(promised) = promised_metrics(a.trace) {
        let mut have = metrics.names();
        let mut want: Vec<&str> = promised.iter().map(String::as_str).collect();
        have.sort_unstable();
        want.sort_unstable();
        if have != want {
            return Err(format!(
                "metrics {have:?} differ from BENCHMARK.json's {want:?}"
            ));
        }
    }
    outcome.provenance.splice(
        0..0,
        [
            ("workload".to_string(), trace::json_str(a.workload.name())),
            ("seed".to_string(), a.seed.to_string()),
            ("nproc".to_string(), np.to_string()),
            ("num_workers".to_string(), np.to_string()),
        ],
    );
    if !outcome.layer_self.is_empty() {
        let mut fields = Vec::new();
        for (layer, secs) in &outcome.layer_self {
            eprintln!("self time {layer:<14} {secs:>9.4} s");
            fields.push(format!("{}: {secs}", trace::json_str(layer)));
        }
        let object = format!("{{{}}}", fields.join(", "));
        outcome
            .provenance
            .push(("layer_self_s".to_string(), object));
    }
    let provenance = outcome.provenance_json();
    let result = outcome.result_json(a.trace)?;
    if let Some(path) = &a.out {
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"provenance\": {provenance}, \"result\": {result}}}\n",
            trace::json_str(a.workload.name()),
            a.seed,
            u8::from(a.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{{\"provenance\": {provenance}}}");
    println!("{result}");
    Ok(if outcome.correct() { 0 } else { 1 })
}
