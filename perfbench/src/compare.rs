//! `perfbench compare BASE.jsonl CHANGE.jsonl`: report-only comparison of
//! two sets of runs (files written with `--out`).
//!
//! For each (workload, metric) it prints both sides' median and quartiles
//! and a verdict:
//! - `improved`: the change wins at least 9 of 10 pairs (runs paired in
//!   file order, ties count for neither) and the medians differ by more
//!   than the base's own quartile spread;
//! - `worse`: the same rule the other way, or a median worse than the
//!   base's by more than the metric's bound;
//! - `unresolved`: a spread wider than the bound, unless every run of the
//!   change beats every run of the base;
//! - `unchanged`: otherwise.
//!
//! Directions and bounds come from `BENCHMARK.json` in the working
//! directory. Metrics without a bound (the per-layer ones) are judged by
//! the pair rule alone.

use std::collections::BTreeMap;

use dj_core::{parse_json, Value};

use crate::stats::{median, quartiles};

type Runs = BTreeMap<(String, String), (Vec<f64>, String)>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse_json(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = rec
            .get_path("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(metrics) = rec.get_path("result.metrics").and_then(Value::as_map) else {
            continue;
        };
        for (name, m) in metrics {
            let value = m.get_path("value").and_then(Value::as_float);
            let unit = m.get_path("unit").and_then(Value::as_str).unwrap_or("");
            if let Some(v) = value {
                let e = runs
                    .entry((workload.clone(), name.clone()))
                    .or_insert_with(|| (Vec::new(), unit.to_string()));
                e.0.push(v);
            }
        }
    }
    Ok(runs)
}

/// metric name → (lower is better, bound).
fn directions() -> BTreeMap<String, (bool, Option<f64>)> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return out;
    };
    let Ok(spec) = parse_json(&text) else {
        return out;
    };
    for key in ["end_to_end", "per_layer"] {
        for m in spec.get_path(key).and_then(Value::as_list).unwrap_or(&[]) {
            if let Some(name) = m.get_path("name").and_then(Value::as_str) {
                let lower = m.get_path("better").and_then(Value::as_str) != Some("higher");
                let bound = m.get_path("bound").and_then(Value::as_float);
                out.insert(name.to_string(), (lower, bound));
            }
        }
    }
    out
}

/// The verdict for base runs `a` and change runs `b`.
pub fn verdict(a: &[f64], b: &[f64], lower_better: bool, bound: Option<f64>) -> &'static str {
    let better = |x: f64, y: f64| if lower_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return "unresolved";
    }
    let b_wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let a_wins = (0..pairs).filter(|&i| better(a[i], b[i])).count();
    let (ma, mb) = (median(a), median(b));
    let (q1a, q3a) = quartiles(a);
    let (q1b, q3b) = quartiles(b);
    let spread_a = q3a - q1a;
    if b_wins * 10 >= pairs * 9 && (mb - ma).abs() > spread_a && better(mb, ma) {
        return "improved";
    }
    if a_wins * 10 >= pairs * 9 && (mb - ma).abs() > spread_a && better(ma, mb) {
        return "worse";
    }
    if let Some(bound) = bound {
        let scale = ma.abs().max(1e-12);
        let wider = spread_a / scale > bound || (q3b - q1b) / scale > bound;
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        if wider && !all_better {
            return "unresolved";
        }
        let worse_by = if lower_better { mb - ma } else { ma - mb } / scale;
        if worse_by > bound {
            return "worse";
        }
    }
    "unchanged"
}

/// Four significant digits, in scientific notation for small values.
fn sig(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

pub fn run(base: &str, change: &str) -> Result<(), String> {
    let (a, b) = (load(base)?, load(change)?);
    let dirs = directions();
    println!(
        "{:<14} {:<40} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta"
    );
    for ((workload, metric), (xs, unit)) in &a {
        let Some((ys, _)) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (lower, bound) = dirs.get(metric).copied().unwrap_or((true, None));
        let side = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{} [{}, {}] {unit}", sig(median(v)), sig(q1), sig(q3))
        };
        let delta = (median(ys) - median(xs)) / median(xs).abs().max(1e-12) * 100.0;
        println!(
            "{workload:<14} {metric:<40} {:>30} {:>30} {delta:>+7.1}%  {} (n={}/{})",
            side(xs),
            side(ys),
            verdict(xs, ys, lower, bound),
            xs.len(),
            ys.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_pair_and_bound_rules() {
        let base: Vec<f64> = (0..10).map(|i| 1.0 + i as f64 * 0.001).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 0.5 } else { 1.5 })
            .collect();
        assert_eq!(verdict(&base, &faster, true, Some(0.1)), "improved");
        assert_eq!(verdict(&faster, &base, true, Some(0.1)), "worse");
        assert_eq!(verdict(&base, &same, true, Some(0.1)), "unchanged");
        assert_eq!(verdict(&base, &noisy, true, Some(0.1)), "unresolved");
        assert_eq!(verdict(&base, &faster, false, None), "worse");
    }
}
