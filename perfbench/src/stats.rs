//! Order statistics shared by the measurement and compare modes.

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linearly interpolated percentile, `q` in `[0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile the way Python's
/// `statistics.quantiles(xs, n=4)` computes them (the exclusive method).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        n => {
            let m = n as i64 + 1;
            let q = |i: i64| {
                let (j, delta) = ((i * m).div_euclid(4), (i * m).rem_euclid(4));
                let at = |k: i64| v[k.clamp(0, n as i64 - 1) as usize];
                (at(j - 1) * (4 - delta) as f64 + at(j) * delta as f64) / 4.0
            };
            (q(1), q(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.9), 2.8);
    }
}
