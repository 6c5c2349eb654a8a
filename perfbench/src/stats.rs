//! Order statistics and the fixed-vs-slope fit the benchmark reports.

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; `None` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The percentile rule: a `p`-th percentile (`p` in `(0, 1)`) is reported
/// only when at least `min_beyond` samples lie strictly above its rank,
/// i.e. when `floor(n * (1 - p)) >= min_beyond`.
pub fn percentile_supported(n: usize, p: f64, min_beyond: usize) -> bool {
    ((n as f64) * (1.0 - p) + 1e-9).floor() as usize >= min_beyond
}

/// Fewest samples for which [`percentile_supported`] holds.
pub fn min_samples_for(p: f64, min_beyond: usize) -> usize {
    (1..)
        .find(|&n| percentile_supported(n, p, min_beyond))
        .expect("an unbounded search terminates for p < 1")
}

/// Weighted least-squares line `y = intercept + slope * x` with
/// relative (1/y²) weights, so the small sizes pin the intercept as
/// tightly as the large ones pin the slope; `None` for fewer than two
/// distinct `x`.
pub fn relative_line_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let (mut sw, mut swx, mut swy, mut swxx, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let w = 1.0 / (y * y).max(1e-30);
        sw += w;
        swx += w * x;
        swy += w * y;
        swxx += w * x * x;
        swxy += w * x * y;
    }
    let det = sw * swxx - swx * swx;
    if points.len() < 2 || det.abs() <= 1e-12 * sw * swxx {
        return None;
    }
    let slope = (sw * swxy - swx * swy) / det;
    Some(((swy - slope * swx) / sw, slope))
}

/// Median nanoseconds per call of `f`: `rounds` timed batches of `iters`
/// calls each.
pub fn time_ns(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        let t0 = std::time::Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / iters.max(1) as f64);
    }
    median(&per_call).expect("at least one round")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fit_recovers_a_line() {
        let pts: Vec<(f64, f64)> = [64.0, 256.0, 4096.0]
            .iter()
            .map(|&x| (x, 500.0 + 0.25 * x))
            .collect();
        let (a, b) = relative_line_fit(&pts).unwrap();
        assert!((a - 500.0).abs() < 1e-6 && (b - 0.25).abs() < 1e-9);
        assert_eq!(relative_line_fit(&[(1.0, 2.0)]), None);
        // A 10% error at the largest size barely moves the intercept.
        let mut noisy = pts.clone();
        noisy[2].1 *= 1.1;
        let (a, _) = relative_line_fit(&noisy).unwrap();
        assert!((a - 500.0).abs() < 25.0, "intercept {a}");
    }
}
