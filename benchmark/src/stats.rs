//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw microsecond samples and sorted, never
//! bucketed: a log-bucket histogram's step at 800 µs is 6 %, which is
//! most of a 10 % regression bound.

/// The number of equal slices a timed window is cut into. Every
/// end-to-end rate, latency and cost is the **median over the slices**
/// of the slice's own value: the host is a shared 2-core VM on which
/// the same CPU-bound loop runs 40 % slower for a few seconds at a
/// time, and a median over twenty 1 s slices does not see an episode
/// that a mean over the 20 s window (or a median over four 5 s
/// sub-windows, which an episode can straddle two of) reports in full.
pub const SLICES: usize = 20;
/// The number of sub-windows the `series.*` metrics and the traced pass
/// divide a window into; each is `SLICES / SUB_WINDOWS` slices.
pub const SUB_WINDOWS: usize = 4;

/// The sub-window slice `slice` belongs to.
pub fn sub_window_of(slice: usize) -> usize {
    slice / (SLICES / SUB_WINDOWS)
}

/// The `p`-quantile (`0 < p <= 1`) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p·n` samples at or below
/// it. `None` for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` and returns its `p`-quantile (0 when empty, so a
/// workload that produced no sample of a kind reports a visible zero).
pub fn percentile_of(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p).unwrap_or(0) as f64
}

/// Median of `values` (mean of the two middle values when the count is
/// even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The estimator of the end-to-end latency metrics: the `p`-quantile of
/// each slice on its own, then the median of those. One stall spoils
/// one slice, not the metric. Slices without samples are left out.
pub fn median_of_slice_percentiles(per_slice: &mut [Vec<u64>], p: f64) -> f64 {
    let quantiles: Vec<f64> =
        per_slice.iter_mut().filter(|s| !s.is_empty()).map(|s| percentile_of(s, p)).collect();
    median(&quantiles)
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) does, because that is what the driver judges
/// spreads with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range of `values` as a share of their median — the
/// run-to-run spread the driver compares with a metric's bound.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}
