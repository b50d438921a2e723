//! Exact-percentile, median-over-slices and quartile math against
//! hand-computed vectors.

use ares_benchmark::stats::{
    median, median_of_slice_percentiles, percentile, percentile_of, quartiles, relative_spread,
};

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 0.5), Some(50));
    assert_eq!(percentile(&v, 0.99), Some(99));
    assert_eq!(percentile(&v, 0.999), Some(100));
    assert_eq!(percentile(&v, 1.0), Some(100));
    // Ten samples: the median is the 5th, p99 the 10th.
    let ten = [3, 5, 8, 13, 21, 34, 55, 89, 144, 233];
    assert_eq!(percentile(&ten, 0.5), Some(21));
    assert_eq!(percentile(&ten, 0.9), Some(144));
    assert_eq!(percentile(&ten, 0.99), Some(233));
    assert_eq!(percentile(&[7], 0.5), Some(7));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn percentile_of_sorts_first_and_is_exact() {
    // No bucketing: 815 and 863 stay 815 and 863.
    let mut v = vec![863, 815, 900, 815];
    assert_eq!(percentile_of(&mut v, 0.5), 815.0);
    assert_eq!(percentile_of(&mut v, 0.75), 863.0);
    assert_eq!(percentile_of(&mut [], 0.5), 0.0);
}

#[test]
fn median_of_odd_and_even() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn one_stalled_slice_does_not_set_the_tail() {
    // Four slices of 100 samples; p99 of each is its 99th value.
    let calm: Vec<u64> = (1..=100).collect();
    let stalled: Vec<u64> = (1..=100).map(|x| x * 50).collect();
    let mut subs = vec![calm.clone(), stalled, calm.clone(), calm.clone()];
    // p99s are 99, 4950, 99, 99: the median of four is (99 + 99) / 2.
    assert_eq!(median_of_slice_percentiles(&mut subs, 0.99), 99.0);
    // Hand-computed with four different tails: 10, 20, 30, 40 -> 25.
    let mut subs: Vec<Vec<u64>> = [10u64, 40, 20, 30].iter().map(|&t| vec![1, 2, t]).collect();
    assert_eq!(median_of_slice_percentiles(&mut subs, 0.99), 25.0);
    // An empty slice is left out, not counted as zero.
    let mut subs = vec![vec![5], vec![], vec![7], vec![9]];
    assert_eq!(median_of_slice_percentiles(&mut subs, 0.99), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[3.0, 1.0, 5.0, 2.0, 4.0]), Some([1.5, 3.0, 4.5]));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn spread_is_interquartile_range_over_median() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(relative_spread(&v), Some((8.25 - 2.75) / 5.5));
    assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
}
