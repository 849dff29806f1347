//! Order statistics over latency samples.

use std::collections::BTreeMap;

/// Median of an unsorted sample (mean of the two middle values for an
/// even count); 0.0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile (0–1) of an unsorted sample by the nearest-rank
/// method, with `p` lowered if needed so that at least ten samples lie
/// beyond it; 0.0 for an empty sample.
pub fn tail(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize)
        .min(n.saturating_sub(10))
        .max(1);
    v[rank - 1]
}

/// The `p`-quantile (0–1) of an unsorted sample by the nearest-rank
/// method, without the ten-sample floor of [`tail`]; 0.0 for an empty
/// sample.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The cost of one operation of a script on an unloaded machine: each
/// operation kind's `p`-quantile latency, averaged over the operations
/// with each kind weighted by its count. Kinds are kept apart so that a
/// low quantile does not pick the cheapest kind alone; 0.0 for no
/// samples.
pub fn floor<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>, p: f64) -> f64 {
    let mut kinds: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for (kind, v) in samples {
        kinds.entry(kind).or_default().push(v);
    }
    let n: usize = kinds.values().map(Vec::len).sum();
    let total: f64 = kinds
        .values()
        .map(|v| quantile(v, p) * v.len() as f64)
        .sum();
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(tail(&v, 0.90), 90.0);
        // p99 of 100 samples has one sample beyond it: lowered to p90.
        assert_eq!(tail(&v, 0.99), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&v, 0.05), 5.0);
        assert_eq!(quantile(&[7.0], 0.05), 7.0);
    }

    #[test]
    fn floor_weights_each_kind_by_its_count() {
        // Kind a: 1..=100 (p5 = 5); kind b: 300 samples of 1000 and one
        // of 10 (p5 = 1000).
        let a = (1..=100).map(|i| ("a", f64::from(i)));
        let b = std::iter::repeat(("b", 1000.0))
            .take(300)
            .chain([("b", 10.0)]);
        let got = floor(a.chain(b), 0.05);
        assert_eq!(got, (5.0 * 100.0 + 1000.0 * 301.0) / 401.0);
        assert_eq!(floor(Vec::<(u8, f64)>::new(), 0.05), 0.0);
    }
}
