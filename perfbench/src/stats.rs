//! Exact order statistics over raw samples.

/// A nearest-rank percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank `p`-th percentile (rank `⌈p/100 · n⌉`), or `None` when
/// fewer than 10 samples lie beyond that rank: such a tail is not
/// resolved by the sample and is not reported.
pub fn percentile(values: &[f64], p: f64) -> Option<Pct> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || n.saturating_sub(rank) < 10 {
        return None;
    }
    Some(Pct {
        value: v[rank - 1],
        samples: n,
    })
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0 (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).map(|p| p.value), Some(100.0));
        assert_eq!(percentile(&v, 90.0).map(|p| p.value), Some(180.0));
        // p99 of 200 samples has only 2 beyond it.
        assert_eq!(percentile(&v, 99.0), None);
        let exact4 = vec![4.0; 100];
        assert_eq!(percentile(&exact4, 50.0).map(|p| p.value), Some(4.0));
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[1.0, 3.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
