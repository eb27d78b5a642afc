//! Order statistics over timing samples.

/// `n`, minimum, median and maximum of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 for an
/// empty set, which the callers treat as "layer idle".
pub fn median(xs: &[f64]) -> f64 {
    median_of_sorted(&sorted(xs))
}

fn median_of_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `0..=100`; 0 for an empty set. With fewer
/// than `1000` samples the 99th percentile is the maximum, so read it next
/// to the sample count.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn summary(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    Summary {
        n: v.len(),
        min: v.first().copied().unwrap_or(0.0),
        median: median_of_sorted(&v),
        max: v.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_reports_n_min_median_max() {
        let s = summary(&[5.0, 1.0, 9.0, 3.0]);
        assert_eq!(
            s,
            Summary {
                n: 4,
                min: 1.0,
                median: 4.0,
                max: 9.0
            }
        );
        assert_eq!(summary(&[]).n, 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Few samples: the tail percentile degenerates to the maximum.
        assert_eq!(percentile(&[2.0, 8.0, 4.0], 99.0), 8.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
