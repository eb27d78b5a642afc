//! Small statistics helper: mean, standard deviation and the 95% two-sided
//! confidence interval the paper attaches to every data point (§IV).

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for single samples).
    pub std_dev: f64,
    /// Half-width of the 95% two-sided confidence interval of the mean,
    /// using the normal approximation (the paper averages 10 iterations).
    pub ci95: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Stats {
    /// Computes statistics of a non-empty sample.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub(crate) fn from_samples(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "no samples");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        let ci95 = 1.96 * std_dev / n.sqrt();
        Stats {
            mean,
            std_dev,
            ci95,
            samples: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sample() {
        let s = Stats::from_samples(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.samples, 3);
    }

    #[test]
    fn known_variance() {
        let s = Stats::from_samples(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.std_dev - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn single_sample_has_zero_ci() {
        let s = Stats::from_samples(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_sample_panics() {
        Stats::from_samples(&[]);
    }
}
