//! The shared multiplicative-weights length layer.
//!
//! Every solver in this crate prices routes against a *length function*: a
//! positive weight per directed arc (Fleischer, exact-LP validation sweeps) or
//! per link (the path-restricted solver). This module holds that state:
//!
//! * [`MwuLengths`] — the owned state: lengths, capacities (plus cached
//!   reciprocals), the step size and the incrementally-maintained
//!   `D(l) = Σ_a len_a · cap_a`. `MwuLengths::reset` re-initializes
//!   in place so a solver workspace reuses the buffers across solves.
//! * `LengthAverage` (crate-internal) — the running sum of the *normalised*
//!   length function `l / D(l)`, sampled along a multiplicative-weights
//!   trajectory. The regret analysis behind the Garg–Könemann / Fleischer
//!   guarantee converges in the average of those iterates, not in the last
//!   one; the Fleischer phase loop bounds from a suffix window of this sum
//!   when it could close the gap (see `fleischer::phase`).
//!
//! There is one update form, [`apply`](MwuLengths::apply): it multiplies by
//! the cached reciprocal capacity, because the update loops run once per
//! loaded arc and a multiply measurably beats a divide there.

/// Multiplicative-weights length state: lengths + capacities + step size +
/// the incrementally maintained potential `D(l) = Σ_a len_a · cap_a`.
#[derive(Debug, Clone, Default)]
pub struct MwuLengths {
    lens: Vec<f64>,
    caps: Vec<f64>,
    /// Cached reciprocals: the update loops run one per loaded arc, and a
    /// multiply beats a divide several times over there.
    inv_caps: Vec<f64>,
    eps: f64,
    d_l: f64,
}

impl MwuLengths {
    /// Creates empty state; call `reset` before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re-)initializes for a new solve over the given capacities: every
    /// length starts at `delta / cap` with the classical
    /// `delta = (m / (1 - eps))^(-1/eps)`, and `D(l)` is summed fresh.
    /// Buffers are reused, so repeated resets stop allocating once the
    /// largest instance has been seen.
    ///
    /// # Panics
    /// Panics if `eps` is outside `(0, 0.5)` (the FPTAS step-size range).
    pub(crate) fn reset<I: IntoIterator<Item = f64>>(&mut self, eps: f64, caps: I) {
        assert!(eps > 0.0 && eps < 0.5, "epsilon must be in (0, 0.5)");
        self.eps = eps;
        self.caps.clear();
        self.caps.extend(caps);
        let m = self.caps.len();
        let delta = (m as f64 / (1.0 - eps)).powf(-1.0 / eps);
        self.inv_caps.clear();
        self.inv_caps.extend(self.caps.iter().map(|c| 1.0 / c));
        self.lens.clear();
        self.lens.extend(self.caps.iter().map(|c| delta / c));
        self.d_l = self
            .lens
            .iter()
            .zip(self.caps.iter())
            .map(|(l, c)| l * c)
            .sum();
    }

    /// Number of arcs/links the state covers.
    pub fn num_arcs(&self) -> usize {
        self.caps.len()
    }

    /// The dense length slice (what SSSP kernels index).
    #[inline]
    pub fn lens(&self) -> &[f64] {
        &self.lens
    }

    /// Capacity of arc/link `id`.
    #[inline]
    pub fn cap(&self, id: usize) -> f64 {
        self.caps[id]
    }

    /// The capacities slice.
    #[inline]
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// The current potential `D(l)`.
    #[inline]
    pub fn d_l(&self) -> f64 {
        self.d_l
    }

    /// Whether the classical termination `D(l) >= 1` has fired.
    #[inline]
    pub fn saturated(&self) -> bool {
        self.d_l >= 1.0
    }

    /// The multiplicative update for routing `load` over arc `id`:
    /// `len *= 1 + eps · load / cap` in the reciprocal form
    /// (`eps · load · (1/cap)`), maintaining `D(l)` incrementally. One
    /// definition serves every solver — the Fleischer routing kernels and
    /// the path-restricted loop — keeping them arithmetically identical.
    #[inline]
    pub fn apply(&mut self, id: usize, load: f64) {
        let old = self.lens[id];
        let new = old * (1.0 + self.eps * load * self.inv_caps[id]);
        self.d_l += (new - old) * self.caps[id];
        self.lens[id] = new;
    }

    /// The dual throughput bound `D(l) / alpha` for a demand-weighted
    /// shortest-path sum `alpha` computed under these lengths (infinite when
    /// `alpha` is not positive).
    pub(crate) fn dual_bound(&self, alpha: f64) -> f64 {
        if alpha > 0.0 {
            self.d_l / alpha
        } else {
            f64::INFINITY
        }
    }
}

/// Running sum of the normalised length function `l / D(l)` over the samples
/// taken along one solve (each sample has `D = 1`, so every iterate weighs
/// the same). Any difference of two states of the sum is a non-negative
/// length function, hence a valid dual certificate; the caller keeps copies
/// of [`sum`](LengthAverage::sum) as window bases.
#[derive(Debug, Clone)]
pub(crate) struct LengthAverage {
    sum: Vec<f64>,
}

impl LengthAverage {
    /// An empty sum over `num_arcs` arcs.
    pub fn new(num_arcs: usize) -> Self {
        LengthAverage {
            sum: vec![0.0; num_arcs],
        }
    }

    /// Adds the current `l / D(l)` of `mwu`. O(arcs).
    pub fn sample(&mut self, mwu: &MwuLengths) {
        let inv_d = 1.0 / mwu.d_l();
        for (s, l) in self.sum.iter_mut().zip(mwu.lens()) {
            *s += l * inv_d;
        }
    }

    /// The sum over every sample so far.
    pub fn sum(&self) -> &[f64] {
        &self.sum
    }

    /// Writes the window `sum - base` (the whole sum when `base` is `None`)
    /// into `out`. Samples are positive and floating-point addition of a
    /// non-negative term never decreases a sum, so every entry is `>= 0`.
    pub fn window(&self, base: Option<&[f64]>, out: &mut Vec<f64>) {
        out.clear();
        match base {
            None => out.extend_from_slice(&self.sum),
            Some(base) => out.extend(self.sum.iter().zip(base).map(|(s, b)| s - b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_matches_classical_init() {
        let mut mwu = MwuLengths::new();
        mwu.reset(0.1, [1.0, 2.0, 4.0]);
        let delta = (3.0f64 / 0.9).powf(-10.0);
        assert_eq!(mwu.lens()[0], delta);
        assert_eq!(mwu.lens()[1], delta / 2.0);
        assert_eq!(mwu.num_arcs(), 3);
        // d_l = sum len*cap = 3 * delta exactly (each term is delta).
        assert!((mwu.d_l() - 3.0 * delta).abs() <= f64::EPSILON * 3.0 * delta);
        assert!(!mwu.saturated());
    }

    #[test]
    fn apply_tracks_d_l_incrementally() {
        let mut mwu = MwuLengths::new();
        mwu.reset(0.2, [1.0, 2.0]);
        mwu.apply(0, 0.5);
        mwu.apply(1, 0.25);
        let direct: f64 = mwu.lens().iter().zip(mwu.caps()).map(|(l, c)| l * c).sum();
        assert!((mwu.d_l() - direct).abs() < 1e-15);
    }

    #[test]
    fn length_average_sums_normalised_samples_and_differences_windows() {
        let mut mwu = MwuLengths::new();
        mwu.reset(0.2, [1.0, 2.0]);
        let mut avg = LengthAverage::new(2);
        assert_eq!(avg.sum(), [0.0, 0.0]);
        avg.sample(&mwu);
        let base = avg.sum().to_vec();
        // Every sample has D = 1: cap-weighted, the sum counts the samples.
        let d = |l: &[f64]| l[0] * 1.0 + l[1] * 2.0;
        assert!((d(&base) - 1.0).abs() < 1e-15);
        mwu.apply(0, 1.0);
        avg.sample(&mwu);
        mwu.apply(1, 2.0);
        avg.sample(&mwu);
        let mut out = Vec::new();
        avg.window(None, &mut out);
        assert_eq!(out, avg.sum());
        assert!((d(&out) - 3.0).abs() < 1e-14);
        avg.window(Some(&base), &mut out);
        assert!((d(&out) - 2.0).abs() < 1e-14);
        assert!(out.iter().all(|&l| l > 0.0));
        // The window weighs arc 0 more than the first sample did: it was
        // loaded first and stayed long for both later samples.
        assert!(out[0] / out[1] > base[0] / base[1]);
    }

    #[test]
    fn reset_reuses_buffers_across_sizes() {
        let mut mwu = MwuLengths::new();
        mwu.reset(0.1, (0..16).map(|_| 1.0));
        let big = mwu.d_l();
        mwu.reset(0.1, (0..4).map(|_| 2.0));
        assert_eq!(mwu.num_arcs(), 4);
        assert_ne!(mwu.d_l(), big);
        // Same init as a fresh state.
        let mut fresh = MwuLengths::new();
        fresh.reset(0.1, (0..4).map(|_| 2.0));
        assert_eq!(mwu.lens(), fresh.lens());
        assert_eq!(mwu.d_l().to_bits(), fresh.d_l().to_bits());
    }

    #[test]
    fn dual_bound_guards_nonpositive_alpha() {
        let mut mwu = MwuLengths::new();
        mwu.reset(0.1, [1.0]);
        assert!(mwu.dual_bound(0.0).is_infinite());
        assert!(mwu.dual_bound(2.0) > 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_epsilon_rejected() {
        MwuLengths::new().reset(0.7, [1.0]);
    }
}
