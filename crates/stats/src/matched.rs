//! Matched-pair comparison (paper §6.2, after Ekman & Stenström).

use crate::confidence::{required_sample_size, Confidence, MIN_SAMPLE_SIZE};
use crate::estimator::OnlineEstimator;

/// A matched-pair comparison between a base and an experimental design.
///
/// Both designs are measured on the *same* sample (the same live-points);
/// the estimator tracks per-window deltas `experiment − base`. Because a
/// design change usually shifts all windows similarly, the delta variance
/// — and therefore the sample size needed to bound the delta's confidence
/// interval — is far smaller than for an absolute estimate. The paper
/// reports reduction factors of 3.5–150×.
///
/// # Example
///
/// ```
/// use spectral_stats::{Confidence, MatchedPair};
///
/// let mut mp = MatchedPair::new();
/// for i in 0..100u64 {
///     let base = 1.0 + (i % 7) as f64 * 0.1;     // varies a lot
///     let exp = base + 0.05;                      // uniform +0.05 shift
///     mp.push(base, exp);
/// }
/// assert!((mp.delta_mean() - 0.05).abs() < 1e-12);
/// assert!(mp.delta_half_width(Confidence::C99_7) < 1e-9, "no delta variance");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MatchedPair {
    base: OnlineEstimator,
    experiment: OnlineEstimator,
    delta: OnlineEstimator,
}

impl MatchedPair {
    /// Create an empty comparison.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one paired measurement (same window under both designs).
    pub fn push(&mut self, base: f64, experiment: f64) {
        self.base.push(base);
        self.experiment.push(experiment);
        self.delta.push(experiment - base);
    }

    /// Number of paired measurements.
    pub fn count(&self) -> u64 {
        self.delta.count()
    }

    /// Estimator over the base design's measurements.
    pub fn base(&self) -> &OnlineEstimator {
        &self.base
    }

    /// Estimator over the experimental design's measurements.
    pub fn experiment(&self) -> &OnlineEstimator {
        &self.experiment
    }

    /// Mean per-window delta (`experiment − base`).
    pub fn delta_mean(&self) -> f64 {
        self.delta.mean()
    }

    /// Confidence-interval half-width on the delta.
    pub fn delta_half_width(&self, confidence: Confidence) -> f64 {
        self.delta.half_width(confidence)
    }

    /// Relative change `(experiment − base) / base` of the means.
    pub fn relative_change(&self) -> f64 {
        if self.base.mean() == 0.0 {
            0.0
        } else {
            self.delta.mean() / self.base.mean()
        }
    }

    /// The delta's confidence interval `(lo, hi)` at `confidence`
    /// (`delta_mean ± delta_half_width`).
    pub fn delta_interval(&self, confidence: Confidence) -> (f64, f64) {
        let hw = self.delta_half_width(confidence);
        (self.delta_mean() - hw, self.delta_mean() + hw)
    }

    /// Whether the delta is statistically distinguishable from zero at
    /// `confidence` (its confidence interval excludes zero).
    pub fn significant(&self, confidence: Confidence) -> bool {
        self.count() >= MIN_SAMPLE_SIZE
            && self.delta_mean().abs() > self.delta_half_width(confidence)
    }

    /// Sample size needed to bound the *delta's* confidence interval to
    /// `relative_error` of the **base mean** — the matched-pair analogue
    /// of the absolute sample-size formula.
    pub fn required_delta_sample(&self, relative_error: f64, confidence: Confidence) -> u64 {
        if self.base.mean() == 0.0 {
            return MIN_SAMPLE_SIZE;
        }
        // cv here is delta-σ relative to the base mean.
        let cv = self.delta.std_dev() / self.base.mean().abs();
        required_sample_size(cv, relative_error, confidence)
    }

    /// Sample size an *absolute* estimate of the experimental design
    /// would need for the same target.
    pub fn required_absolute_sample(&self, relative_error: f64, confidence: Confidence) -> u64 {
        required_sample_size(self.experiment.coefficient_of_variation(), relative_error, confidence)
    }

    /// The matched-pair sample-size reduction factor
    /// (absolute ÷ matched-pair requirement); the paper reports 3.5–150×.
    pub fn reduction_factor(&self, relative_error: f64, confidence: Confidence) -> f64 {
        let abs = self.required_absolute_sample(relative_error, confidence);
        let mp = self.required_delta_sample(relative_error, confidence);
        abs as f64 / mp as f64
    }

    /// Merge another comparison's partials (parallel processing).
    pub fn merge(&mut self, other: &MatchedPair) {
        self.base.merge(&other.base);
        self.experiment.merge(&other.experiment);
        self.delta.merge(&other.delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise in [-0.5, 0.5).
    fn noise(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 31;
        (z % 1000) as f64 / 1000.0 - 0.5
    }

    #[test]
    fn uniform_shift_has_tiny_delta_variance() {
        let mut mp = MatchedPair::new();
        for i in 0..500 {
            let base = 2.0 + noise(i); // high absolute variance
            mp.push(base, base * 1.02); // ~uniform 2% slowdown
        }
        let f = mp.reduction_factor(0.03, Confidence::C99_7);
        assert!(f > 3.0, "matched pairs should need far fewer samples, got {f}");
    }

    #[test]
    fn no_effect_is_insignificant() {
        let mut mp = MatchedPair::new();
        for i in 0..200 {
            let base = 1.5 + noise(i);
            mp.push(base, base + noise(i + 1000) * 1e-3);
        }
        assert!(!mp.significant(Confidence::C99_7));
    }

    #[test]
    fn clear_effect_is_significant() {
        let mut mp = MatchedPair::new();
        for i in 0..200 {
            let base = 1.5 + noise(i);
            mp.push(base, base + 0.3);
        }
        assert!(mp.significant(Confidence::C99_7));
        assert!((mp.delta_mean() - 0.3).abs() < 1e-9);
        assert!((mp.relative_change() - 0.3 / mp.base().mean()).abs() < 1e-12);
    }

    #[test]
    fn intervals_bracket_the_point_estimates() {
        let mut mp = MatchedPair::new();
        for i in 0..200 {
            let base = 1.5 + noise(i);
            mp.push(base, base + 0.3 + noise(i + 7_000) * 0.01);
        }
        let (lo, hi) = mp.delta_interval(Confidence::C95);
        assert!(lo < mp.delta_mean() && mp.delta_mean() < hi);
        assert!((hi - lo) - 2.0 * mp.delta_half_width(Confidence::C95) < 1e-12);
    }

    #[test]
    fn too_few_samples_never_significant() {
        let mut mp = MatchedPair::new();
        for _ in 0..10 {
            mp.push(1.0, 2.0);
        }
        assert!(!mp.significant(Confidence::C95), "below the n ≥ 30 floor");
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = MatchedPair::new();
        let mut b = MatchedPair::new();
        let mut all = MatchedPair::new();
        for i in 0..100 {
            let (x, y) = (1.0 + noise(i), 1.1 + noise(i));
            if i % 2 == 0 {
                a.push(x, y);
            } else {
                b.push(x, y);
            }
            all.push(x, y);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.delta_mean() - all.delta_mean()).abs() < 1e-12);
    }
}
