//! Per-stage processing-time distributions.

use odr_simtime::{time::millis_f64, Duration, Rng};

/// The processing-time distribution of one pipeline stage.
///
/// Section 4.1 of the paper shows that frame processing times have a
/// well-behaved body with a heavy tail: "about 80 % – 90 % of the frames'
/// processing time is less than 16.6 ms, and about 10 % – 20 % could
/// increase to well above that" (Figure 4a), attributed to frame-complexity
/// changes and cloud performance variation. We model this as a log-normal
/// body multiplied, with a spike probability, by a Pareto
/// spike factor — matching both the smooth CDF body and the abrupt
/// multi-interval excursions of the Figure 4b trace.
///
/// # Examples
///
/// ```
/// use odr_simtime::Rng;
/// use odr_workload::StageModel;
///
/// let model = StageModel::new(5.0, 0.4).with_spikes(0.1, 3.0, 2.0);
/// let mut rng = Rng::new(1);
/// let d = model.sample(&mut rng);
/// assert!(d.as_secs_f64() > 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StageModel {
    /// Median of the log-normal body, in milliseconds.
    median_ms: f64,
    /// `median_ms.ln()`, the body's `μ`, taken once here rather than per
    /// sample; only the constructor and `scaled` write either.
    ln_median: f64,
    /// Sigma of the underlying normal (multiplicative spread).
    pub(crate) sigma: f64,
    /// Probability that a frame is a spike.
    pub(crate) spike_prob: f64,
    /// Minimum spike multiplier (Pareto scale).
    spike_min_mult: f64,
    /// Pareto shape of the spike multiplier (smaller = heavier tail).
    spike_alpha: f64,
    /// Upper truncation of the spike multiplier. The paper's Figure 4
    /// traces top out around 60 ms — frame complexity is bounded — so the
    /// tail is heavy but not unbounded.
    spike_cap: f64,
}

impl StageModel {
    /// Creates a spike-free model with the given median (ms) and sigma.
    ///
    /// # Panics
    ///
    /// Panics if `median_ms` is not strictly positive or `sigma` is
    /// negative.
    #[must_use]
    pub fn new(median_ms: f64, sigma: f64) -> Self {
        assert!(median_ms > 0.0, "median must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        StageModel {
            median_ms,
            ln_median: median_ms.ln(),
            sigma,
            spike_prob: 0.0,
            spike_min_mult: 1.0,
            spike_alpha: 2.0,
            spike_cap: 12.0,
        }
    }

    /// Adds a spike tail: with probability `prob` the sampled body time is
    /// multiplied by `Pareto(min_mult, alpha)`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`, or `min_mult < 1`, or
    /// `alpha <= 1` (which would give the multiplier an infinite mean).
    #[must_use]
    pub fn with_spikes(mut self, prob: f64, min_mult: f64, alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "spike probability out of range"
        );
        assert!(min_mult >= 1.0, "spike multiplier must be >= 1");
        assert!(alpha > 1.0, "spike alpha must exceed 1 for a finite mean");
        assert!(
            self.spike_cap > min_mult,
            "spike cap below the minimum multiplier"
        );
        self.spike_prob = prob;
        self.spike_min_mult = min_mult;
        self.spike_alpha = alpha;
        self
    }

    /// Overrides the spike-multiplier truncation (default 12×).
    ///
    /// # Panics
    ///
    /// Panics if `cap` does not exceed the minimum spike multiplier.
    #[must_use]
    pub(crate) fn with_spike_cap(mut self, cap: f64) -> Self {
        assert!(
            cap > self.spike_min_mult,
            "spike cap below the minimum multiplier"
        );
        self.spike_cap = cap;
        self
    }

    /// Returns a model with the median scaled by `factor` (resolution or
    /// platform speed scaling).
    #[must_use]
    pub(crate) fn scaled(mut self, factor: f64) -> Self {
        self.median_ms *= factor;
        self.ln_median = self.median_ms.ln();
        self
    }

    /// Median of the log-normal body, in milliseconds.
    #[cfg(test)]
    pub(crate) fn median_ms(&self) -> f64 {
        self.median_ms
    }

    /// Draws one processing time.
    pub fn sample(&self, rng: &mut Rng) -> Duration {
        let body = rng.lognormal(self.ln_median, self.sigma);
        let mult = if self.spike_prob > 0.0 && rng.chance(self.spike_prob) {
            rng.pareto(self.spike_min_mult, self.spike_alpha)
                .min(self.spike_cap)
        } else {
            1.0
        };
        millis_f64(body * mult)
    }

    /// The analytic mean of the distribution, in milliseconds.
    ///
    /// `E[X] = median·e^{σ²/2} · (1 − p + p·E[mult])`, where `E[mult]` is
    /// the mean of a Pareto(`x_m`, `α`) truncated at the spike cap `M`:
    /// `E = α·x_m/(α−1) · (1 − (x_m/M)^{α−1}) / (1 − (x_m/M)^α)`, with the
    /// probability mass at the cap itself folded in by sampling-side
    /// clamping (the clamp maps tail mass to exactly `M`).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        let body_mean = self.median_ms * (self.sigma * self.sigma / 2.0).exp();
        body_mean * (1.0 - self.spike_prob + self.spike_prob * self.mean_spike_mult())
    }

    /// Mean of `min(Pareto(x_m, α), M)`.
    fn mean_spike_mult(&self) -> f64 {
        let (xm, a, m) = (self.spike_min_mult, self.spike_alpha, self.spike_cap);
        // P(mult >= M) = (xm/M)^a lands exactly on M; the rest is the
        // truncated-Pareto mean over [xm, M).
        let tail_p = (xm / m).powf(a);
        let truncated = a * xm / (a - 1.0) * (1.0 - (xm / m).powf(a - 1.0)) / (1.0 - tail_p);
        (1.0 - tail_p) * truncated + tail_p * m
    }

    /// The steady-state rate (frames per second) a stage with this
    /// distribution sustains when it runs back-to-back.
    #[must_use]
    pub fn mean_rate_hz(&self) -> f64 {
        1e3 / self.mean_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_mean_matches_analytic() {
        let m = StageModel::new(5.0, 0.4).with_spikes(0.1, 3.0, 2.2);
        let mut rng = Rng::new(7);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| m.sample(&mut rng).as_secs_f64() * 1e3).sum();
        let emp = sum / n as f64;
        let ana = m.mean_ms();
        assert!(
            (emp - ana).abs() / ana < 0.03,
            "empirical {emp}, analytic {ana}"
        );
    }

    #[test]
    fn median_is_preserved_without_spikes() {
        let m = StageModel::new(8.0, 0.5);
        let mut rng = Rng::new(11);
        let mut xs: Vec<f64> = (0..50_001)
            .map(|_| m.sample(&mut rng).as_secs_f64() * 1e3)
            .collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median - 8.0).abs() < 0.2, "median {median}");
    }

    #[test]
    fn spike_fraction_matches_probability() {
        let m = StageModel::new(4.0, 0.2).with_spikes(0.15, 3.0, 2.0);
        let mut rng = Rng::new(13);
        let n = 100_000;
        // Body p999 ≈ 4·e^{3.09·0.2} ≈ 7.4 ms; spikes start at ≈ 3×body.
        let above = (0..n)
            .filter(|_| m.sample(&mut rng).as_secs_f64() * 1e3 > 9.0)
            .count();
        let frac = above as f64 / n as f64;
        assert!((frac - 0.15).abs() < 0.02, "spike fraction {frac}");
    }

    #[test]
    fn figure4_shape_body_below_interval() {
        // The paper's Figure 4a shape: 80–90 % of frames below 16.6 ms.
        let m = StageModel::new(8.0, 0.35).with_spikes(0.12, 2.5, 2.0);
        let mut rng = Rng::new(17);
        let n = 100_000;
        let below = (0..n)
            .filter(|_| m.sample(&mut rng).as_secs_f64() * 1e3 <= 16.6)
            .count();
        let frac = below as f64 / n as f64;
        assert!(
            (0.80..=0.92).contains(&frac),
            "fraction below 16.6 ms = {frac}"
        );
    }

    #[test]
    fn scaled_scales_mean_linearly() {
        let m = StageModel::new(5.0, 0.3).with_spikes(0.05, 2.0, 2.5);
        let s = m.scaled(1.6);
        assert!((s.mean_ms() / m.mean_ms() - 1.6).abs() < 1e-12);
    }

    /// A draw that takes the median's log per sample, as `sample` did
    /// before the log was cached.
    fn sample_taking_the_log(m: &StageModel, rng: &mut Rng) -> Duration {
        let body = rng.lognormal(m.median_ms.ln(), m.sigma);
        let mult = if m.spike_prob > 0.0 && rng.chance(m.spike_prob) {
            rng.pareto(m.spike_min_mult, m.spike_alpha).min(m.spike_cap)
        } else {
            1.0
        };
        millis_f64(body * mult)
    }

    #[test]
    fn the_cached_log_draws_the_same_bits_before_and_after_scaling() {
        let base = StageModel::new(4.52, 0.35).with_spikes(0.12, 2.5, 2.0);
        let models = [
            base,
            base.scaled(1.85),
            base.scaled(0.7).scaled(1.3),
            StageModel::new(2.2, 0.2),
        ];
        for (i, model) in models.iter().enumerate() {
            let (mut rng, mut reference) = (Rng::new(90 + i as u64), Rng::new(90 + i as u64));
            for _ in 0..10_000 {
                assert_eq!(
                    model.sample(&mut rng),
                    sample_taking_the_log(model, &mut reference),
                    "model {i}"
                );
            }
        }
    }

    #[test]
    fn mean_rate_is_inverse_mean() {
        let m = StageModel::new(10.0, 0.0);
        assert!((m.mean_rate_hz() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn zero_median_panics() {
        let _ = StageModel::new(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn infinite_mean_spikes_panic() {
        let _ = StageModel::new(1.0, 0.1).with_spikes(0.1, 2.0, 1.0);
    }
}
