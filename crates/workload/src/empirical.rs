//! Trace-driven workloads: fit a stage model to measured frame times.
//!
//! The paper calibrates against real traces (its Figure 4 is a measured
//! CDF). A caller with its own per-frame processing times fits the
//! parametric [`StageModel`] to them ([`StageModel::fit`]), so the
//! workload can be scaled across resolutions/platforms the way the
//! built-in Pictor models are.

use crate::stage::StageModel;

impl StageModel {
    /// Fits a [`StageModel`] to measured per-frame times (milliseconds) by
    /// robust moment matching:
    ///
    /// * the log-normal body is fit to the samples below the spike
    ///   threshold (2.5× the median) — median and log-space deviation;
    /// * the spike probability is the tail mass above the threshold;
    /// * the Pareto spike shape is fit to the tail by the Hill estimator,
    ///   clamped to the model's finite-mean region.
    ///
    /// Returns `None` if fewer than 16 usable samples are provided.
    #[must_use]
    pub fn fit(samples_ms: &[f64]) -> Option<StageModel> {
        let mut xs: Vec<f64> = samples_ms
            .iter()
            .copied()
            .filter(|x| x.is_finite() && *x > 0.0)
            .collect();
        if xs.len() < 16 {
            return None;
        }
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        let threshold = 2.5 * median;

        let body: Vec<f64> = xs.iter().copied().filter(|&x| x <= threshold).collect();
        let tail: Vec<f64> = xs.iter().copied().filter(|&x| x > threshold).collect();
        let spike_prob = tail.len() as f64 / xs.len() as f64;

        // Log-space deviation of the body around the body median.
        let body_median = body[body.len() / 2];
        let sigma = {
            let mean_log: f64 =
                body.iter().map(|x| (x / body_median).ln()).sum::<f64>() / body.len() as f64;
            let var: f64 = body
                .iter()
                .map(|x| {
                    let d = (x / body_median).ln() - mean_log;
                    d * d
                })
                .sum::<f64>()
                / body.len() as f64;
            var.sqrt()
        };

        let mut model = StageModel::new(body_median, sigma.clamp(0.0, 1.5));
        if !tail.is_empty() && spike_prob > 0.0 {
            // Spike multiplier relative to the body median; Hill estimator
            // for the Pareto shape.
            let xm = (threshold / body_median).max(1.0);
            let alpha = if tail.len() >= 4 {
                let hill: f64 =
                    tail.iter().map(|&x| (x / threshold).ln()).sum::<f64>() / tail.len() as f64;
                (1.0 / hill.max(1e-6)).clamp(1.2, 8.0)
            } else {
                2.2
            };
            let cap = (xs[xs.len() - 1] / body_median / xm * 1.1).max(xm * 1.5);
            model = model
                .with_spike_cap(xm * cap.max(2.0))
                .with_spikes(spike_prob, xm, alpha);
        }
        Some(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_simtime::Rng;

    #[test]
    fn fit_recovers_body_parameters() {
        let truth = StageModel::new(5.0, 0.35).with_spikes(0.10, 2.8, 2.4);
        let mut rng = Rng::new(11);
        let trace: Vec<f64> = (0..50_000).map(|_| truth.sample(&mut rng) / 1e6).collect();
        let fitted = StageModel::fit(&trace).expect("fit");
        assert!(
            (fitted.median_ms() - 5.0).abs() / 5.0 < 0.08,
            "median {}",
            fitted.median_ms()
        );
        assert!((fitted.sigma - 0.35).abs() < 0.12, "sigma {}", fitted.sigma);
        assert!(
            (fitted.spike_prob - 0.10).abs() < 0.05,
            "spike prob {}",
            fitted.spike_prob
        );
    }

    #[test]
    fn fit_reproduces_the_mean_within_tolerance() {
        let truth = StageModel::new(8.0, 0.25).with_spikes(0.15, 3.0, 2.2);
        let mut rng = Rng::new(13);
        let trace: Vec<f64> = (0..50_000).map(|_| truth.sample(&mut rng) / 1e6).collect();
        let fitted = StageModel::fit(&trace).expect("fit");
        let trace_mean = trace.iter().sum::<f64>() / trace.len() as f64;
        assert!(
            (fitted.mean_ms() - trace_mean).abs() / trace_mean < 0.15,
            "fitted mean {} vs trace mean {trace_mean}",
            fitted.mean_ms()
        );
    }

    #[test]
    fn fit_spikeless_trace_has_no_spikes() {
        let truth = StageModel::new(10.0, 0.15);
        let mut rng = Rng::new(17);
        let trace: Vec<f64> = (0..10_000).map(|_| truth.sample(&mut rng) / 1e6).collect();
        let fitted = StageModel::fit(&trace).expect("fit");
        assert!(fitted.spike_prob < 0.01, "spike prob {}", fitted.spike_prob);
    }

    #[test]
    fn fit_needs_enough_samples() {
        assert!(StageModel::fit(&[5.0; 10]).is_none());
    }
}
