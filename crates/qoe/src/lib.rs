//! Quality-of-experience model — the simulated counterpart of the paper's
//! 30-participant user study (Section 6.7, Figures 14 and 15).
//!
//! We obviously cannot re-run an IRB study, so this crate substitutes a
//! *model of the mapping* from objective QoS (delivered FPS, its 1st
//! percentile tail, motion-to-photon latency) to subjective outcomes
//! (a 1–10 rating; yes/maybe/no reports of lag, stutter, and tearing).
//! The QoS inputs come from the same simulations as every other figure;
//! only this mapping is synthetic. It encodes three well-established
//! findings the paper leans on:
//!
//! * latency displeasure is thresholded — users barely distinguish 30 ms
//!   from 80 ms but sharply penalise beyond ~150 ms (Claypool & Claypool);
//! * frame rates above ~45 FPS saturate perception, while dropping toward
//!   30 FPS and below costs satisfaction steeply;
//! * *irregular* delivery (a weak 1 %-ile tail relative to the mean) reads
//!   as stutter even when the average rate is fine — the effect ODR's
//!   accelerate-to-catch-up design targets (Section 5.2).
//!
//! Per-participant sensitivity jitter reproduces the spread of the study.

use odr_simtime::Rng;

/// Objective QoS of one configuration, as measured by the simulator.
#[derive(Clone, Copy, Debug)]
pub struct QoeSample {
    /// Mean client FPS.
    pub client_fps: f64,
    /// 1st-percentile windowed client FPS (the paper's tail metric).
    pub fps_p1: f64,
    /// Mean motion-to-photon latency in milliseconds.
    pub mtp_mean_ms: f64,
    /// 99th-percentile MtP latency in milliseconds.
    pub mtp_p99_ms: f64,
    /// Coefficient of variation of inter-display intervals (frame pacing).
    pub pacing_cv: f64,
    /// Fraction of inter-display intervals over twice the median.
    pub stutter_rate: f64,
}

impl QoeSample {
    /// Stutter severity in `[0, 1]`: combines the windowed-tail shortfall
    /// (sustained dips), delivery irregularity (pacing CV), and discrete
    /// hitch events.
    #[must_use]
    pub fn stutter(&self) -> f64 {
        if self.client_fps <= 0.0 {
            return 1.0;
        }
        let tail = (1.0 - self.fps_p1 / self.client_fps).clamp(0.0, 1.0);
        (0.35 * tail + 0.4 * self.pacing_cv + 4.0 * self.stutter_rate).clamp(0.0, 1.0)
    }
}

/// A logistic step: 0 → `mag` as `x` crosses `mid` with steepness `k`.
fn logistic(x: f64, mid: f64, k: f64, mag: f64) -> f64 {
    mag / (1.0 + (-(x - mid) / k).exp())
}

/// The deterministic (population-mean) rating for a sample, on the study's
/// 1–10 scale.
///
/// # Examples
///
/// ```
/// use odr_qoe::{rating, QoeSample};
///
/// let smooth = |client_fps, fps_p1, mtp_mean_ms, mtp_p99_ms| QoeSample {
///     client_fps,
///     fps_p1,
///     mtp_mean_ms,
///     mtp_p99_ms,
///     pacing_cv: 0.0,
///     stutter_rate: 0.0,
/// };
/// let local = smooth(58.0, 54.0, 28.0, 45.0);
/// let congested = smooth(36.0, 20.0, 3000.0, 4500.0);
/// assert!(rating(&local) > 7.5);
/// assert!(rating(&congested) < 4.0);
/// ```
#[must_use]
pub fn rating(sample: &QoeSample) -> f64 {
    let base = 8.6;
    // Latency: mild until ~150 ms, saturating at −4.2 for multi-second
    // lag (Claypool's action-game threshold sits on the shoulder).
    let lat_pen = logistic(sample.mtp_mean_ms, 260.0, 80.0, 4.2);
    // Frame rate: displeasure ramps below ~32 FPS; above ~45 it saturates.
    let fps_pen = logistic(-sample.client_fps, -27.0, 4.5, 3.5);
    // Stutter: irregular delivery reads badly even at good mean rates.
    let stutter_pen = 2.2 * sample.stutter().powf(1.5);
    (base - lat_pen - fps_pen - stutter_pen).clamp(1.0, 10.0)
}

/// One participant's yes/maybe/no answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Answer {
    /// The artifact was experienced.
    Yes,
    /// Unsure.
    Maybe,
    /// Not experienced.
    No,
}

/// Aggregated panel outcome for one configuration (one Figure 14 bar and
/// one Figure 15 column group).
#[derive(Clone, Debug)]
pub struct PanelResult {
    /// Mean of the participants' ratings.
    pub mean_rating: f64,
    /// Individual ratings (length = panel size).
    pub ratings: Vec<f64>,
    /// (yes, maybe, no) counts for "did you experience lag?".
    pub lag: (u32, u32, u32),
    /// (yes, maybe, no) counts for stutter.
    pub stutter: (u32, u32, u32),
    /// (yes, maybe, no) counts for screen tearing.
    pub tearing: (u32, u32, u32),
}

/// A simulated participant panel.
#[derive(Clone, Copy, Debug)]
pub struct Panel {
    /// Number of participants (the paper used 30).
    pub participants: u32,
    /// RNG seed (participants' sensitivities are drawn from it).
    pub seed: u64,
}

impl Default for Panel {
    fn default() -> Self {
        Panel {
            participants: 30,
            seed: 0x9e1,
        }
    }
}

impl Panel {
    /// Creates a panel.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    #[must_use]
    pub fn new(participants: u32, seed: u64) -> Self {
        assert!(participants > 0, "empty panel");
        Panel { participants, seed }
    }

    /// Evaluates one configuration: every participant plays it and reports
    /// a rating plus artifact answers.
    #[must_use]
    pub fn evaluate(&self, sample: &QoeSample) -> PanelResult {
        let mut rng = Rng::new(self.seed);
        let mean = rating(sample);
        let stutter = sample.stutter();
        let mut ratings = Vec::with_capacity(self.participants as usize);
        let mut lag = (0, 0, 0);
        let mut stut = (0, 0, 0);
        let mut tear = (0, 0, 0);
        for _ in 0..self.participants {
            // Per-participant sensitivity: ±1 point of rating spread and a
            // personal latency threshold.
            let noise = rng.normal(0.0, 0.55);
            ratings.push((mean + noise).clamp(1.0, 10.0));

            let lat_threshold = rng.lognormal(140.0f64.ln(), 0.35);
            let felt_lag = sample.mtp_p99_ms.max(sample.mtp_mean_ms * 1.2);
            tally(&mut lag, felt_lag / lat_threshold, &mut rng);

            let stutter_threshold = rng.lognormal(0.28f64.ln(), 0.35);
            tally(&mut stut, stutter / stutter_threshold, &mut rng);

            // Streamed video cannot tear (frames are whole); reports are
            // occasional misattributions, slightly more likely the worse
            // the stream stutters.
            let tear_score = 0.25 + 0.9 * stutter;
            let tear_threshold = rng.lognormal(1.0f64.ln(), 0.4);
            tally(&mut tear, tear_score / tear_threshold, &mut rng);
        }
        let n = f64::from(self.participants);
        PanelResult {
            mean_rating: ratings.iter().sum::<f64>() / n,
            ratings,
            lag,
            stutter: stut,
            tearing: tear,
        }
    }
}

/// Converts a severity ratio (1.0 = right at the participant's threshold)
/// into a yes/maybe/no tally with a fuzzy band around the threshold.
fn tally(counts: &mut (u32, u32, u32), ratio: f64, rng: &mut Rng) {
    let answer = if ratio > 1.25 {
        Answer::Yes
    } else if ratio > 0.75 {
        // Within the ambiguity band: lean by ratio.
        if rng.chance((ratio - 0.75) / 0.5) {
            Answer::Maybe
        } else {
            Answer::No
        }
    } else {
        Answer::No
    };
    match answer {
        Answer::Yes => counts.0 += 1,
        Answer::Maybe => counts.1 += 1,
        Answer::No => counts.2 += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(fps: f64, p1: f64, mtp: f64) -> QoeSample {
        QoeSample {
            client_fps: fps,
            fps_p1: p1,
            mtp_mean_ms: mtp,
            mtp_p99_ms: mtp * 1.6,
            pacing_cv: 0.2,
            stutter_rate: 0.01,
        }
    }

    #[test]
    fn local_play_rates_high() {
        let r = rating(&sample(58.0, 54.0, 28.0));
        assert!((7.5..=9.0).contains(&r), "rating {r}");
    }

    #[test]
    fn congestion_rates_terrible() {
        let r = rating(&sample(36.0, 18.0, 3000.0));
        assert!(r < 4.0, "rating {r}");
    }

    #[test]
    fn latency_monotonically_hurts() {
        let mut prev = f64::INFINITY;
        for mtp in [20.0, 80.0, 150.0, 400.0, 2000.0] {
            let r = rating(&sample(60.0, 57.0, mtp));
            assert!(r <= prev + 1e-12, "not monotone at {mtp}");
            prev = r;
        }
    }

    #[test]
    fn fps_below_thirty_hurts_sharply() {
        let at36 = rating(&sample(36.0, 34.0, 90.0));
        let at30 = rating(&sample(30.0, 28.0, 90.0));
        let at20 = rating(&sample(20.0, 18.0, 90.0));
        assert!(at36 - at30 > 0.7, "36→30 drop too small: {at36} vs {at30}");
        assert!(at30 > at20);
    }

    #[test]
    fn stutter_hurts_at_equal_mean_fps() {
        let smooth = rating(&QoeSample {
            pacing_cv: 0.05,
            stutter_rate: 0.0,
            ..sample(60.0, 57.0, 60.0)
        });
        let jittery = rating(&QoeSample {
            pacing_cv: 0.6,
            stutter_rate: 0.08,
            ..sample(60.0, 25.0, 60.0)
        });
        assert!(smooth - jittery > 0.5, "{smooth} vs {jittery}");
    }

    #[test]
    fn panel_counts_sum_to_size() {
        let panel = Panel::new(30, 1);
        let res = panel.evaluate(&sample(45.0, 30.0, 120.0));
        for counts in [res.lag, res.stutter, res.tearing] {
            assert_eq!(counts.0 + counts.1 + counts.2, 30);
        }
        assert_eq!(res.ratings.len(), 30);
        assert!(res.mean_rating >= 1.0 && res.mean_rating <= 10.0);
    }

    #[test]
    fn panel_is_deterministic() {
        let panel = Panel::default();
        let s = sample(50.0, 40.0, 80.0);
        let a = panel.evaluate(&s);
        let b = panel.evaluate(&s);
        assert_eq!(a.ratings, b.ratings);
        assert_eq!(a.lag, b.lag);
    }

    #[test]
    fn bad_latency_yields_lag_reports() {
        let panel = Panel::default();
        let good = panel.evaluate(&sample(60.0, 55.0, 40.0));
        let bad = panel.evaluate(&sample(60.0, 55.0, 2500.0));
        assert!(
            bad.lag.0 > good.lag.0 + 10,
            "bad {:?} vs good {:?}",
            bad.lag,
            good.lag
        );
        // "No lag" dominates the good configuration.
        assert!(good.lag.2 >= 20, "good {:?}", good.lag);
    }

    #[test]
    fn tearing_reports_are_rare_but_present() {
        let panel = Panel::default();
        let res = panel.evaluate(&sample(60.0, 55.0, 40.0));
        assert!(res.tearing.2 >= 20, "tearing {:?}", res.tearing);
    }

    #[test]
    #[should_panic(expected = "empty panel")]
    fn zero_panel_panics() {
        let _ = Panel::new(0, 1);
    }
}
