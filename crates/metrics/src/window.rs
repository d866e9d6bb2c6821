//! Windowed frame-rate measurement and FPS-gap accounting.
//!
//! The paper measures FPS as frames per one-second window and defines the
//! *FPS gap* of a pipeline as the difference between the rendering rate and
//! the client (decoding) rate over the same windows (Figures 1, 3; Table 2).
//! It also argues (Section 5.2) that meeting the FPS target *per small
//! period* (≈200 ms) is the right regulation goal, which
//! [`WindowedRate::fraction_meeting`] quantifies.

use core::time::Duration;

use odr_simtime::SimTime;

use crate::summary::Summary;

/// Counts discrete events (frames) into fixed-size time windows and reports
/// per-window rates.
///
/// Events must be recorded in non-decreasing time order, which is what a
/// discrete-event simulation naturally produces.
///
/// # Examples
///
/// ```
/// use core::time::Duration;
/// use odr_metrics::WindowedRate;
/// use odr_simtime::SimTime;
///
/// let mut r = WindowedRate::new(Duration::from_secs(1));
/// for i in 0..120 {
///     r.record(SimTime::from_nanos(i * 16_666_667)); // ~60 fps for 2 s
/// }
/// let rates = r.rates(SimTime::from_secs(2));
/// assert_eq!(rates.len(), 2);
/// assert!((rates[0] - 60.0).abs() <= 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct WindowedRate {
    window: Duration,
    /// Completed-window counts, index = window number.
    counts: Vec<u32>,
    /// The window the last event fell in, as `[start, end)` nanoseconds,
    /// and its index: an event inside it needs no division.
    open: (u64, u64),
    open_idx: usize,
}

impl WindowedRate {
    /// Creates a counter with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: Duration) -> Self {
        assert!(window > Duration::ZERO, "window must be positive");
        WindowedRate {
            window,
            counts: Vec::new(),
            open: (0, 0),
            open_idx: 0,
        }
    }

    /// Records one event at `time`.
    #[inline]
    pub fn record(&mut self, time: SimTime) {
        let t = time.as_nanos();
        if t < self.open.0 || t >= self.open.1 {
            self.open_window_at(t);
        }
        if let Some(slot) = self.counts.get_mut(self.open_idx) {
            *slot += 1;
        }
    }

    /// Makes the window holding `t` the open one, growing the counts to
    /// reach it.
    #[cold]
    fn open_window_at(&mut self, t: u64) {
        // The window is at least 1 ns (`new` rejects a zero window).
        let window = odr_simtime::time::duration_nanos(self.window);
        let n = t.checked_div(window).unwrap_or(0);
        let start = n.saturating_mul(window);
        self.open = (start, start.saturating_add(window));
        self.open_idx = n as usize;
        if self.open_idx >= self.counts.len() {
            self.counts.resize(self.open_idx + 1, 0);
        }
    }

    /// Returns the per-window rates (events per second) for every window
    /// that *completed* before `end`. The final partial window is dropped so
    /// a run that stops mid-window does not understate its last rate.
    #[must_use]
    pub fn rates(&self, end: SimTime) -> Vec<f64> {
        let complete = (end.as_nanos() / odr_simtime::time::duration_nanos(self.window)) as usize;
        let scale = 1.0 / self.window.as_secs_f64();
        (0..complete)
            .map(|i| f64::from(self.counts.get(i).copied().unwrap_or(0)) * scale)
            .collect()
    }

    /// Returns the mean rate over complete windows, or 0.0 if none finished.
    #[must_use]
    pub fn mean_rate(&self, end: SimTime) -> f64 {
        let rates = self.rates(end);
        if rates.is_empty() {
            return 0.0;
        }
        rates.iter().sum::<f64>() / rates.len() as f64
    }

    /// Returns a [`Summary`] over the per-window rates.
    #[must_use]
    pub fn summary(&self, end: SimTime) -> Summary {
        self.rates(end).into_iter().collect()
    }

    /// Returns the fraction of complete windows whose rate is at least
    /// `target`, minus a one-frame-per-window tolerance, or 0.0 if no
    /// window finished.
    ///
    /// This is the paper's "FPS target met for each small period" check
    /// (Section 5.2 uses 200 ms windows). The tolerance absorbs window
    /// quantisation: at 60 FPS a 200 ms window legitimately alternates
    /// between 12 and 11 whole frames, so counts are only meaningful to
    /// ±1 frame.
    #[must_use]
    pub fn fraction_meeting(&self, end: SimTime, target: f64) -> f64 {
        let rates = self.rates(end);
        if rates.is_empty() {
            return 0.0;
        }
        let tolerance = 1.0 / self.window.as_secs_f64();
        let ok = rates.iter().filter(|&&r| r + tolerance >= target).count();
        ok as f64 / rates.len() as f64
    }
}

/// FPS-gap accounting between a producing stage (cloud rendering) and a
/// consuming stage (client decoding), per Table 2.
///
/// The gap in a window is `max(producer_rate - consumer_rate, 0)`; the paper
/// reports its average and maximum across windows.
#[derive(Clone, Debug)]
pub struct FpsGap {
    /// Rendering-side counter.
    pub producer: WindowedRate,
    /// Client-side counter.
    pub consumer: WindowedRate,
}

/// Result of an [`FpsGap::stats`] query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GapStats {
    /// Mean of the per-window gaps.
    pub avg: f64,
    /// Maximum per-window gap.
    pub max: f64,
}

impl FpsGap {
    /// Creates gap accounting with the given window length.
    #[must_use]
    pub fn new(window: Duration) -> Self {
        FpsGap {
            producer: WindowedRate::new(window),
            consumer: WindowedRate::new(window),
        }
    }

    /// Returns the average and maximum windowed gap up to `end`.
    #[must_use]
    pub fn stats(&self, end: SimTime) -> GapStats {
        let p = self.producer.rates(end);
        let c = self.consumer.rates(end);
        let n = p.len().max(c.len());
        if n == 0 {
            return GapStats { avg: 0.0, max: 0.0 };
        }
        let mut sum = 0.0;
        let mut max = 0.0f64;
        for i in 0..n {
            let gap =
                (p.get(i).copied().unwrap_or(0.0) - c.get(i).copied().unwrap_or(0.0)).max(0.0);
            sum += gap;
            max = max.max(gap);
        }
        GapStats {
            avg: sum / n as f64,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn rates_per_window() {
        let mut r = WindowedRate::new(Duration::from_secs(1));
        for ms in [100, 200, 300, 1100, 1200] {
            r.record(at_ms(ms));
        }
        assert_eq!(r.rates(at_ms(2000)), vec![3.0, 2.0]);
    }

    #[test]
    fn partial_window_dropped() {
        let mut r = WindowedRate::new(Duration::from_secs(1));
        r.record(at_ms(100));
        r.record(at_ms(1500));
        assert_eq!(r.rates(at_ms(1500)), vec![1.0]);
    }

    #[test]
    fn empty_windows_count_zero() {
        let mut r = WindowedRate::new(Duration::from_secs(1));
        r.record(at_ms(2500));
        assert_eq!(r.rates(at_ms(3000)), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn mean_rate_empty() {
        let r = WindowedRate::new(Duration::from_secs(1));
        assert_eq!(r.mean_rate(at_ms(500)), 0.0);
    }

    #[test]
    fn fraction_meeting_target() {
        let mut r = WindowedRate::new(Duration::from_millis(200));
        // 12 events in window 0 (60 fps), 8 in window 1 (40 fps): only
        // the first window meets a 60 fps target within the one-frame
        // tolerance.
        for i in 0..12 {
            r.record(at_ms(i * 16));
        }
        for i in 0..8 {
            r.record(at_ms(200 + i * 25));
        }
        let f = r.fraction_meeting(at_ms(400), 60.0);
        assert!((f - 0.5).abs() < 1e-9, "fraction {f}");
    }

    #[test]
    fn sub_second_windows() {
        let mut r = WindowedRate::new(Duration::from_millis(200));
        for i in 0..10 {
            r.record(at_ms(i * 20)); // 10 events in 200ms = 50/s
        }
        assert_eq!(r.rates(at_ms(200)), vec![50.0]);
    }

    #[test]
    fn gap_stats() {
        let mut g = FpsGap::new(Duration::from_secs(1));
        // Producer: 5 then 3; consumer: 2 then 3.
        for ms in [0, 100, 200, 300, 400, 1000, 1100, 1200] {
            g.producer.record(at_ms(ms));
        }
        for ms in [0, 500, 1000, 1100, 1200] {
            g.consumer.record(at_ms(ms));
        }
        let s = g.stats(at_ms(2000));
        assert_eq!(s.max, 3.0);
        assert_eq!(s.avg, 1.5);
    }

    #[test]
    fn gap_clamped_at_zero() {
        let mut g = FpsGap::new(Duration::from_secs(1));
        g.consumer.record(at_ms(100));
        g.consumer.record(at_ms(200));
        g.producer.record(at_ms(300));
        let s = g.stats(at_ms(1000));
        assert_eq!(s.avg, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = WindowedRate::new(Duration::ZERO);
    }

    // ---- edge cases fleet aggregation will hit ----

    #[test]
    fn empty_series_has_no_rates_and_zero_fraction() {
        let r = WindowedRate::new(Duration::from_secs(1));
        assert!(r.rates(at_ms(5000)).is_empty() || r.rates(at_ms(5000)).iter().all(|&x| x == 0.0));
        assert_eq!(r.fraction_meeting(at_ms(0), 60.0), 0.0);
        assert_eq!(r.mean_rate(at_ms(0)), 0.0);
    }

    #[test]
    fn single_sample_single_window() {
        let mut r = WindowedRate::new(Duration::from_secs(1));
        r.record(at_ms(10));
        assert_eq!(r.rates(at_ms(1000)), vec![1.0]);
    }

    #[test]
    fn zero_elapsed_end_yields_no_complete_windows() {
        let mut r = WindowedRate::new(Duration::from_secs(1));
        r.record(at_ms(10));
        assert!(r.rates(SimTime::ZERO).is_empty());
        assert_eq!(r.mean_rate(SimTime::ZERO), 0.0);
        assert_eq!(r.fraction_meeting(SimTime::ZERO, 30.0), 0.0);
    }

    /// A counter that divides on every record, as `WindowedRate` did before
    /// it remembered its open window.
    #[derive(Default)]
    struct DividingCounter {
        counts: Vec<u32>,
    }

    impl DividingCounter {
        fn record(&mut self, window: Duration, time: SimTime) {
            let idx = (time.as_nanos() / window.as_nanos() as u64) as usize;
            if idx >= self.counts.len() {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] += 1;
        }
    }

    #[test]
    fn the_open_window_counts_what_a_division_per_record_counts() {
        let mut rng = odr_simtime::Rng::new(41);
        for window in [
            Duration::from_nanos(1),
            Duration::from_nanos(7),
            Duration::from_millis(200),
            Duration::from_secs(1),
        ] {
            let window_ns = window.as_nanos() as u64;
            let mut rate = WindowedRate::new(window);
            let mut reference = DividingCounter::default();
            let mut t = 0u64;
            for _ in 0..20_000 {
                // Mostly forward by up to a window and a half; now and then
                // back by up to three windows, or onto a window edge.
                let step = rng.below(window_ns + window_ns / 2 + 1);
                t = match rng.below(10) {
                    0 => t.saturating_sub(rng.below(3 * window_ns + 1)),
                    1 => t / window_ns * window_ns,
                    _ => t + step,
                };
                let at = SimTime::from_nanos(t);
                rate.record(at);
                reference.record(window, at);
            }
            assert_eq!(rate.counts, reference.counts, "{window:?}");
            let end = SimTime::from_nanos(t + window_ns);
            let expect_rates = |r: &DividingCounter| {
                let complete = (end.as_nanos() / window_ns) as usize;
                let scale = 1.0 / window.as_secs_f64();
                (0..complete)
                    .map(|i| f64::from(r.counts.get(i).copied().unwrap_or(0)) * scale)
                    .collect::<Vec<f64>>()
            };
            let bits = |rates: Vec<f64>| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(rate.rates(end)),
                bits(expect_rates(&reference)),
                "{window:?}"
            );
        }
    }
}
