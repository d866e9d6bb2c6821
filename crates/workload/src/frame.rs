//! Whole-frame models: per-stage times plus encoded sizes.

use odr_simtime::Rng;

use crate::stage::StageModel;

/// Encoded frame-size model: a log-normal around the mean P-frame size with
/// periodic, larger I-frames (the video-streaming transport the paper's
/// modified TurboVNC uses).
#[derive(Clone, Copy, Debug)]
pub struct FrameSizeModel {
    /// Mean P-frame size in bytes.
    p_frame_bytes: f64,
    /// `p_frame_bytes.ln()`, taken once here rather than per sample; only
    /// the constructor and `scaled` write either.
    ln_p_frame: f64,
    /// Multiplicative spread (sigma of the underlying normal).
    sigma: f64,
    /// Every `iframe_interval`-th frame is an I-frame.
    iframe_interval: u64,
    /// I-frame size relative to a P-frame.
    iframe_factor: f64,
}

impl FrameSizeModel {
    /// Creates a size model.
    ///
    /// # Panics
    ///
    /// Panics if `p_frame_bytes` is not positive or `iframe_interval` is 0.
    #[must_use]
    pub fn new(p_frame_bytes: f64, sigma: f64, iframe_interval: u64, iframe_factor: f64) -> Self {
        assert!(p_frame_bytes > 0.0, "frame size must be positive");
        assert!(iframe_interval > 0, "iframe interval must be positive");
        FrameSizeModel {
            p_frame_bytes,
            ln_p_frame: p_frame_bytes.ln(),
            sigma,
            iframe_interval,
            iframe_factor,
        }
    }

    /// Samples the encoded size of frame number `index` (0-based; frame 0
    /// is an I-frame).
    pub fn sample(&self, rng: &mut Rng, index: u64) -> u64 {
        let factor = if index.is_multiple_of(self.iframe_interval) {
            self.iframe_factor
        } else {
            1.0
        };
        let bytes = rng.lognormal(self.ln_p_frame, self.sigma) * factor;
        bytes.max(256.0) as u64
    }

    /// The analytic mean frame size in bytes, including the I-frame share.
    #[cfg(test)]
    pub(crate) fn mean_bytes(&self) -> f64 {
        let body = self.p_frame_bytes * (self.sigma * self.sigma / 2.0).exp();
        let ifrac = 1.0 / self.iframe_interval as f64;
        body * (1.0 - ifrac + ifrac * self.iframe_factor)
    }

    /// Returns a model with sizes scaled by `factor` (resolution scaling).
    #[must_use]
    pub(crate) fn scaled(mut self, factor: f64) -> Self {
        self.p_frame_bytes *= factor;
        self.ln_p_frame = self.p_frame_bytes.ln();
        self
    }
}

/// All per-frame cost models of one benchmark/resolution/platform
/// combination: the four processing stages of Figure 2 plus the encoded
/// size.
#[derive(Clone, Copy, Debug)]
pub struct FrameModel {
    /// Step 3: GPU rendering time.
    pub render: StageModel,
    /// Step 4: framebuffer copy to the server proxy.
    pub copy: StageModel,
    /// Step 5: video encoding in the server proxy.
    pub encode: StageModel,
    /// Step 7: client decoding.
    pub decode: StageModel,
    /// Step 6 payload: encoded frame size.
    pub size: FrameSizeModel,
}

impl FrameModel {
    /// The offered network load (bits per second) if frames were encoded
    /// back-to-back at the encoder's mean rate — the quantity that decides
    /// whether an unregulated pipeline congests a link.
    #[cfg(test)]
    pub(crate) fn unregulated_offered_bps(&self) -> f64 {
        // The proxy pipeline serialises copy + encode per frame.
        let proxy_ms = self.copy.mean_ms() + self.encode.mean_ms();
        let fps = 1e3 / proxy_ms;
        fps * self.size.mean_bytes() * 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FrameSizeModel {
        FrameSizeModel::new(90_000.0, 0.25, 120, 3.0)
    }

    #[test]
    fn iframes_are_larger() {
        let m = model();
        let mut rng = Rng::new(3);
        let mut i_sum = 0.0;
        let mut p_sum = 0.0;
        let (mut i_n, mut p_n) = (0u32, 0u32);
        for idx in 0..1200 {
            let s = m.sample(&mut rng, idx) as f64;
            if idx % 120 == 0 {
                i_sum += s;
                i_n += 1;
            } else {
                p_sum += s;
                p_n += 1;
            }
        }
        let i_mean = i_sum / f64::from(i_n);
        let p_mean = p_sum / f64::from(p_n);
        assert!(i_mean > 2.0 * p_mean, "I {i_mean} vs P {p_mean}");
    }

    #[test]
    fn empirical_mean_matches_analytic() {
        let m = model();
        let mut rng = Rng::new(5);
        let n = 120_000u64;
        let sum: f64 = (0..n).map(|i| m.sample(&mut rng, i) as f64).sum();
        let emp = sum / n as f64;
        let ana = m.mean_bytes();
        assert!((emp - ana).abs() / ana < 0.03, "emp {emp} ana {ana}");
    }

    #[test]
    fn sizes_have_floor() {
        let m = FrameSizeModel::new(300.0, 1.5, 10, 1.0);
        let mut rng = Rng::new(9);
        for i in 0..1000 {
            assert!(m.sample(&mut rng, i) >= 256);
        }
    }

    #[test]
    fn the_cached_log_draws_the_same_bits_before_and_after_scaling() {
        let base = model();
        for (i, m) in [base, base.scaled(1.85), base.scaled(0.44).scaled(2.0)]
            .iter()
            .enumerate()
        {
            let (mut rng, mut reference) = (Rng::new(70 + i as u64), Rng::new(70 + i as u64));
            for index in 0..10_000 {
                // The draw as it was before the log was cached.
                let factor = if index % m.iframe_interval == 0 {
                    m.iframe_factor
                } else {
                    1.0
                };
                let bytes = reference.lognormal(m.p_frame_bytes.ln(), m.sigma) * factor;
                assert_eq!(
                    m.sample(&mut rng, index),
                    bytes.max(256.0) as u64,
                    "model {i}"
                );
            }
        }
    }

    #[test]
    fn scaled_changes_mean() {
        let m = model();
        let s = m.scaled(1.85);
        assert!((s.mean_bytes() / m.mean_bytes() - 1.85).abs() < 1e-12);
    }

    #[test]
    fn offered_load_is_rate_times_size() {
        let fm = FrameModel {
            render: StageModel::new(5.0, 0.0),
            copy: StageModel::new(1.0, 0.0),
            encode: StageModel::new(9.0, 0.0),
            decode: StageModel::new(3.0, 0.0),
            size: FrameSizeModel::new(100_000.0, 0.0, u64::MAX, 1.0),
        };
        // 100 fps proxy × 100 kB × 8 = 80 Mb/s.
        assert!((fm.unregulated_offered_bps() - 80e6).abs() / 80e6 < 1e-9);
    }

    #[test]
    #[should_panic(expected = "iframe interval")]
    fn zero_interval_panics() {
        let _ = FrameSizeModel::new(1000.0, 0.1, 0, 2.0);
    }
}
