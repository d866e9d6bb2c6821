//! Network link model: propagation latency, jitter, bandwidth, and FIFO
//! queueing.
//!
//! The ODR paper's most striking latency result (Section 6.4) is that under
//! *no* FPS regulation on Google Compute Engine, the motion-to-photon
//! latency exploded to multiple seconds because the excessive frame stream
//! congested the network path — frames queued behind each other for seconds.
//! Reproducing that effect requires a link model in which transmission is a
//! serial resource: a frame cannot start serialising onto the wire until the
//! previous one has finished, so offered load above capacity grows the queue
//! without bound.
//!
//! [`Link`] models one direction of a path as
//! `arrival = serialisation-start + size/bandwidth + propagation + jitter`,
//! where serialisation-start is the later of "now" and "when the link frees"
//! (FIFO). It is a pure calculator over simulation time — the caller owns
//! the event loop — which keeps it trivially deterministic.

use odr_simtime::{time::secs_f64, Duration, Rng, SimTime};

/// Parameters of one link direction.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: Duration,
    /// Standard deviation of the (log-normal) jitter multiplier applied to
    /// the propagation latency. `0.0` disables jitter.
    pub jitter_sigma: f64,
    /// Link capacity in bits per second.
    pub bandwidth_bps: f64,
    /// Send-buffer capacity in bytes (socket + kernel + bottleneck queue).
    ///
    /// When the unserialised backlog exceeds this, [`Link::send`] reports an
    /// `accepted` time later than the submit time: the sender is blocked the
    /// way a full TCP socket blocks a `write(2)`. `None` means unbounded.
    pub buffer_cap_bytes: Option<u64>,
    /// Per-message loss probability. A lost message is retransmitted
    /// TCP-style: the sender learns of the loss one retransmission timeout
    /// later and reoccupies the wire, head-of-line blocking everything
    /// behind it. `0.0` disables loss.
    pub loss_prob: f64,
}

impl LinkParams {
    /// A symmetric LAN-class link (the paper's private cloud: 1 Gb/s,
    /// ~1 ms one-way).
    #[must_use]
    pub fn private_cloud() -> Self {
        LinkParams {
            latency: Duration::from_micros(1000),
            jitter_sigma: 0.10,
            bandwidth_bps: 1e9,
            buffer_cap_bytes: Some(4 << 20),
            loss_prob: 0.0,
        }
    }

    /// A WAN path to a public-cloud region (the paper's GCE deployment:
    /// ~25 ms ping, so ~12.5 ms one-way; effective per-flow throughput well
    /// below the nominal NIC rate, and deep bufferbloat-style queues).
    #[must_use]
    pub fn public_cloud() -> Self {
        LinkParams {
            latency: Duration::from_micros(12_500),
            jitter_sigma: 0.18,
            bandwidth_bps: 45e6,
            buffer_cap_bytes: Some(16 << 20),
            loss_prob: 0.0,
        }
    }
}

/// The result of submitting one message to a [`Link`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// When the send buffer had room for the message: the sender's blocking
    /// `write` returns at this time (equals the submit time unless the
    /// buffer was full).
    pub accepted: SimTime,
    /// When the message began serialising onto the wire.
    pub tx_start: SimTime,
    /// When the last bit left the sender (the link is busy until then).
    pub tx_end: SimTime,
    /// When the message arrives at the receiver.
    pub arrival: SimTime,
}

/// One direction of a network path with FIFO serialisation.
///
/// # Examples
///
/// ```
/// use odr_netsim::{Link, LinkParams};
/// use odr_simtime::{Duration, Rng, SimTime};
///
/// let params = LinkParams {
///     latency: Duration::from_millis(10),
///     jitter_sigma: 0.0,
///     bandwidth_bps: 8e6, // 1 MB/s
///     buffer_cap_bytes: None,
///     loss_prob: 0.0,
/// };
/// let mut link = Link::new(params, Rng::new(1));
///
/// // Two back-to-back 100 kB frames: the second queues behind the first.
/// let a = link.send(SimTime::ZERO, 100_000);
/// let b = link.send(SimTime::ZERO, 100_000);
/// assert_eq!(a.tx_start, SimTime::ZERO);
/// assert_eq!(b.tx_start, a.tx_end);
/// assert!(b.arrival > a.arrival);
/// ```
#[derive(Clone, Debug)]
pub struct Link {
    params: LinkParams,
    /// How long a full send buffer takes to drain onto the wire, when the
    /// buffer is capped.
    cap_drain: Option<Duration>,
    /// The retransmission timeout: twice the one-way latency, at least
    /// 10 ms.
    rto: Duration,
    rng: Rng,
    busy_until: SimTime,
    bytes_sent: u64,
    messages_sent: u64,
    retransmissions: u64,
    /// Sum of every message's wait for the wire, in milliseconds.
    queue_delay_ms: f64,
    busy_time: Duration,
}

impl Link {
    /// Creates an idle link.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not strictly positive.
    #[must_use]
    pub fn new(params: LinkParams, rng: Rng) -> Self {
        assert!(params.bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(
            (0.0..1.0).contains(&params.loss_prob),
            "loss probability out of range"
        );
        Link {
            params,
            cap_drain: params
                .buffer_cap_bytes
                .map(|cap| secs_f64(cap as f64 * 8.0 / params.bandwidth_bps)),
            rto: params
                .latency
                .saturating_mul(2)
                .max(Duration::from_millis(10)),
            rng,
            busy_until: SimTime::ZERO,
            bytes_sent: 0,
            messages_sent: 0,
            retransmissions: 0,
            queue_delay_ms: 0.0,
            busy_time: Duration::ZERO,
        }
    }

    /// Returns the configured parameters.
    #[must_use]
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// Submits a `bytes`-long message at time `now` and returns its
    /// delivery schedule. Messages are serialised strictly FIFO.
    ///
    /// If the send buffer is over capacity, the returned
    /// [`Delivery::accepted`] is pushed past `now` to the instant the
    /// backlog drains below the cap — a blocking-socket model. Callers that
    /// honour backpressure must not submit their next message before
    /// `accepted`.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> Delivery {
        let tx_start = now.max(self.busy_until);
        let tx_time = secs_f64(bytes as f64 * 8.0 / self.params.bandwidth_bps);
        let mut tx_end = tx_start + tx_time;

        // TCP-style loss recovery: a lost message is detected one
        // retransmission timeout after it finished serialising and then
        // reoccupies the wire, delaying everything queued behind it. Up
        // to three retransmissions per message.
        if self.params.loss_prob > 0.0 {
            let mut attempts = 0;
            while attempts < 3 && self.rng.chance(self.params.loss_prob) {
                tx_end = tx_end + self.rto + tx_time;
                self.busy_time += tx_time;
                self.retransmissions += 1;
                attempts += 1;
            }
        }

        let propagation = self.sample_propagation();
        let arrival = tx_end + propagation;

        // The write returns once everything ahead of (and including) this
        // message beyond the buffer capacity has drained.
        let accepted = match self.cap_drain {
            None => now,
            Some(cap_drain) => now.max(tx_end - cap_drain),
        };

        self.busy_until = tx_end;
        self.busy_time += tx_time;
        self.bytes_sent += bytes;
        self.messages_sent += 1;
        self.queue_delay_ms += (tx_start - now).as_secs_f64() * 1e3;

        Delivery {
            accepted,
            tx_start,
            tx_end,
            arrival,
        }
    }

    /// Total bytes accepted so far.
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages accepted so far.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total loss-triggered retransmissions so far.
    #[must_use]
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Mean queueing delay in milliseconds (time spent waiting for the link
    /// to free, excluding serialisation and propagation).
    #[must_use]
    pub fn mean_queue_delay_ms(&self) -> f64 {
        if self.messages_sent == 0 {
            return 0.0;
        }
        self.queue_delay_ms / self.messages_sent as f64
    }

    /// Link utilisation over `[ZERO, end]` (0–1).
    #[must_use]
    pub fn utilisation(&self, end: SimTime) -> f64 {
        let total = end.as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        (self.busy_time.as_secs_f64() / total).min(1.0)
    }

    /// Average goodput in megabits per second over `[ZERO, end]`.
    #[must_use]
    pub fn goodput_mbps(&self, end: SimTime) -> f64 {
        let total = end.as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        self.bytes_sent as f64 * 8.0 / total / 1e6
    }

    fn sample_propagation(&mut self) -> Duration {
        if self.params.jitter_sigma <= 0.0 {
            return self.params.latency;
        }
        // Log-normal multiplicative jitter: median = configured latency,
        // never negative, occasionally spiky — matching WAN behaviour.
        let mult = self.rng.lognormal(0.0, self.params.jitter_sigma);
        secs_f64(self.params.latency.as_secs_f64() * mult)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_link(bw_bps: f64, latency_ms: u64) -> Link {
        Link::new(
            LinkParams {
                latency: Duration::from_millis(latency_ms),
                jitter_sigma: 0.0,
                bandwidth_bps: bw_bps,
                buffer_cap_bytes: None,
                loss_prob: 0.0,
            },
            Rng::new(42),
        )
    }

    #[test]
    fn idle_link_delivers_after_tx_plus_latency() {
        let mut l = quiet_link(8e6, 10);
        let d = l.send(SimTime::ZERO, 10_000); // 10 ms serialisation
        assert_eq!(d.tx_start, SimTime::ZERO);
        assert_eq!(d.tx_end, SimTime::from_nanos(10_000_000));
        assert_eq!(d.arrival, SimTime::from_nanos(20_000_000));
    }

    #[test]
    fn fifo_queueing_orders_messages() {
        let mut l = quiet_link(8e6, 0);
        let a = l.send(SimTime::ZERO, 5_000);
        let b = l.send(SimTime::ZERO, 5_000);
        let c = l.send(SimTime::ZERO, 5_000);
        assert_eq!(b.tx_start, a.tx_end);
        assert_eq!(c.tx_start, b.tx_end);
        assert!(a.arrival < b.arrival && b.arrival < c.arrival);
    }

    #[test]
    fn overload_grows_queue_without_bound() {
        // Offered load 2× capacity: send 1 ms worth of bits every 0.5 ms.
        let mut l = quiet_link(8e6, 0);
        let mut t = SimTime::ZERO;
        let mut last = Duration::ZERO;
        for i in 0..1000 {
            let d = l.send(t, 1_000);
            if i == 999 {
                last = d.tx_start - t;
            }
            t += Duration::from_micros(500);
        }
        // After 1000 sends the backlog is ~0.5 ms × 999 ≈ 0.5 s.
        assert!(last > Duration::from_millis(400), "backlog was {last:?}");
        assert!(l.mean_queue_delay_ms() > 50.0);
    }

    #[test]
    fn underload_has_no_queueing() {
        let mut l = quiet_link(100e6, 1);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            let d = l.send(t, 10_000); // 0.8 ms serialisation every 10 ms
            assert_eq!(d.tx_start, t);
            t += Duration::from_millis(10);
        }
        assert_eq!(l.mean_queue_delay_ms(), 0.0);
    }

    #[test]
    fn jitter_preserves_median_scale() {
        let mut l = Link::new(
            LinkParams {
                latency: Duration::from_millis(10),
                jitter_sigma: 0.2,
                bandwidth_bps: 1e12,
                buffer_cap_bytes: None,
                loss_prob: 0.0,
            },
            Rng::new(7),
        );
        let mut lats: Vec<f64> = (0..2001)
            .map(|i| {
                let now = SimTime::from_nanos(i * 1_000_000_000);
                (l.send(now, 1).arrival - now).as_secs_f64() * 1e3
            })
            .collect();
        lats.sort_by(f64::total_cmp);
        let median = lats[lats.len() / 2];
        assert!((median - 10.0).abs() < 0.5, "median {median}");
        assert!(lats[0] > 0.0);
    }

    #[test]
    fn utilisation_and_goodput() {
        let mut l = quiet_link(8e6, 0); // 1 MB/s
        l.send(SimTime::ZERO, 500_000); // 0.5 s busy
        assert!((l.utilisation(SimTime::from_secs(1)) - 0.5).abs() < 1e-9);
        assert!((l.goodput_mbps(SimTime::from_secs(1)) - 4.0).abs() < 1e-9);
        assert_eq!(l.bytes_sent(), 500_000);
        assert_eq!(l.messages_sent(), 1);
    }

    #[test]
    fn zero_time_stats_are_zero() {
        let l = quiet_link(8e6, 0);
        assert_eq!(l.utilisation(SimTime::ZERO), 0.0);
        assert_eq!(l.goodput_mbps(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = Link::new(
            LinkParams {
                latency: Duration::ZERO,
                jitter_sigma: 0.0,
                bandwidth_bps: 0.0,
                buffer_cap_bytes: None,
                loss_prob: 0.0,
            },
            Rng::new(0),
        );
    }

    #[test]
    fn buffer_cap_blocks_sender() {
        // 1 MB/s link with a 10 kB buffer: a 50 kB frame cannot be fully
        // buffered, so the write blocks until all but 10 kB has drained.
        let mut l = Link::new(
            LinkParams {
                latency: Duration::ZERO,
                jitter_sigma: 0.0,
                bandwidth_bps: 8e6,
                buffer_cap_bytes: Some(10_000),
                loss_prob: 0.0,
            },
            Rng::new(1),
        );
        let d = l.send(SimTime::ZERO, 50_000);
        assert_eq!(d.tx_end, SimTime::from_nanos(50_000_000));
        assert_eq!(d.accepted, SimTime::from_nanos(40_000_000));

        // A second frame submitted immediately waits for the backlog.
        let d2 = l.send(SimTime::ZERO, 50_000);
        assert_eq!(d2.accepted, SimTime::from_nanos(90_000_000));
    }

    #[test]
    fn small_sends_accepted_immediately_under_cap() {
        let mut l = Link::new(
            LinkParams {
                latency: Duration::ZERO,
                jitter_sigma: 0.0,
                bandwidth_bps: 8e6,
                buffer_cap_bytes: Some(100_000),
                loss_prob: 0.0,
            },
            Rng::new(1),
        );
        let d = l.send(SimTime::from_secs(1), 1_000);
        assert_eq!(d.accepted, SimTime::from_secs(1));
    }

    #[test]
    fn loss_delays_and_blocks_the_line() {
        let lossy = LinkParams {
            latency: Duration::from_millis(10),
            jitter_sigma: 0.0,
            bandwidth_bps: 8e6,
            buffer_cap_bytes: None,
            loss_prob: 0.5,
        };
        let clean = LinkParams {
            loss_prob: 0.0,
            ..lossy
        };
        let mut lossy_link = Link::new(lossy, Rng::new(9));
        let mut clean_link = Link::new(clean, Rng::new(9));
        let mut t = SimTime::ZERO;
        let mut lossy_sum = 0.0;
        let mut clean_sum = 0.0;
        let mut last_arrival = SimTime::ZERO;
        for _ in 0..200 {
            t += Duration::from_millis(20);
            let d = lossy_link.send(t, 10_000);
            assert!(d.arrival >= last_arrival, "FIFO violated under loss");
            last_arrival = d.arrival;
            lossy_sum += (d.arrival - t).as_secs_f64();
            clean_sum += (clean_link.send(t, 10_000).arrival - t).as_secs_f64();
        }
        assert!(
            lossy_link.retransmissions() > 50,
            "{}",
            lossy_link.retransmissions()
        );
        assert_eq!(clean_link.retransmissions(), 0);
        assert!(
            lossy_sum > clean_sum * 1.5,
            "loss must inflate transit: {lossy_sum} vs {clean_sum}"
        );
    }

    #[test]
    fn retransmission_head_of_line_blocking_is_exact() {
        // Structural check of the recovery model: every retransmission
        // costs one RTO (2x one-way latency, floored at 10 ms) plus one
        // re-serialisation, the wire stays occupied until the *final*
        // copy leaves, and the next message cannot start serialising
        // before then — even if that message is itself clean.
        let params = LinkParams {
            latency: Duration::from_millis(30),
            jitter_sigma: 0.0,
            bandwidth_bps: 8e6, // 1 MB/s => 100 kB serialises in 100 ms
            buffer_cap_bytes: None,
            loss_prob: 0.999,
        };
        let tx_time = Duration::from_millis(100);
        let rto = Duration::from_millis(60); // 2 x 30 ms, above the floor

        let mut link = Link::new(params, Rng::new(7));
        let a = link.send(SimTime::ZERO, 100_000);
        let k = link.retransmissions();
        // At 99.9% loss the cap must bind: exactly 3 retransmissions.
        assert_eq!(k, 3, "retransmissions must cap at 3");
        assert_eq!(a.tx_start, SimTime::ZERO);
        // tx_end = serialise + 3 x (RTO + re-serialise), exactly.
        let expected_end = a.tx_start + tx_time + (rto + tx_time).saturating_mul(k as u32);
        assert_eq!(a.tx_end, expected_end);
        assert_eq!(a.arrival, a.tx_end + params.latency);

        // Head-of-line blocking: a message submitted while the first is
        // still recovering starts exactly when the final copy of the
        // first left the wire, and inherits its full recovery delay.
        let b = link.send(SimTime::ZERO + Duration::from_millis(1), 100_000);
        assert_eq!(b.tx_start, a.tx_end, "line must stay blocked until recovery ends");
        let b_retx = link.retransmissions() - k;
        assert_eq!(
            b.tx_end,
            b.tx_start + tx_time + (rto + tx_time).saturating_mul(b_retx as u32)
        );

        // The RTO floor: at sub-5 ms latency the timeout is 10 ms, not
        // 2 x latency.
        let mut floored = Link::new(
            LinkParams {
                latency: Duration::from_millis(1),
                ..params
            },
            Rng::new(7),
        );
        let f = floored.send(SimTime::ZERO, 100_000);
        assert_eq!(floored.retransmissions(), 3);
        let floor_rto = Duration::from_millis(10);
        assert_eq!(
            f.tx_end,
            f.tx_start + tx_time + (floor_rto + tx_time).saturating_mul(3)
        );

        // Recovery time counts as wire occupancy: utilisation accounts
        // the re-serialisations (4 copies of a + copies of b), not just
        // the two goodput copies.
        let copies = (4 + 1 + b_retx) as u32;
        let busy = tx_time.saturating_mul(copies).as_secs_f64();
        assert!((link.utilisation(b.tx_end) - busy / b.tx_end.as_secs_f64()).abs() < 1e-12);
    }

    #[test]
    fn mean_queue_delay_is_the_mean_of_the_samples_bit_for_bit() {
        // The link keeps a running sum where it used to keep every sample;
        // the additions happen in the same order, so the mean is the same
        // f64 as a `Summary` of the samples gives.
        let mut link = Link::new(
            LinkParams {
                latency: Duration::from_millis(5),
                jitter_sigma: 0.2,
                bandwidth_bps: 8e6,
                buffer_cap_bytes: Some(20_000),
                loss_prob: 0.05,
            },
            Rng::new(11),
        );
        let mut sizes = Rng::new(12);
        let mut samples = odr_metrics::Summary::new();
        let mut now = SimTime::ZERO;
        for _ in 0..10_000 {
            let d = link.send(now, 500 + sizes.next_u64() % 4_000);
            samples.record((d.tx_start - now).as_secs_f64() * 1e3);
            // Honour backpressure, and leave the wire idle now and then.
            now = d.accepted + Duration::from_micros(sizes.next_u64() % 3_000);
        }
        assert!(link.retransmissions() > 100 && samples.mean() > 0.0);
        let (running, sampled) = (link.mean_queue_delay_ms(), samples.mean());
        assert_eq!(running.to_bits(), sampled.to_bits(), "{running} vs {sampled}");
    }

    /// The per-message formula as it was before the cap-drain time and the
    /// RTO moved to `Link::new`: both derived from the parameters on every
    /// send. `busy_until` is the link's own, read before the send.
    fn send_deriving_constants_per_message(
        params: &LinkParams,
        rng: &mut Rng,
        busy_until: SimTime,
        now: SimTime,
        bytes: u64,
    ) -> Delivery {
        let tx_start = now.max(busy_until);
        let tx_time = secs_f64(bytes as f64 * 8.0 / params.bandwidth_bps);
        let mut tx_end = tx_start + tx_time;
        if params.loss_prob > 0.0 {
            let rto = params
                .latency
                .saturating_mul(2)
                .max(Duration::from_millis(10));
            let mut attempts = 0;
            while attempts < 3 && rng.chance(params.loss_prob) {
                tx_end = tx_end + rto + tx_time;
                attempts += 1;
            }
        }
        let propagation = if params.jitter_sigma <= 0.0 {
            params.latency
        } else {
            secs_f64(params.latency.as_secs_f64() * rng.lognormal(0.0, params.jitter_sigma))
        };
        let accepted = match params.buffer_cap_bytes {
            None => now,
            Some(cap) => now.max(tx_end - secs_f64(cap as f64 * 8.0 / params.bandwidth_bps)),
        };
        Delivery {
            accepted,
            tx_start,
            tx_end,
            arrival: tx_end + propagation,
        }
    }

    #[test]
    fn constants_derived_once_give_every_delivery_the_same_bits() {
        // A sub-5 ms latency (RTO at its floor) and a WAN one; odd
        // bandwidths and caps so the drain time is not a round number.
        for (latency_us, bandwidth_bps, cap) in [(900, 7.3e6, 23_456), (12_500, 45e6, 1 << 20)] {
            let params = LinkParams {
                latency: Duration::from_micros(latency_us),
                jitter_sigma: 0.18,
                bandwidth_bps,
                buffer_cap_bytes: Some(cap),
                loss_prob: 0.07,
            };
            let mut link = Link::new(params, Rng::new(21));
            let mut reference_rng = Rng::new(21);
            let mut sizes = Rng::new(22);
            let mut now = SimTime::ZERO;
            for i in 0..10_000 {
                let bytes = 64 + sizes.next_u64() % 60_000;
                let busy_until = link.busy_until;
                let expected = send_deriving_constants_per_message(
                    &params,
                    &mut reference_rng,
                    busy_until,
                    now,
                    bytes,
                );
                let got = link.send(now, bytes);
                assert_eq!(got, expected, "send {i}");
                // Mostly honour backpressure; now and then submit early.
                now = if i % 7 == 0 { now } else { got.accepted }
                    + Duration::from_micros(sizes.next_u64() % 2_000);
            }
            assert!(link.retransmissions() > 300, "{}", link.retransmissions());
        }
    }

    #[test]
    #[should_panic(expected = "loss probability out of range")]
    fn invalid_loss_panics() {
        let mut p = LinkParams::private_cloud();
        p.loss_prob = 1.5;
        let _ = Link::new(p, Rng::new(0));
    }

    #[test]
    fn platform_presets_are_ordered() {
        let private = LinkParams::private_cloud();
        let public = LinkParams::public_cloud();
        assert!(private.latency < public.latency);
        assert!(private.bandwidth_bps > public.bandwidth_bps);
    }
}
