//! Property-based tests over the core data structures and invariants.
//!
//! The strategy engine is the std-only shim in `shims/proptest` so the
//! suite runs fully offline. See shims/README.md.

use std::{cmp::Reverse, collections::BinaryHeap};

use cloud3d_odr::metrics::{Cdf, Summary, WindowedRate};
use cloud3d_odr::netsim::{Link, LinkParams};
use cloud3d_odr::odr::queue::{FrameQueue, FullPolicy, Publish};
use cloud3d_odr::odr::FpsRegulator;
use cloud3d_odr::simtime::{time::secs_to_nanos, Duration, EventQueue, Rng, SimTime};
use cloud3d_odr::workload::StageModel;
use proptest::prelude::*;

proptest! {
    /// The multi-buffer never exceeds its capacity, preserves FIFO order,
    /// and accounts every frame as delivered, dropped, or rejected —
    /// checked against a reference model.
    #[test]
    fn frame_queue_matches_reference_model(
        capacity in 1usize..6,
        overwrite in any::<bool>(),
        ops in prop::collection::vec(prop_oneof![Just(0u8), Just(1), Just(2)], 1..200),
    ) {
        let policy = if overwrite { FullPolicy::Overwrite } else { FullPolicy::Block };
        let mut q: FrameQueue<u64> = FrameQueue::new(capacity, policy);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut next = 0u64;
        let mut model_drops = 0u64;
        for op in ops {
            match op {
                0 => {
                    let outcome = q.publish(next);
                    if model.len() < capacity {
                        model.push_back(next);
                        prop_assert!(matches!(outcome, Publish::Stored));
                    } else if overwrite {
                        model.pop_back();
                        model.push_back(next);
                        model_drops += 1;
                        prop_assert!(matches!(outcome, Publish::ReplacedNewest));
                    } else {
                        prop_assert!(matches!(outcome, Publish::WouldBlock(f) if f == next));
                    }
                    next += 1;
                }
                1 => prop_assert_eq!(q.pop(), model.pop_front()),
                _ => {
                    let flushed = q.flush_obsolete();
                    prop_assert_eq!(flushed, model.len());
                    model_drops += model.len() as u64;
                    model.clear();
                }
            }
            prop_assert!(q.len() <= capacity);
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.drops(), model_drops);
        }
    }

    /// Algorithm 1 invariant: for any feasible workload (mean processing
    /// below the interval), the long-run output rate equals the target;
    /// sleep amounts are never negative.
    #[test]
    fn regulator_holds_feasible_targets(
        target in 20.0f64..120.0,
        // Workload: base cost as a fraction of the interval, plus spikes.
        load in 0.2f64..0.85,
        spike_every in 2usize..20,
        spike_mult in 1.5f64..6.0,
        seed in any::<u64>(),
    ) {
        let interval = 1.0 / target;
        // Keep the *mean* feasible even with spikes.
        let n_frames = 4000usize;
        let base = interval * load;
        let spike = (base * spike_mult).min(interval * 8.0);
        let mean = base + (spike - base) / spike_every as f64;
        prop_assume!(mean < interval * 0.97);

        let mut rng = Rng::new(seed);
        let mut reg = FpsRegulator::new(target);
        let mut elapsed = 0.0;
        for i in 0..n_frames {
            let jitter = 0.9 + 0.2 * rng.next_f64();
            let work = if i % spike_every == 0 { spike } else { base } * jitter;
            elapsed += work;
            let sleep = reg.on_frame_processed(Duration::from_secs_f64(work));
            elapsed += sleep.as_secs_f64();
        }
        let fps = n_frames as f64 / elapsed;
        prop_assert!((fps - target).abs() / target < 0.02, "fps {} vs target {}", fps, target);
    }

    /// The regulator never makes an infeasible workload slower: with mean
    /// cost above the interval it stops sleeping entirely.
    #[test]
    fn regulator_never_throttles_infeasible_load(
        target in 30.0f64..120.0,
        over in 1.05f64..3.0,
    ) {
        let work = Duration::from_secs_f64(over / target);
        let mut reg = FpsRegulator::new(target);
        let mut slept = Duration::ZERO;
        for _ in 0..1000 {
            slept += reg.on_frame_processed(work);
        }
        prop_assert_eq!(slept, Duration::ZERO);
    }

    /// Windowed rates conserve events: the sum over complete windows plus
    /// the in-progress tail equals the total recorded.
    #[test]
    fn windowed_rate_conserves_events(
        gaps_ms in prop::collection::vec(1u64..200, 1..300),
        window_ms in 100u64..2000,
    ) {
        let mut rate = WindowedRate::new(Duration::from_millis(window_ms));
        let mut t = SimTime::ZERO;
        for gap in &gaps_ms {
            t += Duration::from_millis(*gap);
            rate.record(t);
        }
        let end = t + Duration::from_millis(window_ms);
        let events: f64 = rate
            .rates(end)
            .iter()
            .map(|r| r * window_ms as f64 / 1e3)
            .sum();
        // All windows up to `end` are complete, so every event is counted.
        prop_assert!((events - gaps_ms.len() as f64).abs() < 1e-6);
    }

    /// Link invariants: FIFO serialisation, non-negative queueing, bytes
    /// conserved, and `accepted <= tx_end`.
    #[test]
    fn link_is_fifo_and_conserves_bytes(
        sizes in prop::collection::vec(100u64..200_000, 1..100),
        gaps_us in prop::collection::vec(0u64..20_000, 1..100),
        bw_mbps in 1.0f64..1000.0,
        cap_kb in prop::option::of(16u64..8192),
    ) {
        let params = LinkParams {
            latency: Duration::from_millis(5),
            jitter_sigma: 0.0,
            bandwidth_bps: bw_mbps * 1e6,
            buffer_cap_bytes: cap_kb.map(|k| k * 1024),
            loss_prob: 0.0,
        };
        let mut link = Link::new(params, Rng::new(1));
        let mut t = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        let mut total = 0u64;
        for (size, gap) in sizes.iter().zip(gaps_us.iter().cycle()) {
            t += Duration::from_micros(*gap);
            let d = link.send(t, *size);
            prop_assert!(d.tx_start >= t);
            prop_assert!(d.tx_end >= d.tx_start);
            prop_assert!(d.arrival >= d.tx_end);
            prop_assert!(d.accepted >= t);
            prop_assert!(d.accepted <= d.tx_end);
            prop_assert!(d.arrival >= last_arrival, "FIFO violated");
            last_arrival = d.arrival;
            total += size;
        }
        prop_assert_eq!(link.bytes_sent(), total);
    }

    /// The codec reconstructs the quantised source exactly for arbitrary
    /// frame content and any frame mix.
    #[test]
    fn codec_roundtrip_is_exact(
        seed in any::<u64>(),
        quant in 0u8..5,
        frames in 1usize..5,
    ) {
        let (w, h) = (48u32, 32u32);
        let mut rng = Rng::new(seed);
        let mut enc = cloud3d_odr::codec::Encoder::new(w, h, quant);
        let mut dec = cloud3d_odr::codec::Decoder::new(w, h);
        let mut frame = vec![0u8; (w * h * 4) as usize];
        for _ in 0..frames {
            // Mutate a random region so P-frames have partial updates.
            let start = (rng.next_u64() as usize) % frame.len();
            let len = ((rng.next_u64() as usize) % 512).min(frame.len() - start);
            for b in &mut frame[start..start + len] {
                *b = rng.next_u64() as u8;
            }
            let encoded = enc.encode(&frame);
            let decoded = dec.decode(&encoded.data).expect("decode");
            let mask = !0u8 << quant;
            let expect: Vec<u8> = frame.iter().map(|&b| b & mask).collect();
            prop_assert_eq!(&decoded, &expect);
        }
    }

    /// The decoder never panics on arbitrary input bytes — it returns an
    /// error or a frame, whatever the bitstream contains.
    #[test]
    fn codec_decoder_survives_fuzzing(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut dec = cloud3d_odr::codec::Decoder::new(48, 32);
        let _ = dec.decode(&bytes);
    }

    /// Decoding a *bit-flipped* valid stream never panics either (it may
    /// decode to garbage pixels or error, but must stay memory-safe and
    /// terminate).
    #[test]
    fn codec_decoder_survives_bitflips(
        flip_at in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let (w, h) = (48u32, 32u32);
        let frame = vec![0x5au8; (w * h * 4) as usize];
        let mut enc = cloud3d_odr::codec::Encoder::new(w, h, 1);
        let mut stream = enc.encode(&frame).data;
        let idx = flip_at % stream.len();
        stream[idx] ^= 1 << flip_bit;
        let mut dec = cloud3d_odr::codec::Decoder::new(w, h);
        let _ = dec.decode(&stream);
    }

    /// Summary statistics are ordered: min <= p1 <= p25 <= p75 <= p99 <=
    /// max and the mean lies within [min, max].
    #[test]
    fn summary_statistics_are_ordered(
        xs in prop::collection::vec(-1e6f64..1e6, 1..500),
    ) {
        let mut s: Summary = xs.iter().copied().collect();
        let b = s.box_stats();
        prop_assert!(s.min() <= b.p1 + 1e-9);
        prop_assert!(b.p1 <= b.p25 + 1e-9);
        prop_assert!(b.p25 <= b.p75 + 1e-9);
        prop_assert!(b.p75 <= b.p99 + 1e-9);
        prop_assert!(b.p99 <= s.max() + 1e-9);
        prop_assert!(b.mean >= s.min() - 1e-9 && b.mean <= s.max() + 1e-9);
    }

    /// Event queues pop in non-decreasing time order, FIFO within a
    /// timestamp: under any interleaving of pushes, pops, sequence draws,
    /// peeks and resets, every pop and peek matches a std-heap reference
    /// ordered by `(time, seq)`, and a drain comes out sorted.
    #[test]
    fn event_queue_is_totally_ordered(
        ops in prop::collection::vec((0u8..32, 0u64..1000), 1..300),
    ) {
        let key = |t: SimTime, seq: u64| u128::from(t.as_nanos()) << 64 | u128::from(seq);
        let mut q = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let mut next_seq = 0;
        for (i, &(op, t)) in ops.iter().enumerate() {
            let t = SimTime::from_nanos(t);
            match op {
                0..=15 => {
                    q.push(t, i);
                    reference.push(Reverse((t, next_seq, i)));
                    next_seq += 1;
                }
                16..=27 => {
                    let want = reference.pop().map(|Reverse((t, _, i))| (t, i));
                    prop_assert_eq!(q.pop(), want);
                }
                28..=30 => {
                    prop_assert_eq!(q.take_seq(), next_seq);
                    next_seq += 1;
                }
                _ => {
                    q.reset();
                    reference.clear();
                    next_seq = 0;
                }
            }
            let want = reference.peek().map(|Reverse((t, seq, _))| key(*t, *seq));
            prop_assert_eq!(q.peek_key(), want);
            prop_assert_eq!(q.len(), reference.len());
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            prop_assert_eq!(reference.pop().map(|Reverse((t, _, i))| (t, i)), Some((t, i)));
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO tie-break violated");
                }
            }
            last = Some((t, i));
        }
        prop_assert!(q.is_empty() && reference.is_empty());
    }

    /// Stage models produce strictly positive, bounded samples whose
    /// empirical mean is close to the analytic mean.
    #[test]
    fn stage_model_samples_are_bounded(
        median in 0.5f64..30.0,
        sigma in 0.0f64..0.6,
        spike_p in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let model = StageModel::new(median, sigma).with_spikes(spike_p, 2.0, 2.2);
        let mut rng = Rng::new(seed);
        // Cap × generous body bound, in nanoseconds like the samples.
        let hard_bound = secs_to_nanos(median * 12.0 * 20.0 / 1e3);
        for _ in 0..200 {
            let nanos = model.sample(&mut rng);
            prop_assert!(nanos > 0);
            prop_assert!(nanos < hard_bound);
        }
    }

    /// Whole-pipeline invariants that must hold for *any* configuration:
    /// conservation (shown + dropped + in flight = rendered), non-negative
    /// gaps, and displayed never exceeding rendered.
    #[test]
    fn pipeline_conservation_for_any_config(
        seed in any::<u64>(),
        bench_idx in 0usize..6,
        spec_idx in 0usize..7,
        gce in any::<bool>(),
    ) {
        check_pipeline_conservation(seed, bench_idx, spec_idx, gce)?;
    }

    /// `Cdf::merge` is a canonical multiset union: it agrees bit-for-bit
    /// with building one CDF from the concatenated samples, and is
    /// exactly commutative and associative for any grouping.
    #[test]
    fn cdf_merge_is_exact_multiset_union(
        xs in prop::collection::vec(-1e9f64..1e9, 0..200),
        ys in prop::collection::vec(-1e9f64..1e9, 0..200),
        zs in prop::collection::vec(-1e9f64..1e9, 0..200),
    ) {
        let bits = |c: &Cdf| -> Vec<u64> { c.samples().iter().map(|x| x.to_bits()).collect() };
        let (a, b, c) = (
            Cdf::from_samples(xs.iter().copied()),
            Cdf::from_samples(ys.iter().copied()),
            Cdf::from_samples(zs.iter().copied()),
        );
        let direct = Cdf::from_samples(xs.iter().chain(&ys).copied());
        prop_assert_eq!(bits(&a.merge(&b)), bits(&direct));
        prop_assert_eq!(bits(&a.merge(&b)), bits(&b.merge(&a)));
        prop_assert_eq!(bits(&a.merge(&b).merge(&c)), bits(&a.merge(&b.merge(&c))));
    }

    /// PriorityFrame flush never reorders surviving frames: whatever
    /// interleaving of publishes, pops and flushes occurs, the frames the
    /// consumer actually receives arrive in strictly increasing publish
    /// order.
    #[test]
    fn flush_never_reorders_surviving_frames(
        capacity in 1usize..6,
        overwrite in any::<bool>(),
        ops in prop::collection::vec(prop_oneof![Just(0u8), Just(0), Just(1), Just(2)], 1..300),
    ) {
        let policy = if overwrite { FullPolicy::Overwrite } else { FullPolicy::Block };
        let mut q: FrameQueue<u64> = FrameQueue::new(capacity, policy);
        let mut next = 0u64;
        let mut delivered: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                0 => {
                    let _ = q.publish(next);
                    next += 1;
                }
                1 => {
                    if let Some(f) = q.pop() {
                        delivered.push(f);
                    }
                }
                _ => {
                    let _ = q.flush_obsolete();
                }
            }
        }
        for w in delivered.windows(2) {
            prop_assert!(
                w[0] < w[1],
                "frame {} delivered after {}",
                w[1],
                w[0]
            );
        }
    }

    /// SimTime arithmetic round-trips.
    #[test]
    fn simtime_arithmetic_roundtrips(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let dur = Duration::from_nanos(d);
        let u = t + dur;
        prop_assert_eq!(u - t, dur);
        prop_assert_eq!(u - dur, t);
        prop_assert_eq!(u.saturating_since(t), dur);
        prop_assert_eq!(t.saturating_since(u), Duration::ZERO);
    }
}

/// The pipeline-conservation property body, callable both from the
/// strategy-driven test above and from the regression replay below.
fn check_pipeline_conservation(
    seed: u64,
    bench_idx: usize,
    spec_idx: usize,
    gce: bool,
) -> Result<(), TestCaseError> {
    use cloud3d_odr::prelude::*;
    let benchmark = Benchmark::ALL[bench_idx];
    let platform = if gce {
        Platform::Gce
    } else {
        Platform::PrivateCloud
    };
    let spec = RegulationSpec::evaluation_set(60.0)[spec_idx];
    let cfg =
        ExperimentConfig::builder(Scenario::new(benchmark, Resolution::R720p, platform), spec)
            .duration(Duration::from_secs(6))
            .seed(seed)
            .build();
    let r = run_experiment(&cfg);

    // Rendered/displayed are counted post-warm-up; under congestion,
    // frames rendered during the 5 s warm-up can still be crossing the
    // network queue and display afterwards (up to ~warm-up × drain).
    prop_assert!(r.frames_displayed <= r.frames_rendered + 400);
    prop_assert!(r.fps_gap_avg >= 0.0);
    prop_assert!(r.fps_gap_max >= r.fps_gap_avg);
    prop_assert!(r.client_fps >= 0.0 && r.client_fps < 400.0);
    // No frame silently vanishes: everything rendered is displayed,
    // dropped (counter includes warm-up-era drops, making this a
    // conservative bound), or among the handful in flight at the end.
    let accounted = r.frames_displayed + r.frames_dropped;
    let in_flight_bound = 40 + r.frames_rendered / 10;
    prop_assert!(
        r.frames_rendered <= accounted + in_flight_bound,
        "lost frames: rendered {} vs accounted {accounted}",
        r.frames_rendered
    );
    // Without PriorityFrame there are no priority frames.
    if matches!(
        spec,
        RegulationSpec::NoReg | RegulationSpec::Interval(_) | RegulationSpec::Rvs { .. }
    ) {
        prop_assert_eq!(r.priority_frames, 0);
    }
    Ok(())
}

/// Replays every failure persisted in `tests/properties.proptest-regressions`.
///
/// The shim's RNG cannot consume upstream seed hashes, so the seeds in
/// that file are never replayed implicitly; instead this test parses the
/// shrunk argument *values* out of each entry and re-runs the property
/// body on them directly. Adding a `cc` line to the file is enough to
/// pin a new failure case — no code change required.
#[test]
fn replay_persisted_regressions() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/properties.proptest-regressions");
    let cases = proptest::regressions::load(&path);
    assert!(
        !cases.is_empty(),
        "expected persisted regression entries in {}",
        path.display()
    );
    for case in &cases {
        let seed: u64 = case.get_parsed("seed").expect("seed binding");
        let bench_idx: usize = case.get_parsed("bench_idx").expect("bench_idx binding");
        let spec_idx: usize = case.get_parsed("spec_idx").expect("spec_idx binding");
        let gce: bool = case.get_parsed("gce").expect("gce binding");
        check_pipeline_conservation(seed, bench_idx, spec_idx, gce).unwrap_or_else(|e| {
            panic!("persisted regression cc {} failed again: {e:?}", case.hash)
        });
    }
}
