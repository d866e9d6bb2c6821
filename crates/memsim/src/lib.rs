//! DRAM row-buffer contention, IPC, and power model.
//!
//! Section 4.3 of the ODR paper explains *why* excessive rendering hurts
//! efficiency: frame rendering, copying, and encoding are memory-intensive
//! and pipelined in their own threads, so the more often they execute
//! simultaneously, the more DRAM row-buffer conflicts occur, which raises
//! the DRAM read access time, which lowers IPC — and, through the slower
//! memory operations, stretches the frame-processing steps themselves.
//!
//! This crate models exactly that causal chain:
//!
//! 1. The pipeline declares which memory-intensive activities
//!    ([`MemClient`]) are running at each instant.
//! 2. The row-buffer miss rate is a saturating function of the number of
//!    concurrently active clients
//!    ([`MemoryParams::miss_rate_for_streams`]).
//! 3. The DRAM read access time follows from the miss rate
//!    ([`MemoryParams::read_time_for_streams`]), IPC follows inversely from
//!    the read time ([`MemoryParams::ipc_for_streams`]), and a *slowdown
//!    factor* ([`MemoryParams::slowdown_for_streams`]) feeds back into the
//!    sampled durations of the pipeline stages. The live model evaluates
//!    the four once per client count, 0–4, and looks them up from then on
//!    ([`MemoryModel::slowdown`]).
//! 4. Power is idle power plus per-activity dynamic power
//!    ([`PowerParams`]), time-weighted over the run.
//!
//! The model is calibrated against the paper's private-cloud numbers
//! (Figures 7, 12, 13): miss rates in the 40–85 % band, read times tens of
//! nanoseconds, IPC 0.15–1.5 depending on benchmark, wall power 100–280 W.

use odr_metrics::TimeWeighted;
use odr_simtime::SimTime;

/// A memory-intensive pipeline activity, per Section 4.3 / 6.5 of the paper
/// ("application logic, frame rendering, copying, and encoding").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemClient {
    /// Game/application logic (input handling, world update).
    AppLogic,
    /// GPU frame rendering (reads textures/geometry, writes framebuffers).
    Render,
    /// Framebuffer copy from GPU memory to the server proxy.
    Copy,
    /// Video encoding in the server proxy.
    Encode,
}

impl MemClient {
    /// Every client, in a fixed order (used for reporting).
    pub const ALL: [MemClient; 4] = [
        MemClient::AppLogic,
        MemClient::Render,
        MemClient::Copy,
        MemClient::Encode,
    ];

    fn index(self) -> usize {
        match self {
            MemClient::AppLogic => 0,
            MemClient::Render => 1,
            MemClient::Copy => 2,
            MemClient::Encode => 3,
        }
    }
}

/// DRAM behaviour parameters.
///
/// Defaults approximate the paper's i7-7820x + DDR4 private-cloud server.
#[derive(Clone, Copy, Debug)]
pub struct MemoryParams {
    /// Row-buffer miss rate with at most one active client.
    pub base_miss_rate: f64,
    /// Additional miss rate contributed by each concurrently active client
    /// beyond the first.
    pub miss_per_extra_client: f64,
    /// Saturation ceiling for the miss rate.
    pub max_miss_rate: f64,
    /// DRAM read time on a row-buffer hit, in nanoseconds.
    pub row_hit_ns: f64,
    /// Extra DRAM read time on a row-buffer miss (precharge + activate), in
    /// nanoseconds.
    pub row_miss_extra_ns: f64,
    /// Memory-controller queueing: extra read latency in nanoseconds per
    /// (extra concurrent client)², modelling read-pending-queue occupancy
    /// growth under simultaneous streams (the paper measures read time via
    /// RPQ occupancy, which grows superlinearly with contention).
    pub queue_ns_per_extra_client_sq: f64,
    /// IPC when the read time equals the single-client baseline.
    pub ipc_base: f64,
    /// Exponent coupling IPC to relative DRAM read time (higher = more
    /// memory-bound workload).
    pub ipc_mem_sensitivity: f64,
    /// Exponent coupling stage-duration slowdown to relative DRAM read
    /// time.
    pub stage_mem_sensitivity: f64,
}

impl MemoryParams {
    /// Row-buffer miss rate for a (possibly fractional) expected number of
    /// concurrently active memory streams. Fractional inputs arise in
    /// mean-field co-location analysis, where the stream count is an
    /// expectation over many sessions.
    #[must_use]
    pub fn miss_rate_for_streams(&self, streams: f64) -> f64 {
        if streams <= 1.0 {
            return self.base_miss_rate;
        }
        (self.base_miss_rate + self.miss_per_extra_client * (streams - 1.0)).min(self.max_miss_rate)
    }

    /// DRAM read time (ns) for an expected concurrent stream count:
    /// row-buffer service time plus read-pending-queue delay.
    #[must_use]
    pub fn read_time_for_streams(&self, streams: f64) -> f64 {
        let extra = (streams - 1.0).max(0.0);
        self.row_hit_ns
            + self.miss_rate_for_streams(streams) * self.row_miss_extra_ns
            + self.queue_ns_per_extra_client_sq * extra * extra
    }

    /// DRAM read time relative to the one-stream baseline the slowdown and
    /// IPC couplings are defined against.
    fn relative_read_time(&self, streams: f64) -> f64 {
        self.read_time_for_streams(streams) / self.read_time_for_streams(1.0)
    }

    /// Instructions per cycle for an expected stream count.
    #[must_use]
    pub fn ipc_for_streams(&self, streams: f64) -> f64 {
        let relative = self.relative_read_time(streams);
        self.ipc_base / relative.powf(self.ipc_mem_sensitivity)
    }

    /// Stage-duration slowdown factor (≥ 1.0) for an expected stream count.
    #[must_use]
    pub fn slowdown_for_streams(&self, streams: f64) -> f64 {
        let relative = self.relative_read_time(streams);
        relative.powf(self.stage_mem_sensitivity)
    }

    /// Solves the co-location fixed point `slowdown -> busy fractions ->
    /// streams -> slowdown`: contention stretches every stage, stretched
    /// stages overlap more, and more overlapping streams mean more
    /// contention. `streams_at(slowdown)` is the caller's expected number
    /// of concurrently active streams when every stage runs `slowdown`
    /// times its uncontended length (the caller owns the summation order,
    /// so its result stays bit-reproducible). Iterates from no contention
    /// until the slowdown moves by less than 1e-9, 64 rounds at most, and
    /// returns `(streams, slowdown)`.
    #[must_use]
    pub fn contention_fixed_point(&self, streams_at: impl Fn(f64) -> f64) -> (f64, f64) {
        let mut slowdown = 1.0f64;
        let mut streams = 0.0;
        for _ in 0..64 {
            streams = streams_at(slowdown);
            let next = self.slowdown_for_streams(streams.max(1.0));
            let converged = (next - slowdown).abs() < 1e-9;
            slowdown = next;
            if converged {
                break;
            }
        }
        (streams, slowdown)
    }
}

impl Default for MemoryParams {
    fn default() -> Self {
        MemoryParams {
            base_miss_rate: 0.42,
            miss_per_extra_client: 0.11,
            max_miss_rate: 0.85,
            row_hit_ns: 28.0,
            row_miss_extra_ns: 52.0,
            queue_ns_per_extra_client_sq: 3.0,
            ipc_base: 0.9,
            ipc_mem_sensitivity: 1.0,
            stage_mem_sensitivity: 0.40,
        }
    }
}

/// Wall-power model parameters (idle plus per-activity dynamic terms), in
/// watts.
///
/// Defaults approximate the paper's ~199 W NoReg average on the private
/// cloud (Figure 13), measured at the wall with a clamp meter.
#[derive(Clone, Copy, Debug)]
pub struct PowerParams {
    /// Power with the whole pipeline idle.
    pub idle_w: f64,
    /// Dynamic power while application logic runs.
    pub app_w: f64,
    /// Dynamic power while the GPU renders.
    pub render_w: f64,
    /// Dynamic power during framebuffer copies.
    pub copy_w: f64,
    /// Dynamic power while encoding.
    pub encode_w: f64,
    /// Exponent mapping busy fraction to average dynamic power,
    /// `P = idle + Σ w_c · util_c^γ`. Real CPUs/GPUs under intermittent
    /// load keep clocks and rails up between bursts, so average power is
    /// strongly sublinear in utilisation; γ ≈ 0.35 reproduces the paper's
    /// measured ~8 % (ODRMax) and ~22 % (ODR60) wall-power reductions.
    pub util_exponent: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            idle_w: 92.0,
            app_w: 18.0,
            render_w: 85.0,
            copy_w: 14.0,
            encode_w: 26.0,
            util_exponent: 0.35,
        }
    }
}

impl PowerParams {
    fn weight(&self, client: MemClient) -> f64 {
        match client {
            MemClient::AppLogic => self.app_w,
            MemClient::Render => self.render_w,
            MemClient::Copy => self.copy_w,
            MemClient::Encode => self.encode_w,
        }
    }
}

/// Aggregated efficiency metrics for one run (Figures 7, 12, 13).
#[derive(Clone, Copy, Debug)]
pub struct MemoryReport {
    /// Time-weighted DRAM row-buffer miss rate, in percent (0–100).
    pub miss_rate_pct: f64,
    /// Time-weighted DRAM read access time, in nanoseconds.
    pub read_time_ns: f64,
    /// Time-weighted instructions per cycle.
    pub ipc: f64,
    /// Time-weighted wall power, in watts.
    pub power_w: f64,
    /// Busy fraction (0–1) of each [`MemClient`], in [`MemClient::ALL`]
    /// order.
    pub utilisation: [f64; 4],
}

/// The live contention model. See the crate docs for the causal chain.
///
/// # Examples
///
/// ```
/// use odr_memsim::{MemClient, MemoryModel, MemoryParams, PowerParams};
/// use odr_simtime::SimTime;
///
/// let mut mem = MemoryModel::new(MemoryParams::default(), PowerParams::default(), SimTime::ZERO);
/// let idle = mem.slowdown();
/// mem.set_active(SimTime::ZERO, &[MemClient::Render, MemClient::Encode], true);
/// assert!(mem.slowdown() > idle); // contention stretches stage times
/// ```
#[derive(Clone, Debug)]
pub struct MemoryModel {
    power: PowerParams,
    active: [bool; 4],
    /// The closed forms at 0–4 active clients, evaluated once.
    levels: [Level; 5],
    /// `levels[number of active clients]`.
    level: Level,
    /// Where the level integrals start, and when `level` last changed.
    start: SimTime,
    last_change: SimTime,
    /// `∫ miss rate dt`, `∫ read time dt`, `∫ IPC dt` since `start`: the
    /// three change together, so they share one Δt per change.
    miss_secs: f64,
    read_secs: f64,
    ipc_secs: f64,
    util_tw: [TimeWeighted; 4],
}

/// What the model derives from the number of active clients.
#[derive(Clone, Copy, Debug)]
struct Level {
    miss_rate: f64,
    read_time_ns: f64,
    ipc: f64,
    slowdown: f64,
}

impl MemoryModel {
    /// Creates a model in the all-idle state at `start`.
    #[must_use]
    pub fn new(params: MemoryParams, power: PowerParams, start: SimTime) -> Self {
        let levels = [0.0, 1.0, 2.0, 3.0, 4.0].map(|streams| Level {
            miss_rate: params.miss_rate_for_streams(streams),
            read_time_ns: params.read_time_for_streams(streams),
            ipc: params.ipc_for_streams(streams),
            slowdown: params.slowdown_for_streams(streams),
        });
        let [idle, ..] = levels;
        MemoryModel {
            power,
            active: [false; 4],
            levels,
            level: idle,
            start,
            last_change: start,
            miss_secs: 0.0,
            read_secs: 0.0,
            ipc_secs: 0.0,
            util_tw: [
                TimeWeighted::new(start, 0.0),
                TimeWeighted::new(start, 0.0),
                TimeWeighted::new(start, 0.0),
                TimeWeighted::new(start, 0.0),
            ],
        }
    }

    /// Marks each of `clients` as running (`true`) or idle (`false`) at
    /// time `now`. Clients that flip together change the contention level
    /// once.
    pub fn set_active(&mut self, now: SimTime, clients: &[MemClient], active: bool) {
        let before = self.active;
        for client in clients {
            // `index()` is < 4 by construction, so both lookups always hit.
            let idx = client.index();
            if let (Some(flag), Some(tw)) = (self.active.get_mut(idx), self.util_tw.get_mut(idx)) {
                if *flag != active {
                    *flag = active;
                    tw.set(now, if active { 1.0 } else { 0.0 });
                }
            }
        }
        if self.active == before {
            return;
        }
        self.advance(now);
        // At most four flags are set, so the lookup always hits.
        let clients = self.active.iter().filter(|&&a| a).count();
        if let Some(level) = self.levels.get(clients) {
            self.level = *level;
        }
    }

    /// Multiplier (≥ 1.0) the pipeline applies to sampled stage durations to
    /// account for memory contention.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.level.slowdown
    }

    /// Produces the run report over `[start, end]`.
    #[must_use]
    pub fn report(&mut self, end: SimTime) -> MemoryReport {
        // Flush the current state up to `end` so the trailing interval is
        // weighted too.
        self.advance(end);
        let span = (self.last_change - self.start).as_secs_f64();
        let mean = |integral: f64, current: f64| if span > 0.0 { integral / span } else { current };
        let mut utilisation = [0.0; 4];
        for (tw, util) in self.util_tw.iter_mut().zip(utilisation.iter_mut()) {
            let v = tw.current();
            tw.set(end, v);
            *util = tw.mean(end);
        }
        let mut power_w = self.power.idle_w;
        for c in MemClient::ALL {
            let util = utilisation
                .get(c.index())
                .copied()
                .unwrap_or(0.0)
                .clamp(0.0, 1.0);
            if util > 0.0 {
                power_w += self.power.weight(c) * util.powf(self.power.util_exponent);
            }
        }
        MemoryReport {
            miss_rate_pct: mean(self.miss_secs, self.level.miss_rate) * 100.0,
            read_time_ns: mean(self.read_secs, self.level.read_time_ns),
            ipc: mean(self.ipc_secs, self.level.ipc),
            power_w,
            utilisation,
        }
    }

    /// Integrates the current level up to `now` (clamped to the last
    /// change, as `TimeWeighted::set` clamps).
    fn advance(&mut self, now: SimTime) {
        let now = now.max(self.last_change);
        let dt = (now - self.last_change).as_secs_f64();
        self.miss_secs += self.level.miss_rate * dt;
        self.read_secs += self.level.read_time_ns * dt;
        self.ipc_secs += self.level.ipc * dt;
        self.last_change = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_simtime::Duration;

    fn model() -> MemoryModel {
        MemoryModel::new(
            MemoryParams::default(),
            PowerParams::default(),
            SimTime::ZERO,
        )
    }

    #[test]
    fn miss_rate_grows_with_clients_and_saturates() {
        let mut m = model();
        let m0 = m.level.miss_rate;
        m.set_active(SimTime::ZERO, &[MemClient::Render], true);
        assert_eq!(m.level.miss_rate, m0, "one client is the baseline");
        m.set_active(SimTime::ZERO, &[MemClient::Encode], true);
        let m2 = m.level.miss_rate;
        assert!(m2 > m0);
        m.set_active(SimTime::ZERO, &[MemClient::Copy], true);
        m.set_active(SimTime::ZERO, &[MemClient::AppLogic], true);
        let m4 = m.level.miss_rate;
        assert!(m4 > m2);
        assert!(m4 <= MemoryParams::default().max_miss_rate + 1e-12);
    }

    #[test]
    fn read_time_tracks_miss_rate() {
        let mut m = model();
        let t0 = m.level.read_time_ns;
        m.set_active(SimTime::ZERO, &[MemClient::Render], true);
        m.set_active(SimTime::ZERO, &[MemClient::Encode], true);
        m.set_active(SimTime::ZERO, &[MemClient::Copy], true);
        assert!(m.level.read_time_ns > t0);
        // The paper's Figure 7b band: tens of nanoseconds.
        assert!(m.level.read_time_ns > 20.0 && m.level.read_time_ns < 120.0);
    }

    #[test]
    fn ipc_falls_under_contention() {
        let mut m = model();
        let ipc0 = m.level.ipc;
        for c in MemClient::ALL {
            m.set_active(SimTime::ZERO, &[c], true);
        }
        assert!(m.level.ipc < ipc0);
    }

    #[test]
    fn slowdown_is_at_least_one_at_baseline() {
        let mut m = model();
        assert!((m.slowdown() - 1.0).abs() < 1e-12);
        for c in MemClient::ALL {
            m.set_active(SimTime::ZERO, &[c], true);
        }
        assert!(m.slowdown() > 1.0);
        assert!(m.slowdown() < 2.0, "slowdown should be a modest factor");
    }

    #[test]
    fn report_power_is_sublinear_in_utilisation() {
        let mut m = model();
        // Render active for the first half of a 2-second run.
        m.set_active(SimTime::ZERO, &[MemClient::Render], true);
        m.set_active(SimTime::from_secs(1), &[MemClient::Render], false);
        let r = m.report(SimTime::from_secs(2));
        let p = PowerParams::default();
        assert!((r.utilisation[MemClient::Render.index()] - 0.5).abs() < 1e-9);
        // At 50 % utilisation, power sits well above the linear midpoint
        // (clocks stay up between bursts) but below full activity.
        let expect = p.idle_w + p.render_w * 0.5f64.powf(p.util_exponent);
        assert!((r.power_w - expect).abs() < 1e-9, "got {}", r.power_w);
        assert!(r.power_w > p.idle_w + p.render_w / 2.0);
        assert!(r.power_w < p.idle_w + p.render_w);
    }

    #[test]
    fn report_units_are_paper_scale() {
        let mut m = model();
        m.set_active(SimTime::ZERO, &[MemClient::Render], true);
        m.set_active(SimTime::ZERO, &[MemClient::Encode], true);
        let r = m.report(SimTime::from_secs(1));
        assert!(r.miss_rate_pct > 30.0 && r.miss_rate_pct < 90.0);
        assert!(r.read_time_ns > 20.0 && r.read_time_ns < 120.0);
        assert!(r.ipc > 0.1 && r.ipc < 2.0);
        assert!(r.power_w > 90.0 && r.power_w < 300.0);
    }

    #[test]
    fn continuous_stream_queries_interpolate() {
        let p = MemoryParams::default();
        assert!(p.miss_rate_for_streams(1.0) < p.miss_rate_for_streams(2.5));
        assert!(p.miss_rate_for_streams(2.5) < p.miss_rate_for_streams(4.0));
        assert!(p.miss_rate_for_streams(100.0) <= p.max_miss_rate);
        assert!((p.slowdown_for_streams(1.0) - 1.0).abs() < 1e-12);
        assert!(p.slowdown_for_streams(3.0) > p.slowdown_for_streams(2.0));
        // Fractional inputs sit between the integer anchors.
        let lo = p.read_time_for_streams(2.0);
        let mid = p.read_time_for_streams(2.5);
        let hi = p.read_time_for_streams(3.0);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn duplicate_set_active_is_idempotent() {
        let mut m = model();
        m.set_active(SimTime::ZERO, &[MemClient::Copy], true);
        m.set_active(
            SimTime::ZERO + Duration::from_secs(1),
            &[MemClient::Copy],
            true,
        );
        let r = m.report(SimTime::from_secs(2));
        assert!((r.utilisation[MemClient::Copy.index()] - 1.0).abs() < 1e-9);
    }

    /// The model as it was before the level integrals shared one Δt: one
    /// client at a time, three `TimeWeighted`s re-set on every flip.
    struct ThreeSignals {
        params: MemoryParams,
        power: PowerParams,
        active: [bool; 4],
        miss: TimeWeighted,
        read: TimeWeighted,
        ipc: TimeWeighted,
        util: [TimeWeighted; 4],
    }

    impl ThreeSignals {
        fn new(params: MemoryParams, power: PowerParams) -> Self {
            let at = |streams: f64| {
                [
                    params.miss_rate_for_streams(streams),
                    params.read_time_for_streams(streams),
                    params.ipc_for_streams(streams),
                ]
            };
            let [miss, read, ipc] = at(0.0).map(|v| TimeWeighted::new(SimTime::ZERO, v));
            ThreeSignals {
                params,
                power,
                active: [false; 4],
                miss,
                read,
                ipc,
                util: [0; 4].map(|_| TimeWeighted::new(SimTime::ZERO, 0.0)),
            }
        }

        fn set(&mut self, now: SimTime, client: MemClient, active: bool) {
            let i = client.index();
            if self.active[i] == active {
                return;
            }
            self.active[i] = active;
            self.util[i].set(now, if active { 1.0 } else { 0.0 });
            let streams = self.active.iter().filter(|&&a| a).count() as f64;
            self.miss
                .set(now, self.params.miss_rate_for_streams(streams));
            self.read
                .set(now, self.params.read_time_for_streams(streams));
            self.ipc.set(now, self.params.ipc_for_streams(streams));
        }

        fn report(&mut self, end: SimTime) -> MemoryReport {
            let flushed_mean = |tw: &mut TimeWeighted| {
                tw.set(end, tw.current());
                tw.mean(end)
            };
            let utilisation = [0, 1, 2, 3].map(|i| flushed_mean(&mut self.util[i]));
            let mut power_w = self.power.idle_w;
            for c in MemClient::ALL {
                let util = utilisation[c.index()].clamp(0.0, 1.0);
                if util > 0.0 {
                    power_w += self.power.weight(c) * util.powf(self.power.util_exponent);
                }
            }
            MemoryReport {
                miss_rate_pct: flushed_mean(&mut self.miss) * 100.0,
                read_time_ns: flushed_mean(&mut self.read),
                ipc: flushed_mean(&mut self.ipc),
                power_w,
                utilisation,
            }
        }
    }

    fn report_bits(r: &MemoryReport) -> [u64; 8] {
        let [u0, u1, u2, u3] = r.utilisation.map(f64::to_bits);
        [
            r.miss_rate_pct.to_bits(),
            r.read_time_ns.to_bits(),
            r.ipc.to_bits(),
            r.power_w.to_bits(),
            u0,
            u1,
            u2,
            u3,
        ]
    }

    #[test]
    fn one_shared_delta_reports_what_three_time_weighted_signals_report() {
        let mut rng = odr_simtime::Rng::new(5);
        for run in 0..200 {
            let params = MemoryParams {
                ipc_base: 0.3 + rng.next_f64(),
                ..MemoryParams::default()
            };
            let power = PowerParams::default();
            let mut model = MemoryModel::new(params, power, SimTime::ZERO);
            let mut reference = ThreeSignals::new(params, power);
            let mut now = SimTime::ZERO;
            for _ in 0..rng.below(400) {
                // Repeated instants are common, steps back are clamped.
                now = match rng.below(8) {
                    0..=2 => now,
                    3 => now - Duration::from_nanos(rng.below(5_000)),
                    _ => now + Duration::from_nanos(rng.below(3_000_000)),
                };
                let active = rng.chance(0.5);
                let clients: &[MemClient] = match rng.below(5) {
                    4 => &[MemClient::AppLogic, MemClient::Render],
                    i => &MemClient::ALL[i as usize..=i as usize],
                };
                model.set_active(now, clients, active);
                for &client in clients {
                    reference.set(now, client, active);
                }
                assert_eq!(model.slowdown().to_bits(), {
                    let streams = reference.active.iter().filter(|&&a| a).count() as f64;
                    params.slowdown_for_streams(streams).to_bits()
                });
            }
            let end = now + Duration::from_nanos(rng.below(2) * rng.below(10_000_000));
            let (got, expected) = (model.report(end), reference.report(end));
            assert_eq!(
                report_bits(&got),
                report_bits(&expected),
                "run {run}: {got:?} vs {expected:?}"
            );
        }
    }
}
