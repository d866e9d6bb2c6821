//! Deterministic session-churn generation.
//!
//! Arrivals come from a Poisson process; each session's policy class and
//! residency duration come from a *per-session* stream seeded purely by
//! the base seed and the session index ([`odr_fleet::session_seed`]).
//! The inter-arrival stream and the per-session attribute streams are
//! disjoint forks, so changing one session's attributes can never shift
//! another session's arrival time — the same index-derived-stream
//! discipline the fleet engine uses.

use odr_fleet::session_seed;
use odr_simtime::{Duration, Rng, SimTime};

use crate::config::ChurnConfig;

/// Fork id of the inter-arrival stream (off the base-seed generator).
const GAP_STREAM: u64 = 0x0C11_A12A;
/// Fork id of a session's attribute stream (off its per-session
/// generator).
const ATTR_STREAM: u64 = 0x0C11_A77A;

/// One generated session arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Arrival {
    /// Global session index (0-based, arrival order).
    pub session: u32,
    /// When the session arrives at the admission controller.
    pub at: SimTime,
    /// Index into [`PolicyMix::choices`](crate::PolicyMix::choices).
    pub policy: usize,
    /// How long the session wants to stay resident.
    pub duration: Duration,
}

/// Generates the full arrival schedule for one cluster run.
///
/// Deterministic: equal `(churn, seed, horizon)` yield byte-identical
/// schedules. Arrivals stop at the horizon or at
/// [`ChurnConfig::max_sessions`], whichever comes first; a non-positive
/// arrival rate yields no arrivals.
#[must_use]
pub(crate) fn generate_arrivals(churn: &ChurnConfig, seed: u64, horizon: Duration) -> Vec<Arrival> {
    if churn.arrival_rate <= 0.0 {
        return Vec::new();
    }
    let end = SimTime::ZERO + horizon;
    let mut gaps = Rng::new(seed).fork(GAP_STREAM);
    let mut arrivals = Vec::new();
    let mut at = SimTime::ZERO;
    for session in 0..churn.max_sessions {
        at += odr_simtime::time::secs_f64(gaps.exponential(churn.arrival_rate));
        if at > end {
            break;
        }
        let mut attrs = Rng::new(session_seed(seed, session)).fork(ATTR_STREAM);
        let policy = churn.mix.draw(&mut attrs);
        let duration = attrs.lognormal_duration(churn.mean_session, churn.session_sigma);
        arrivals.push(Arrival {
            session,
            at,
            policy,
            duration,
        });
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyMix;
    use odr_core::{FpsGoal, RegulationSpec};

    fn churn(rate: f64) -> ChurnConfig {
        ChurnConfig::new(
            rate,
            PolicyMix::uniform(RegulationSpec::odr(FpsGoal::Target(60.0))),
        )
    }

    #[test]
    fn same_seed_same_schedule() {
        let c = churn(0.8);
        let a = generate_arrivals(&c, 42, Duration::from_secs(120));
        let b = generate_arrivals(&c, 42, Duration::from_secs(120));
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let c = churn(0.8);
        let a = generate_arrivals(&c, 1, Duration::from_secs(120));
        let b = generate_arrivals(&c, 2, Duration::from_secs(120));
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_ordered_and_bounded() {
        let c = churn(2.0);
        let arrivals = generate_arrivals(&c, 7, Duration::from_secs(60));
        let end = SimTime::ZERO + Duration::from_secs(60);
        for pair in arrivals.windows(2) {
            assert!(pair[0].at <= pair[1].at);
            assert_eq!(pair[0].session + 1, pair[1].session);
        }
        assert!(arrivals.iter().all(|a| a.at <= end));
        assert!(arrivals.iter().all(|a| a.duration > Duration::ZERO));
    }

    #[test]
    fn rate_scales_volume() {
        let slow = generate_arrivals(&churn(0.2), 9, Duration::from_secs(200)).len();
        let fast = generate_arrivals(&churn(2.0), 9, Duration::from_secs(200)).len();
        assert!(fast > 2 * slow, "slow={slow} fast={fast}");
    }

    #[test]
    fn zero_rate_is_empty() {
        assert!(generate_arrivals(&churn(0.0), 3, Duration::from_secs(60)).is_empty());
    }

    #[test]
    fn max_sessions_caps_generation() {
        let mut c = churn(100.0);
        c.max_sessions = 5;
        let arrivals = generate_arrivals(&c, 11, Duration::from_secs(600));
        assert_eq!(arrivals.len(), 5);
    }

    #[test]
    fn session_attributes_do_not_shift_arrival_times() {
        // Changing the mix (session attributes) must not move arrival
        // instants: the gap stream is an independent fork.
        let base = churn(1.0);
        let other = ChurnConfig::new(1.0, PolicyMix::uniform(RegulationSpec::NoReg));
        let a = generate_arrivals(&base, 5, Duration::from_secs(60));
        let b = generate_arrivals(&other, 5, Duration::from_secs(60));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.duration, y.duration);
        }
    }
}
