//! The fleet engine's execution options: fidelity mode and worker-pool
//! size, as `FleetConfig` embeds them and the `odrsim` CLI sets them.

/// How faithfully a fleet's sessions are simulated.
///
/// The two modes trade per-frame detail for throughput; `run_fleet` is
/// the one place that dispatches on them:
///
/// * [`FullDes`](FidelityMode::FullDes) runs the complete per-frame
///   discrete-event pipeline for every session. This is the reference
///   mode: byte-deterministic, per-frame traces available, and the only
///   mode whose per-session numbers are *measurements*.
/// * [`Analytic`](FidelityMode::Analytic) calibrates the fleet's session
///   class once with a small FullDes fleet, then replays every session
///   through the calibrated distributions — FPS/MtP/energy summaries, no
///   per-frame events. Two to three orders of magnitude faster; valid
///   when no per-frame trace is requested and only aggregate statistics
///   are consumed (energy totals, million-session distributions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FidelityMode {
    /// Full per-frame discrete-event simulation (the default).
    #[default]
    FullDes,
    /// Class-calibrated analytic replay (aggregate statistics only).
    Analytic,
}

impl FidelityMode {
    /// Parses the CLI spelling (`full` or `analytic`).
    #[must_use]
    pub fn parse(s: &str) -> Option<FidelityMode> {
        match s {
            "full" => Some(FidelityMode::FullDes),
            "analytic" => Some(FidelityMode::Analytic),
            _ => None,
        }
    }

    /// The CLI spelling this mode parses from.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FidelityMode::FullDes => "full",
            FidelityMode::Analytic => "analytic",
        }
    }
}

/// A fleet's execution options.
///
/// One `SimOptions` value carries both the worker-pool size and the
/// [`FidelityMode`]; `FleetConfig` embeds it, and the `odrsim` CLI maps a
/// fleet's `--threads`/`--fidelity` onto it. Neither field affects a
/// FullDes report's bytes: `threads` only sizes the pool, and `fidelity`
/// selects which engine runs.
///
/// # Examples
///
/// ```
/// use odr_core::{FidelityMode, SimOptions};
///
/// let opts = SimOptions::new().with_threads(8).with_fidelity(FidelityMode::Analytic);
/// assert_eq!(opts.threads, 8);
/// assert_eq!(opts.fidelity, FidelityMode::Analytic);
/// assert_eq!(SimOptions::default().threads, 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimOptions {
    /// Simulation fidelity (default: [`FidelityMode::FullDes`]).
    pub fidelity: FidelityMode,
    /// Worker threads (default: 1; engines clamp to their work size).
    pub threads: usize,
}

impl SimOptions {
    /// Full-DES, single-threaded defaults.
    #[must_use]
    pub fn new() -> Self {
        SimOptions {
            fidelity: FidelityMode::FullDes,
            threads: 1,
        }
    }

    /// Sets the fidelity mode.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: FidelityMode) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Sets the worker-pool size.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_parses_its_own_labels() {
        for mode in [FidelityMode::FullDes, FidelityMode::Analytic] {
            assert_eq!(FidelityMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(FidelityMode::parse("fast"), None);
        assert_eq!(FidelityMode::parse(""), None);
    }

    #[test]
    fn defaults_are_full_des_single_thread() {
        let opts = SimOptions::default();
        assert_eq!(opts.fidelity, FidelityMode::FullDes);
        assert_eq!(opts.threads, 1);
        assert_eq!(opts, SimOptions::new());
    }
}
