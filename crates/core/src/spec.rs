//! Regulation configurations — the paper's evaluated configurations as
//! data.

use core::fmt;

/// The QoS goal a regulation runs under (Section 3): either maximise the
/// client frame rate, or hold a fixed target (30 or 60 FPS).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FpsGoal {
    /// Maximise client FPS.
    Max,
    /// Meet a fixed FPS target.
    Target(f64),
}

impl FpsGoal {
    /// The numeric target, if fixed.
    #[must_use]
    pub fn target(self) -> Option<f64> {
        match self {
            FpsGoal::Max => None,
            FpsGoal::Target(f) => Some(f),
        }
    }

    /// Label suffix used by the paper ("Max", "60", "30").
    #[must_use]
    pub(crate) fn suffix(self) -> String {
        match self {
            FpsGoal::Max => "Max".to_owned(),
            FpsGoal::Target(f) => format!("{f:.0}"),
        }
    }
}

/// ODR-specific options (defaults reproduce the paper's system; the other
/// settings are the ablations DESIGN.md calls out).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OdrOptions {
    /// Enable PriorityFrame (Section 5.3). Disabling reproduces the
    /// "ODRMax-noPri" row of Table 2.
    pub priority_frames: bool,
    /// Pending-frame capacity of each multi-buffer. The paper's front/back
    /// pair is depth 1 (plus the frame the consumer holds).
    pub buffer_depth: usize,
    /// Whether the regulator accelerates to repay debt (Algorithm 1).
    /// Disabling is the delay-only ablation.
    pub accelerate: bool,
    /// Whether producers block on full buffers. Disabling (overwrite mode)
    /// is the multi-buffering ablation: ODR degenerates toward NoReg gap
    /// behaviour.
    pub blocking_buffers: bool,
}

impl Default for OdrOptions {
    fn default() -> Self {
        OdrOptions {
            priority_frames: true,
            buffer_depth: 1,
            accelerate: true,
            blocking_buffers: true,
        }
    }
}

/// A complete regulation configuration, as labelled in the paper's
/// evaluation (NoReg, Int60/Int30/IntMax, RVS60/RVS30/RVSMax,
/// ODR60/ODR30/ODRMax, ODRMax-noPri).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RegulationSpec {
    /// No FPS regulation.
    NoReg,
    /// Interval-based regulation in the application main loop.
    Interval(FpsGoal),
    /// Remote VSync: `goal` selects the client display refresh rate the
    /// vblank feedback is derived from (Max uses a 240 Hz display, a fixed
    /// target uses a display at that rate), and `cc` is the low-pass
    /// constant.
    Rvs {
        /// The QoS goal.
        goal: FpsGoal,
        /// The empirically tuned low-pass filter constant.
        cc: f64,
    },
    /// OnDemand Rendering.
    Odr {
        /// The QoS goal.
        goal: FpsGoal,
        /// Mechanism options/ablations.
        options: OdrOptions,
    },
}

impl RegulationSpec {
    /// The paper's default `cc` scaling for RVS (10 ms feedback → ~3 ms
    /// delay in the Figure 5c example).
    pub(crate) const DEFAULT_CC: f64 = 0.3;

    /// The refresh rate of the paper's "current high-end display" used for
    /// RVSMax.
    pub(crate) const RVS_MAX_REFRESH_HZ: f64 = 240.0;

    /// Convenience constructor: `Interval(Target(fps))`.
    #[must_use]
    pub fn interval(fps: f64) -> Self {
        RegulationSpec::Interval(FpsGoal::Target(fps))
    }

    /// Convenience constructor: RVS with the default `cc`.
    #[must_use]
    pub fn rvs(goal: FpsGoal) -> Self {
        RegulationSpec::Rvs {
            goal,
            cc: Self::DEFAULT_CC,
        }
    }

    /// Convenience constructor: ODR with default options.
    #[must_use]
    pub fn odr(goal: FpsGoal) -> Self {
        RegulationSpec::Odr {
            goal,
            options: OdrOptions::default(),
        }
    }

    /// Convenience constructor: ODR without PriorityFrame (Table 2's
    /// "ODRMax-noPri").
    #[must_use]
    pub fn odr_no_priority(goal: FpsGoal) -> Self {
        RegulationSpec::Odr {
            goal,
            options: OdrOptions {
                priority_frames: false,
                ..OdrOptions::default()
            },
        }
    }

    /// The QoS goal of this configuration ([`FpsGoal::Max`] for NoReg).
    #[must_use]
    pub fn goal(&self) -> FpsGoal {
        match *self {
            RegulationSpec::NoReg => FpsGoal::Max,
            RegulationSpec::Interval(g)
            | RegulationSpec::Rvs { goal: g, .. }
            | RegulationSpec::Odr { goal: g, .. } => g,
        }
    }

    /// The display refresh rate RVS derives vblanks from under this spec's
    /// goal.
    #[must_use]
    pub(crate) fn rvs_refresh_hz(goal: FpsGoal) -> f64 {
        match goal {
            FpsGoal::Max => Self::RVS_MAX_REFRESH_HZ,
            FpsGoal::Target(f) => f,
        }
    }

    /// The paper's label for this configuration.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            RegulationSpec::NoReg => "NoReg".to_owned(),
            RegulationSpec::Interval(g) => format!("Int{}", g.suffix()),
            RegulationSpec::Rvs { goal, .. } => format!("RVS{}", goal.suffix()),
            RegulationSpec::Odr { goal, options } => {
                let mut label = format!("ODR{}", goal.suffix());
                if !options.priority_frames {
                    label.push_str("-noPri");
                }
                if !options.accelerate {
                    label.push_str("-noAcc");
                }
                if !options.blocking_buffers {
                    label.push_str("-noBlk");
                }
                if options.buffer_depth != 1 {
                    label.push_str(&format!("-d{}", options.buffer_depth));
                }
                label
            }
        }
    }

    /// The seven main-evaluation configurations for a given FPS target
    /// (Section 6.1: NoReg + {Int, RVS, ODR} × {Max, target}).
    #[must_use]
    pub fn evaluation_set(target_fps: f64) -> Vec<RegulationSpec> {
        vec![
            RegulationSpec::NoReg,
            RegulationSpec::Interval(FpsGoal::Max),
            RegulationSpec::rvs(FpsGoal::Max),
            RegulationSpec::odr(FpsGoal::Max),
            RegulationSpec::interval(target_fps),
            RegulationSpec::rvs(FpsGoal::Target(target_fps)),
            RegulationSpec::odr(FpsGoal::Target(target_fps)),
        ]
    }
}

impl fmt::Display for RegulationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(RegulationSpec::NoReg.label(), "NoReg");
        assert_eq!(RegulationSpec::interval(60.0).label(), "Int60");
        assert_eq!(RegulationSpec::Interval(FpsGoal::Max).label(), "IntMax");
        assert_eq!(RegulationSpec::rvs(FpsGoal::Target(30.0)).label(), "RVS30");
        assert_eq!(RegulationSpec::odr(FpsGoal::Max).label(), "ODRMax");
        assert_eq!(
            RegulationSpec::odr_no_priority(FpsGoal::Max).label(),
            "ODRMax-noPri"
        );
    }

    #[test]
    fn ablation_labels() {
        let spec = RegulationSpec::Odr {
            goal: FpsGoal::Target(60.0),
            options: OdrOptions {
                accelerate: false,
                ..OdrOptions::default()
            },
        };
        assert_eq!(spec.label(), "ODR60-noAcc");
        let spec = RegulationSpec::Odr {
            goal: FpsGoal::Max,
            options: OdrOptions {
                blocking_buffers: false,
                ..OdrOptions::default()
            },
        };
        assert_eq!(spec.label(), "ODRMax-noBlk");
        let spec = RegulationSpec::Odr {
            goal: FpsGoal::Max,
            options: OdrOptions {
                buffer_depth: 4,
                ..OdrOptions::default()
            },
        };
        assert_eq!(spec.label(), "ODRMax-d4");
    }

    #[test]
    fn evaluation_set_has_seven_configs() {
        let set = RegulationSpec::evaluation_set(60.0);
        assert_eq!(set.len(), 7);
        let labels: Vec<String> = set.iter().map(RegulationSpec::label).collect();
        assert_eq!(
            labels,
            ["NoReg", "IntMax", "RVSMax", "ODRMax", "Int60", "RVS60", "ODR60"]
        );
    }

    #[test]
    fn rvs_refresh_selection() {
        assert_eq!(RegulationSpec::rvs_refresh_hz(FpsGoal::Max), 240.0);
        assert_eq!(RegulationSpec::rvs_refresh_hz(FpsGoal::Target(60.0)), 60.0);
    }

    #[test]
    fn goal_extraction() {
        assert_eq!(RegulationSpec::NoReg.goal(), FpsGoal::Max);
        assert_eq!(RegulationSpec::interval(30.0).goal(), FpsGoal::Target(30.0));
        assert_eq!(FpsGoal::Target(60.0).target(), Some(60.0));
        assert_eq!(FpsGoal::Max.target(), None);
    }
}
