//! The user-experience study: Figures 14 and 15.
//!
//! Section 6.7: 30 participants, 1080p on GCE, under NonCloud (local
//! execution), NoReg, and the Max/30 variants of Int, RVS, and ODR.

use odr_core::{FpsGoal, RegulationSpec};
use odr_pipeline::{run_experiment, ExperimentConfig};
use odr_qoe::{Panel, PanelResult, QoeSample};
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

use crate::{pad, Settings};

/// The eight configurations of the user study, in Figure 14's order.
/// `None` marks the local (NonCloud) execution.
#[must_use]
pub(crate) fn study_configs() -> Vec<(String, Option<RegulationSpec>)> {
    vec![
        ("NonCloud".to_owned(), None),
        ("NoReg".to_owned(), Some(RegulationSpec::NoReg)),
        (
            "IntMax".to_owned(),
            Some(RegulationSpec::Interval(FpsGoal::Max)),
        ),
        ("RVSMax".to_owned(), Some(RegulationSpec::rvs(FpsGoal::Max))),
        ("ODRMax".to_owned(), Some(RegulationSpec::odr(FpsGoal::Max))),
        ("Int30".to_owned(), Some(RegulationSpec::interval(30.0))),
        (
            "RVS30".to_owned(),
            Some(RegulationSpec::rvs(FpsGoal::Target(30.0))),
        ),
        (
            "ODR30".to_owned(),
            Some(RegulationSpec::odr(FpsGoal::Target(30.0))),
        ),
    ]
}

/// Runs one study configuration for one participant-assigned benchmark and
/// returns its QoS sample.
fn qos_sample(
    settings: &Settings,
    benchmark: Benchmark,
    spec: Option<RegulationSpec>,
) -> QoeSample {
    let (platform, spec) = match spec {
        Some(s) => (Platform::Gce, s),
        None => (Platform::NonCloud, RegulationSpec::NoReg),
    };
    let scenario = Scenario::new(benchmark, Resolution::R1080p, platform);
    let cfg = ExperimentConfig::builder(scenario, spec)
        .duration(settings.duration)
        .seed(settings.seed)
        .build();
    let r = run_experiment(&cfg);
    QoeSample {
        client_fps: r.client_fps,
        fps_p1: r.client_fps_stats.p1,
        mtp_mean_ms: r.mtp_stats.mean,
        mtp_p99_ms: r.mtp_stats.p99,
        pacing_cv: r.pacing_cv,
        stutter_rate: r.stutter_rate,
    }
}

/// Evaluates the panel on every study configuration. Each participant
/// plays a randomly assigned benchmark, as in the paper; we aggregate by
/// averaging the per-benchmark QoS before the panel evaluation.
#[must_use]
pub fn run_study(settings: &Settings) -> Vec<(String, PanelResult)> {
    let panel = Panel::new(30, settings.seed);
    study_configs()
        .into_iter()
        .map(|(label, spec)| {
            // Average QoS across the benchmarks participants could draw.
            let samples: Vec<QoeSample> = Benchmark::ALL
                .iter()
                .map(|&b| qos_sample(settings, b, spec))
                .collect();
            let n = samples.len() as f64;
            let merged = QoeSample {
                client_fps: samples.iter().map(|s| s.client_fps).sum::<f64>() / n,
                fps_p1: samples.iter().map(|s| s.fps_p1).sum::<f64>() / n,
                mtp_mean_ms: samples.iter().map(|s| s.mtp_mean_ms).sum::<f64>() / n,
                mtp_p99_ms: samples.iter().map(|s| s.mtp_p99_ms).sum::<f64>() / n,
                pacing_cv: samples.iter().map(|s| s.pacing_cv).sum::<f64>() / n,
                stutter_rate: samples.iter().map(|s| s.stutter_rate).sum::<f64>() / n,
            };
            (label, panel.evaluate(&merged))
        })
        .collect()
}

/// Figure 14 — average user ratings per configuration.
#[must_use]
pub fn fig14_ratings(results: &[(String, PanelResult)]) -> String {
    let mut out = String::from("Figure 14: average user ratings (1-10), 1080p GCE + local\n");
    out.push_str("config     rating\n");
    for (label, res) in results {
        out.push_str(&format!("{:<9} {:>7.2}\n", label, res.mean_rating));
    }
    out
}

/// Figure 15 — participants reporting lag / stutter / tearing.
#[must_use]
pub fn fig15_artifacts(results: &[(String, PanelResult)]) -> String {
    let mut out = String::from("Figure 15: participant reports (yes/maybe/no out of 30)\n");
    out.push_str(&pad("config", 10));
    out.push_str(&format!(
        "{:<14}{:<14}{:<14}\n",
        "lags?", "stutter?", "tearing?"
    ));
    for (label, res) in results {
        out.push_str(&pad(label, 10));
        for counts in [res.lag, res.stutter, res.tearing] {
            out.push_str(&pad(&format!("{}/{}/{}", counts.0, counts.1, counts.2), 14));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_simtime::Duration;

    #[test]
    fn study_has_eight_configs() {
        assert_eq!(study_configs().len(), 8);
    }

    #[test]
    fn quick_study_orders_odrmax_near_noncloud() {
        let settings = Settings {
            duration: Duration::from_secs(8),
            seed: 11,
        };
        let results = run_study(&settings);
        let rating = |label: &str| -> f64 {
            results
                .iter()
                .find(|(l, _)| l == label)
                .expect("config")
                .1
                .mean_rating
        };
        // The paper's headline ordering.
        assert!(
            rating("NoReg") < rating("ODRMax") - 2.0,
            "NoReg must rate far below ODRMax"
        );
        assert!((rating("NonCloud") - rating("ODRMax")).abs() < 1.5);
        assert!(rating("ODR30") <= rating("ODRMax"));
        let text = fig14_ratings(&results);
        assert!(text.contains("NonCloud"));
        let artifacts = fig15_artifacts(&results);
        assert!(artifacts.contains("lags?"));
    }
}
