//! Single-scenario experiments: Figures 1, 3, 4, 5, 6, 7.
//!
//! These all use InMind at 720p on the private cloud — the configuration
//! Section 4 of the paper analyses — except Figure 1, which adds
//! Red Eclipse.

use odr_core::{FpsGoal, RegulationSpec};
use odr_metrics::Cdf;
use odr_pipeline::{run_experiment, timeline::ascii_timeline, ExperimentConfig, Report};
use odr_simtime::{Duration, SimTime};
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

use crate::Settings;

fn priv720(benchmark: Benchmark) -> Scenario {
    Scenario::new(benchmark, Resolution::R720p, Platform::PrivateCloud)
}

fn run(settings: &Settings, benchmark: Benchmark, spec: RegulationSpec) -> Report {
    let cfg = ExperimentConfig::builder(priv720(benchmark), spec)
        .duration(settings.duration)
        .seed(settings.seed)
        .build();
    run_experiment(&cfg)
}

fn run_traced(settings: &Settings, benchmark: Benchmark, spec: RegulationSpec) -> Report {
    let cfg = ExperimentConfig::builder(priv720(benchmark), spec)
        .duration(settings.duration)
        .seed(settings.seed)
        .trace(true)
        .build();
    run_experiment(&cfg)
}

/// The five regulation configurations of the Section 4 analysis.
#[must_use]
pub(crate) fn section4_specs() -> [RegulationSpec; 5] {
    [
        RegulationSpec::NoReg,
        RegulationSpec::interval(60.0),
        RegulationSpec::Interval(FpsGoal::Max),
        RegulationSpec::rvs(FpsGoal::Target(60.0)),
        RegulationSpec::rvs(FpsGoal::Max),
    ]
}

/// Figure 1 — excessive rendering causes FPS gaps: cloud (rendering) vs
/// client FPS for Red Eclipse and InMind, unregulated.
#[must_use]
pub fn fig01_fps_gap(settings: &Settings) -> String {
    let mut out =
        String::from("Figure 1: cloud vs client FPS, no regulation (720p private cloud)\n");
    out.push_str("benchmark      cloud FPS   client FPS   gap\n");
    for benchmark in [Benchmark::RedEclipse, Benchmark::InMind] {
        let r = run(settings, benchmark, RegulationSpec::NoReg);
        out.push_str(&format!(
            "{:<12} {:>9.1} {:>12.1} {:>5.1}\n",
            benchmark.name(),
            r.render_fps,
            r.client_fps,
            r.fps_gap_avg
        ));
    }
    out
}

/// Figure 3 — InMind's rendering / encoding / decoding FPS under NoReg,
/// Int60, IntMax, RVS60, RVSMax.
#[must_use]
pub fn fig03_regulation_fps(settings: &Settings) -> String {
    let mut out =
        String::from("Figure 3: InMind render/encode/decode FPS per regulation (720p private)\n");
    out.push_str("config    render   encode   decode\n");
    for spec in section4_specs() {
        let r = run(settings, Benchmark::InMind, spec);
        out.push_str(&format!(
            "{:<8} {:>7.1} {:>8.1} {:>8.1}\n",
            spec.label(),
            r.render_fps,
            r.encode_fps,
            r.client_fps
        ));
    }
    out
}

/// Figure 4 — processing-time variation of InMind: CDFs of render, encode,
/// and transmission time (4a) and a 100-frame trace snapshot (4b).
#[must_use]
pub fn fig04_time_variation(settings: &Settings) -> String {
    let r = run_traced(settings, Benchmark::InMind, RegulationSpec::NoReg);
    let render = Cdf::from_samples(r.traces.iter().filter_map(|t| t.render_ms()));
    let encode = Cdf::from_samples(r.traces.iter().filter_map(|t| t.encode_ms()));
    let trans = Cdf::from_samples(r.traces.iter().filter_map(|t| t.transmit_ms()));

    let mut out = String::from("Figure 4a: CDF of InMind frame processing times (NoReg)\n");
    out.push_str("time(ms)   P(render<=t)  P(encode<=t)  P(trans<=t)\n");
    for t in [2.0, 4.0, 8.0, 12.0, 16.6, 25.0, 40.0, 60.0] {
        out.push_str(&format!(
            "{:>7.1} {:>13.3} {:>13.3} {:>12.3}\n",
            t,
            render.fraction_at_or_below(t),
            encode.fraction_at_or_below(t),
            trans.fraction_at_or_below(t)
        ));
    }
    out.push_str(&format!(
        "fraction of renders within one 60 FPS interval (16.6 ms): {:.2}\n",
        render.fraction_at_or_below(16.6)
    ));

    out.push_str("\nFigure 4b: 100-frame trace (ms per stage)\n");
    out.push_str("frame  render  encode   trans\n");
    let start = r.traces.len().saturating_sub(100);
    for t in r.traces.iter().skip(start).take(100).step_by(10) {
        out.push_str(&format!(
            "{:>5} {:>7.2} {:>7.2} {:>7.2}\n",
            t.id,
            t.render_ms().unwrap_or(0.0),
            t.encode_ms().unwrap_or(0.0),
            t.transmit_ms().unwrap_or(0.0)
        ));
    }
    out
}

/// Figure 5 — pipeline timelines: how Int60 drops frames, and how ODR's
/// multi-buffering plus acceleration handles the same workload.
#[must_use]
pub fn fig05_timelines(settings: &Settings) -> String {
    let mut out =
        String::from("Figure 5: pipeline timelines over ~6 intervals (x = dropped frame)\n");
    for spec in [
        RegulationSpec::interval(60.0),
        RegulationSpec::rvs(FpsGoal::Target(60.0)),
        RegulationSpec::odr(FpsGoal::Target(60.0)),
    ] {
        let r = run_traced(settings, Benchmark::InMind, spec);
        // A window shortly after warm-up, six 16.6 ms intervals wide.
        let start = SimTime::from_secs(6);
        let end = start + Duration::from_millis(100);
        out.push_str(&format!("--- {} ---\n", spec.label()));
        out.push_str(&ascii_timeline(&r.traces, start, end, 100));
    }
    out
}

/// Figure 6 — InMind's MtP latency under the Section 4 regulations.
#[must_use]
pub fn fig06_mtp(settings: &Settings) -> String {
    let mut out = String::from("Figure 6: InMind MtP latency (720p private cloud)\n");
    out.push_str("config    mean(ms)   p99(ms)\n");
    for spec in section4_specs() {
        let r = run(settings, Benchmark::InMind, spec);
        out.push_str(&format!(
            "{:<8} {:>9.1} {:>9.1}\n",
            spec.label(),
            r.mtp_stats.mean,
            r.mtp_stats.p99
        ));
    }
    out
}

/// Figure 7 — FPS regulation and DRAM efficiency for InMind: row-buffer
/// miss rate, read access time, IPC.
#[must_use]
pub fn fig07_dram(settings: &Settings) -> String {
    let mut out = String::from("Figure 7: InMind DRAM efficiency (720p private cloud)\n");
    out.push_str("config    miss rate(%)  read time(ns)    IPC\n");
    for spec in section4_specs() {
        let r = run(settings, Benchmark::InMind, spec);
        out.push_str(&format!(
            "{:<8} {:>12.1} {:>14.1} {:>7.3}\n",
            spec.label(),
            r.memory.miss_rate_pct,
            r.memory.read_time_ns,
            r.memory.ipc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Settings {
        Settings::quick()
    }

    #[test]
    fn fig01_shows_gaps_for_both_benchmarks() {
        let text = fig01_fps_gap(&quick());
        assert!(text.contains("Red Eclipse"));
        assert!(text.contains("InMind"));
        // Both rows must show a positive gap.
        for line in text.lines().skip(2) {
            let gap: f64 = line
                .split_whitespace()
                .last()
                .expect("gap")
                .parse()
                .expect("f64");
            assert!(gap > 20.0, "gap too small in: {line}");
        }
    }

    #[test]
    fn fig03_lists_five_configs() {
        let text = fig03_regulation_fps(&quick());
        for label in ["NoReg", "Int60", "IntMax", "RVS60", "RVSMax"] {
            assert!(text.contains(label), "missing {label}:\n{text}");
        }
    }

    #[test]
    fn fig04_cdf_is_monotone() {
        let text = fig04_time_variation(&quick());
        let mut prev = -1.0f64;
        for line in text.lines().skip(2).take(8) {
            let p: f64 = line
                .split_whitespace()
                .nth(1)
                .expect("col")
                .parse()
                .expect("f64");
            assert!(p >= prev);
            prev = p;
        }
        assert!(text.contains("Figure 4b"));
    }

    #[test]
    fn fig05_renders_three_charts() {
        let text = fig05_timelines(&quick());
        assert_eq!(text.matches("Render |").count(), 3);
        assert!(text.contains("ODR60"));
    }

    #[test]
    fn fig06_and_fig07_have_all_rows() {
        let mtp = fig06_mtp(&quick());
        assert_eq!(mtp.lines().count(), 2 + 5);
        let dram = fig07_dram(&quick());
        assert_eq!(dram.lines().count(), 2 + 5);
    }
}
