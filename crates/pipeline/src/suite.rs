//! Batch experiment execution over the paper's evaluation grid.

use odr_core::RegulationSpec;
use odr_simtime::Duration;
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

use crate::{config::ExperimentConfig, report::Report, sim::run_experiment};

/// A platform × resolution evaluation group, as the paper's figures label
/// them ("Priv720p", "GCE720p", "Priv1080p", "GCE1080p").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Group {
    /// Deployment platform.
    pub platform: Platform,
    /// Output resolution.
    pub resolution: Resolution,
}

impl Group {
    /// The four groups of the main evaluation, in the paper's order.
    pub const ALL: [Group; 4] = [
        Group {
            platform: Platform::PrivateCloud,
            resolution: Resolution::R720p,
        },
        Group {
            platform: Platform::Gce,
            resolution: Resolution::R720p,
        },
        Group {
            platform: Platform::PrivateCloud,
            resolution: Resolution::R1080p,
        },
        Group {
            platform: Platform::Gce,
            resolution: Resolution::R1080p,
        },
    ];

    /// The paper's group label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}{}", self.platform.label(), self.resolution.label())
    }

    /// The regulation configurations evaluated in this group (7 per group;
    /// target is 60 FPS at 720p, 30 FPS at 1080p).
    #[must_use]
    pub fn specs(&self) -> Vec<RegulationSpec> {
        RegulationSpec::evaluation_set(self.resolution.fps_target())
    }
}

/// One completed run within a suite.
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The evaluation group.
    pub group: Group,
    /// The regulation configuration.
    pub spec: RegulationSpec,
    /// The measured report.
    pub report: Report,
}

/// Results of a full evaluation sweep.
#[derive(Clone, Debug, Default)]
pub struct SuiteResult {
    /// All completed runs.
    pub runs: Vec<SuiteRun>,
}

impl SuiteResult {
    /// Finds the run for a benchmark/group/spec combination.
    #[must_use]
    pub fn get(&self, benchmark: Benchmark, group: Group, label: &str) -> Option<&SuiteRun> {
        self.runs
            .iter()
            .find(|r| r.benchmark == benchmark && r.group == group && r.spec.label() == label)
    }

    /// All runs of one group with a given spec label, in benchmark order.
    #[must_use]
    pub fn group_runs(&self, group: Group, label: &str) -> Vec<&SuiteRun> {
        self.runs
            .iter()
            .filter(|r| r.group == group && r.spec.label() == label)
            .collect()
    }

    /// Mean client FPS over the six benchmarks of a group under one spec.
    #[must_use]
    pub fn mean_client_fps(&self, group: Group, label: &str) -> f64 {
        mean(
            self.group_runs(group, label)
                .iter()
                .map(|r| r.report.client_fps),
        )
    }

    /// Mean MtP latency (ms) over the six benchmarks of a group.
    #[must_use]
    pub fn mean_mtp_ms(&self, group: Group, label: &str) -> f64 {
        mean(
            self.group_runs(group, label)
                .iter()
                .map(|r| r.report.mtp_stats.mean),
        )
    }

    /// Average FPS gap over a set of groups, with the per-run maximum and
    /// the benchmark exhibiting it (Table 2 rows).
    #[must_use]
    pub fn gap_row(&self, groups: &[Group], label: &str) -> Option<(f64, f64, Benchmark)> {
        let mut runs = Vec::new();
        for g in groups {
            runs.extend(self.group_runs(*g, label));
        }
        if runs.is_empty() {
            return None;
        }
        let avg = mean(runs.iter().map(|r| r.report.fps_gap_avg));
        let worst = runs
            .iter()
            .max_by(|a, b| a.report.fps_gap_max.total_cmp(&b.report.fps_gap_max))?;
        Some((avg, worst.report.fps_gap_max, worst.benchmark))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Runs the given benchmarks × groups × specs grid.
#[must_use]
pub fn run_suite(
    benchmarks: &[Benchmark],
    groups: &[Group],
    extra_specs: &[RegulationSpec],
    duration: Duration,
    seed: u64,
) -> SuiteResult {
    let mut result = SuiteResult::default();
    for &group in groups {
        let mut specs = group.specs();
        specs.extend_from_slice(extra_specs);
        for &benchmark in benchmarks {
            let scenario = Scenario::new(benchmark, group.resolution, group.platform);
            for &spec in &specs {
                let cfg = ExperimentConfig::builder(scenario, spec)
                    .duration(duration)
                    .seed(seed ^ scenario.stream_id())
                    .build();
                let report = run_experiment(&cfg);
                result.runs.push(SuiteRun {
                    benchmark,
                    group,
                    spec,
                    report,
                });
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_core::FpsGoal;

    #[test]
    fn group_labels_match_paper() {
        let labels: Vec<String> = Group::ALL.iter().map(Group::label).collect();
        assert_eq!(labels, ["Priv720p", "GCE720p", "Priv1080p", "GCE1080p"]);
    }

    #[test]
    fn group_specs_use_resolution_target() {
        let g720 = Group {
            platform: Platform::PrivateCloud,
            resolution: Resolution::R720p,
        };
        assert!(g720.specs().iter().any(|s| s.label() == "ODR60"));
        let g1080 = Group {
            platform: Platform::Gce,
            resolution: Resolution::R1080p,
        };
        assert!(g1080.specs().iter().any(|s| s.label() == "ODR30"));
    }

    #[test]
    fn small_suite_runs_and_queries() {
        let group = Group {
            platform: Platform::PrivateCloud,
            resolution: Resolution::R720p,
        };
        let result = run_suite(
            &[Benchmark::InMind],
            &[group],
            &[RegulationSpec::odr_no_priority(FpsGoal::Max)],
            Duration::from_secs(10),
            42,
        );
        // 7 standard specs + 1 extra.
        assert_eq!(result.runs.len(), 8);
        assert!(result.get(Benchmark::InMind, group, "NoReg").is_some());
        assert!(result
            .get(Benchmark::InMind, group, "ODRMax-noPri")
            .is_some());
        let noreg = result.mean_client_fps(group, "NoReg");
        assert!(noreg > 0.0);
        let (avg, max, bench) = result.gap_row(&[group], "NoReg").expect("row");
        assert!(avg > 0.0 && max >= avg);
        assert_eq!(bench, Benchmark::InMind);
    }
}
