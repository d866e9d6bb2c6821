//! Full-grid experiments: Table 2 and Figures 9–13.

use odr_core::{FpsGoal, RegulationSpec};
use odr_pipeline::run_suite;
use odr_pipeline::suite::{Group, SuiteResult};
use odr_workload::{Benchmark, Platform, Resolution};

use crate::{pad, Settings};

/// Runs the paper's full evaluation grid once: 4 platform×resolution
/// groups × 6 benchmarks × (7 standard configurations + ODRMax-noPri).
///
/// Expensive — run it once and feed the result to every `fig*`/`tab*`
/// renderer below.
#[must_use]
pub fn run_full_suite(settings: &Settings) -> SuiteResult {
    run_suite(
        &Benchmark::ALL,
        &Group::ALL,
        &[RegulationSpec::odr_no_priority(FpsGoal::Max)],
        settings.duration,
        settings.seed,
    )
}

/// Table 2 — average / maximum FPS gaps for each configuration, with the
/// benchmark exhibiting the largest gap.
#[must_use]
pub fn tab02_fps_gaps(suite: &SuiteResult) -> String {
    let groups = [
        ("720p Priv Cloud", vec![Group::ALL[0]]),
        ("720p GCE", vec![Group::ALL[1]]),
        ("1080p GCE", vec![Group::ALL[3]]),
    ];
    // Paper row labels; per-group the numeric target differs.
    type LabelOf = fn(Group) -> String;
    let rows: [(&str, LabelOf); 8] = [
        ("NoReg", |_| "NoReg".to_owned()),
        ("IntMax", |_| "IntMax".to_owned()),
        ("RVSMax", |_| "RVSMax".to_owned()),
        ("ODRMax-noPri", |_| "ODRMax-noPri".to_owned()),
        ("ODRMax", |_| "ODRMax".to_owned()),
        ("Int60 or Int30", |g| {
            format!("Int{:.0}", g.resolution.fps_target())
        }),
        ("RVS60 or RVS30", |g| {
            format!("RVS{:.0}", g.resolution.fps_target())
        }),
        ("ODR60 or ODR30", |g| {
            format!("ODR{:.0}", g.resolution.fps_target())
        }),
    ];

    let mut out = String::from("Table 2: average/max FPS gaps (worst benchmark in parens)\n");
    out.push_str(&pad("config", 16));
    for (name, _) in &groups {
        out.push_str(&pad(name, 22));
    }
    out.push('\n');
    for (row_name, label_of) in rows {
        out.push_str(&pad(row_name, 16));
        for (_, group_list) in &groups {
            let group = group_list[0];
            let cell = match suite.gap_row(group_list, &label_of(group)) {
                Some((avg, max, bench)) => {
                    format!("{avg:.1}/{max:.1} ({})", bench.short())
                }
                None => "-".to_owned(),
            };
            out.push_str(&pad(&cell, 22));
        }
        out.push('\n');
    }
    out
}

/// Figure 9a — average client FPS per group and configuration, plus the
/// overall averages.
#[must_use]
pub fn fig09a_client_fps(suite: &SuiteResult) -> String {
    render_group_table(suite, "Figure 9a: average client FPS", |s, g, label| {
        s.mean_client_fps(g, label)
    })
}

/// Figure 9b — average MtP latency per group and configuration.
#[must_use]
pub fn fig09b_mtp(suite: &SuiteResult) -> String {
    render_group_table(
        suite,
        "Figure 9b: average MtP latency (ms)",
        |s, g, label| s.mean_mtp_ms(g, label),
    )
}

fn render_group_table(
    suite: &SuiteResult,
    title: &str,
    value: impl Fn(&SuiteResult, Group, &str) -> f64,
) -> String {
    // Rows are the generic labels; resolve per group.
    let rows = [
        "NoReg", "IntMax", "RVSMax", "ODRMax", "Int*", "RVS*", "ODR*",
    ];
    let mut out = format!("{title}\n");
    out.push_str(&pad("config", 10));
    for g in Group::ALL {
        out.push_str(&pad(&g.label(), 11));
    }
    out.push_str("OverallAvg\n");
    for row in rows {
        out.push_str(&pad(row, 10));
        let mut sum = 0.0;
        for g in Group::ALL {
            let label = resolve_label(row, g);
            let v = value(suite, g, &label);
            sum += v;
            out.push_str(&pad(&format!("{v:.1}"), 11));
        }
        out.push_str(&format!("{:.1}\n", sum / Group::ALL.len() as f64));
    }
    out
}

/// Expands `Int*`/`RVS*`/`ODR*` to the group's target label.
fn resolve_label(row: &str, group: Group) -> String {
    if let Some(prefix) = row.strip_suffix('*') {
        format!("{prefix}{:.0}", group.resolution.fps_target())
    } else {
        row.to_owned()
    }
}

/// Figure 10 — detailed client FPS per benchmark: mean with 1st and 99th
/// percentile tails, for the three groups the paper details.
#[must_use]
pub fn fig10_fps_detail(suite: &SuiteResult) -> String {
    detail_table(
        suite,
        "Figure 10: client FPS per benchmark — mean (p1..p99)",
        |run| {
            let b = run.report.client_fps_stats;
            format!("{:.0} ({:.0}..{:.0})", b.mean, b.p1, b.p99)
        },
    )
}

/// Figure 11 — detailed MtP latency per benchmark: mean with 99th
/// percentile tail.
#[must_use]
pub fn fig11_mtp_detail(suite: &SuiteResult) -> String {
    detail_table(
        suite,
        "Figure 11: MtP latency per benchmark — mean (p99) ms",
        |run| {
            let b = run.report.mtp_stats;
            format!("{:.0} ({:.0})", b.mean, b.p99)
        },
    )
}

fn detail_table(
    suite: &SuiteResult,
    title: &str,
    cell: impl Fn(&odr_pipeline::suite::SuiteRun) -> String,
) -> String {
    let groups = [Group::ALL[0], Group::ALL[1], Group::ALL[3]]; // Priv720p, GCE720p, GCE1080p
    let mut out = format!("{title}\n");
    for group in groups {
        out.push_str(&format!("--- {} ---\n", group.label()));
        let labels: Vec<String> = group.specs().iter().map(RegulationSpec::label).collect();
        out.push_str(&pad("bench", 7));
        for label in &labels {
            out.push_str(&pad(label, 15));
        }
        out.push('\n');
        for bench in Benchmark::ALL {
            out.push_str(&pad(bench.short(), 7));
            for label in &labels {
                let text = suite
                    .get(bench, group, label)
                    .map(&cell)
                    .unwrap_or_else(|| "-".to_owned());
                out.push_str(&pad(&text, 15));
            }
            out.push('\n');
        }
    }
    out
}

/// Figure 12 — memory efficiency per benchmark (720p private cloud): IPC,
/// DRAM row-buffer miss rate, normalised DRAM read time.
#[must_use]
pub fn fig12_memory(suite: &SuiteResult) -> String {
    let group = Group {
        platform: Platform::PrivateCloud,
        resolution: Resolution::R720p,
    };
    let labels = [
        "NoReg", "IntMax", "RVSMax", "ODRMax", "Int60", "RVS60", "ODR60",
    ];
    let mut out = String::from(
        "Figure 12: memory efficiency, 720p private cloud\n(per cell: IPC / miss% / norm. read time)\n",
    );
    out.push_str(&pad("bench", 7));
    for label in labels {
        out.push_str(&pad(label, 18));
    }
    out.push('\n');
    for bench in Benchmark::ALL {
        let noreg_read = suite
            .get(bench, group, "NoReg")
            .map(|r| r.report.memory.read_time_ns)
            .unwrap_or(1.0);
        out.push_str(&pad(bench.short(), 7));
        for label in labels {
            let cell = suite
                .get(bench, group, label)
                .map(|r| {
                    let m = r.report.memory;
                    format!(
                        "{:.2}/{:.0}%/{:.2}",
                        m.ipc,
                        m.miss_rate_pct,
                        m.read_time_ns / noreg_read
                    )
                })
                .unwrap_or_else(|| "-".to_owned());
            out.push_str(&pad(&cell, 18));
        }
        out.push('\n');
    }
    // The Section 6.6 summary averages.
    let avg = |label: &str, f: &dyn Fn(&odr_pipeline::Report) -> f64| -> f64 {
        let runs = suite.group_runs(group, label);
        runs.iter().map(|r| f(&r.report)).sum::<f64>() / runs.len().max(1) as f64
    };
    let ipc_gain = (avg("ODRMax", &|r| r.memory.ipc) + avg("ODR60", &|r| r.memory.ipc))
        / 2.0
        / avg("NoReg", &|r| r.memory.ipc)
        - 1.0;
    let read_cut = 1.0
        - (avg("ODRMax", &|r| r.memory.read_time_ns) + avg("ODR60", &|r| r.memory.read_time_ns))
            / 2.0
            / avg("NoReg", &|r| r.memory.read_time_ns);
    out.push_str(&format!(
        "ODR vs NoReg: IPC {:+.1}%, DRAM read time {:+.1}%\n",
        ipc_gain * 100.0,
        -read_cut * 100.0
    ));
    out
}

/// Figure 13 — wall power per benchmark (720p private cloud).
#[must_use]
pub fn fig13_power(suite: &SuiteResult) -> String {
    let group = Group {
        platform: Platform::PrivateCloud,
        resolution: Resolution::R720p,
    };
    let labels = [
        "NoReg", "IntMax", "RVSMax", "ODRMax", "Int60", "RVS60", "ODR60",
    ];
    let mut out = String::from("Figure 13: wall power (W), 720p private cloud\n");
    out.push_str(&pad("bench", 7));
    for label in labels {
        out.push_str(&pad(label, 9));
    }
    out.push('\n');
    let mut sums = vec![0.0f64; labels.len()];
    for bench in Benchmark::ALL {
        out.push_str(&pad(bench.short(), 7));
        for (i, label) in labels.iter().enumerate() {
            let w = suite
                .get(bench, group, label)
                .map(|r| r.report.memory.power_w)
                .unwrap_or(0.0);
            sums[i] += w;
            out.push_str(&pad(&format!("{w:.0}"), 9));
        }
        out.push('\n');
    }
    out.push_str(&pad("AVG", 7));
    for s in &sums {
        out.push_str(&pad(&format!("{:.0}", s / Benchmark::ALL.len() as f64), 9));
    }
    out.push('\n');
    let noreg = sums[0];
    let odrmax = sums[3];
    let odr_t = sums[6];
    out.push_str(&format!(
        "ODRMax saves {:.1}% power vs NoReg; ODR60 saves {:.1}%\n",
        (1.0 - odrmax / noreg) * 100.0,
        (1.0 - odr_t / noreg) * 100.0
    ));
    out
}

/// Extension — server consolidation: sessions per server at each QoS
/// target, from the mean-field co-location model (validated against the
/// DES in `odr-pipeline`).
#[must_use]
pub fn capacity_table() -> String {
    use odr_pipeline::colocation::{ColocationModel, ServerCapacity};
    let mut out = String::from(
        "Extension: sessions per server (mean-field co-location, 720p private cloud)
",
    );
    out.push_str(
        "bench   @30fps  @60fps  @90fps  (NoReg-equivalent: 0 — flat-out rendering)
",
    );
    for bench in Benchmark::ALL {
        let scenario =
            odr_workload::Scenario::new(bench, Resolution::R720p, Platform::PrivateCloud);
        let cap = |target: f64| {
            ColocationModel::new(scenario, target, ServerCapacity::default()).capacity_sessions(32)
        };
        out.push_str(&format!(
            "{} {:>6} {:>7} {:>7}
",
            pad(bench.short(), 7),
            cap(30.0),
            cap(60.0),
            cap(90.0)
        ));
    }
    out
}

/// Section 6.6's bandwidth note: ODR's downlink usage band.
#[must_use]
pub fn bandwidth_note(suite: &SuiteResult) -> String {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for run in &suite.runs {
        if run.spec.label().starts_with("ODR") {
            let mbps = run.report.net_goodput_mbps;
            lo = lo.min(mbps);
            hi = hi.max(mbps);
        }
    }
    format!("ODR network bandwidth usage: {lo:.0}–{hi:.0} Mb/s across configurations\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_simtime::Duration;

    fn tiny_suite() -> SuiteResult {
        // One group, one benchmark keeps the test fast.
        run_suite(
            &[Benchmark::InMind],
            &[Group::ALL[0]],
            &[RegulationSpec::odr_no_priority(FpsGoal::Max)],
            Duration::from_secs(6),
            1,
        )
    }

    #[test]
    fn tab02_renders_all_rows() {
        let suite = tiny_suite();
        let text = tab02_fps_gaps(&suite);
        assert!(text.contains("NoReg"));
        assert!(text.contains("ODRMax-noPri"));
        assert!(text.contains("(IM)"));
    }

    #[test]
    fn fig09_has_overall_column() {
        let suite = tiny_suite();
        let text = fig09a_client_fps(&suite);
        assert!(text.contains("OverallAvg"));
        assert_eq!(text.lines().count(), 2 + 7);
    }

    #[test]
    fn fig10_contains_benchmarks() {
        let suite = tiny_suite();
        let text = fig10_fps_detail(&suite);
        assert!(text.contains("IM"));
        assert!(text.contains("Priv720p"));
    }

    #[test]
    fn fig13_reports_savings() {
        let suite = tiny_suite();
        let text = fig13_power(&suite);
        assert!(text.contains("saves"));
    }

    #[test]
    fn resolve_label_expands_targets() {
        let g720 = Group {
            platform: Platform::PrivateCloud,
            resolution: Resolution::R720p,
        };
        let g1080 = Group {
            platform: Platform::Gce,
            resolution: Resolution::R1080p,
        };
        assert_eq!(resolve_label("ODR*", g720), "ODR60");
        assert_eq!(resolve_label("Int*", g1080), "Int30");
        assert_eq!(resolve_label("NoReg", g720), "NoReg");
    }
}
