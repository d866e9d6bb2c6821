//! CSV export of per-frame traces and report summaries, for plotting the
//! figures with external tools.

use std::fmt::Write as _;

use crate::{frame::FrameTrace, report::Report};

/// Serialises frame traces as CSV with one row per frame:
/// `id,priority,dropped,render_ms,copy_ms,encode_ms,transmit_ms,decode_ms,size_bytes`.
///
/// Stages the frame never reached are empty fields.
#[must_use]
pub fn traces_to_csv(traces: &[FrameTrace]) -> String {
    let mut out = String::from(
        "id,priority,dropped,render_ms,copy_ms,encode_ms,transmit_ms,decode_ms,size_bytes\n",
    );
    for t in traces {
        let cell = |v: Option<f64>| v.map(|x| format!("{x:.4}")).unwrap_or_default();
        let copy_ms = t.copy.map(|(s, e)| (e - s).as_secs_f64() * 1e3);
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            t.id,
            u8::from(t.priority),
            u8::from(t.dropped),
            cell(t.render_ms()),
            cell(copy_ms),
            cell(t.encode_ms()),
            cell(t.transmit_ms()),
            cell(t.decode_ms()),
            t.size
        );
    }
    out
}

/// Serialises a set of reports as one CSV row each (the columns of the
/// paper's summary figures).
#[must_use]
pub fn reports_to_csv(reports: &[Report]) -> String {
    let mut out = String::from(
        "label,render_fps,encode_fps,client_fps,fps_gap_avg,fps_gap_max,mtp_mean_ms,\
         mtp_p99_ms,target_satisfaction,pacing_cv,stutter_rate,miss_rate_pct,\
         read_time_ns,ipc,power_w,net_goodput_mbps,frames_dropped\n",
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4},{:.4},{:.3},{:.3},{:.4},{:.3},{:.3},{}",
            r.label.replace(',', ";"),
            r.render_fps,
            r.encode_fps,
            r.client_fps,
            r.fps_gap_avg,
            r.fps_gap_max,
            r.mtp_stats.mean,
            r.mtp_stats.p99,
            r.target_satisfaction,
            r.pacing_cv,
            r.stutter_rate,
            r.memory.miss_rate_pct,
            r.memory.read_time_ns,
            r.memory.ipc,
            r.memory.power_w,
            r.net_goodput_mbps,
            r.frames_dropped
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_experiment, ExperimentConfig};
    use odr_core::{FpsGoal, RegulationSpec};
    use odr_simtime::Duration;
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    fn traced_report() -> Report {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        run_experiment(
            &ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
                .duration(Duration::from_secs(5))
                .trace(true)
                .build(),
        )
    }

    #[test]
    fn trace_csv_has_one_row_per_frame() {
        let report = traced_report();
        let csv = traces_to_csv(&report.traces);
        assert_eq!(csv.lines().count(), report.traces.len() + 1);
        let header = csv.lines().next().expect("header");
        assert_eq!(header.split(',').count(), 9);
        // Every data row has the same arity.
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 9, "bad row: {line}");
        }
    }

    #[test]
    fn dropped_frames_have_empty_decode_cells() {
        let report = traced_report();
        let csv = traces_to_csv(&report.traces);
        let dropped_rows: Vec<&str> = csv
            .lines()
            .skip(1)
            .filter(|l| l.split(',').nth(2) == Some("1"))
            .collect();
        assert!(
            !dropped_rows.is_empty(),
            "ODR with priority frames drops frames"
        );
        for row in dropped_rows {
            let decode = row.split(',').nth(7).expect("decode column");
            assert!(decode.is_empty(), "dropped frame decoded: {row}");
        }
    }

    #[test]
    fn report_csv_roundtrips_key_numbers() {
        let report = traced_report();
        let csv = reports_to_csv(std::slice::from_ref(&report));
        assert_eq!(csv.lines().count(), 2);
        let row = csv.lines().nth(1).expect("row");
        let client: f64 = row.split(',').nth(3).expect("col").parse().expect("f64");
        assert!((client - report.client_fps).abs() < 1e-3);
    }
}
