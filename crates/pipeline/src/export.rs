//! CSV export of per-frame traces, for plotting Figures 4 and 5 with
//! external tools.

use std::fmt::Write as _;

use crate::frame::FrameTrace;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_experiment, ExperimentConfig};
    use odr_core::{FpsGoal, RegulationSpec};
    use odr_simtime::Duration;
    use odr_workload::{Benchmark, Platform, Resolution, Scenario};

    #[test]
    fn trace_csv_has_one_row_per_frame_and_no_dropped_frame_decoded() {
        let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
        let report = run_experiment(
            &ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
                .duration(Duration::from_secs(5))
                .obs(true)
                .build(),
        );
        let csv = traces_to_csv(&report.traces);
        assert_eq!(csv.lines().count(), report.traces.len() + 1);
        let mut dropped = 0;
        // The header and every data row have the same arity.
        for line in csv.lines() {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), 9, "bad row: {line}");
            if cells[2] == "1" {
                assert!(cells[7].is_empty(), "dropped frame decoded: {line}");
                dropped += 1;
            }
        }
        assert!(dropped > 0, "ODR with priority frames drops frames");
    }
}
