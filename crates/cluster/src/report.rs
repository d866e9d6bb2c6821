//! The cluster run's mergeable, deterministic report.
//!
//! [`ClusterReport`] follows the same contract as
//! [`odr_fleet::FleetReport`]: every field is either an exact integer, an
//! exactly-mergeable sketch ([`odr_metrics::Cdf`], [`odr_obs::Counters`])
//! or a float folded in a documented order, and
//! [`to_text`](ClusterReport::to_text) renders the same bytes for the
//! same run regardless of worker-thread count. Unlike the fleet report,
//! [`merge`](ClusterReport::merge) here is *exactly* commutative and
//! associative (no raw float adds across shards), which the property
//! suite in `tests/churn_properties.rs` exercises.

use odr_metrics::Cdf;
use odr_obs::Counters;

/// Per-node summary row.
#[derive(Clone, Copy, Debug)]
pub struct NodeRow {
    /// Cluster-wide node id.
    pub id: u32,
    /// Whether fault injection killed the node.
    pub killed: bool,
    /// Sessions ever admitted onto the node.
    pub admitted: u64,
    /// Largest simultaneous resident count.
    pub peak_sessions: u32,
    /// Time-mean resident count over the node's served span.
    pub mean_sessions: f64,
    /// Time-mean shared-GPU load over the served span.
    pub mean_gpu_load: f64,
    /// Time-mean DRAM slowdown over the served span.
    pub mean_slowdown: f64,
    /// Served span in nanoseconds (until the kill or the horizon).
    pub served_ns: u64,
    /// Mean measured client FPS of the node's sub-fleet (0 when the run
    /// skipped measurement or the node served no measurable span).
    pub measured_fps: f64,
}

/// Aggregate outcome of one cluster simulation (or a merge of shards).
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    /// Run label (scenario, mix, node count, placement policy).
    pub label: String,
    /// Nodes simulated.
    pub nodes: u32,
    /// Sessions that arrived.
    pub arrivals: u64,
    /// Sessions admitted onto some node at least once.
    pub admitted: u64,
    /// Sessions that completed their full residency.
    pub completed: u64,
    /// Sessions shed without ever being admitted (rejected outright or
    /// after exhausting retries).
    pub shed: u64,
    /// Placement attempts that failed and were requeued with backoff.
    pub requeues: u64,
    /// Session displacements caused by node kills (one session displaced
    /// by two kills counts twice).
    pub displaced: u64,
    /// Displaced sessions shed because no surviving node could take them.
    pub displaced_shed: u64,
    /// Displaced sessions still waiting for re-placement at the horizon.
    pub displaced_pending: u64,
    /// Fault-injection kills that actually hit an alive node.
    pub node_kills: u64,
    /// Sessions still resident at the horizon.
    pub active_at_end: u64,
    /// Never-admitted sessions still waiting at the horizon.
    pub waiting_at_end: u64,
    /// Residency spans long enough to be measured by a per-node
    /// sub-fleet.
    pub measured_sessions: u64,
    /// Residency spans skipped by measurement (shorter than the minimum
    /// measurable span).
    pub measured_skipped: u64,
    /// Total admitted residency in nanoseconds (every admitted span,
    /// truncated at kills and at the horizon).
    pub served_ns: u64,
    /// SLO-good residency in nanoseconds: served time during which the
    /// session's predicted FPS held the SLO minimum.
    pub goodput_ns: u64,
    /// Admission wait (arrival to first admission) in milliseconds.
    pub wait_ms_cdf: Cdf,
    /// Displacement-to-readmission latency in milliseconds.
    pub displacement_ms_cdf: Cdf,
    /// Residency-time-weighted predicted client FPS distribution (one
    /// sample per placement span).
    pub predicted_fps_cdf: Cdf,
    /// Residency-time-weighted predicted MtP distribution in
    /// milliseconds.
    pub predicted_mtp_cdf: Cdf,
    /// Per-node time-mean GPU load (one sample per node).
    pub node_gpu_cdf: Cdf,
    /// Per-node time-mean resident count (one sample per node).
    pub node_sessions_cdf: Cdf,
    /// Measured client FPS distribution from the per-node sub-fleets
    /// (empty when measurement is off).
    pub measured_fps_cdf: Cdf,
    /// Measured MtP distribution (ms) from the per-node sub-fleets.
    pub measured_mtp_cdf: Cdf,
    /// Measured per-session energy (J) from the per-node sub-fleets.
    pub measured_energy_cdf: Cdf,
    /// Control-plane and sub-fleet observability counters (empty when
    /// capture was off). Not part of the rendered text.
    pub obs: Counters,
    /// Per-node rows, sorted by node id.
    pub per_node: Vec<NodeRow>,
}

impl ClusterReport {
    /// Merges two shard reports into one, as if both shards' nodes and
    /// sessions had run in a single cluster.
    ///
    /// Exactly commutative and associative: integers add, CDFs and
    /// counters merge exactly, the label takes the lexicographic minimum,
    /// and the per-node tables (disjoint by construction — shards own
    /// disjoint id ranges via
    /// [`ClusterConfig::first_node_id`](crate::ClusterConfig::first_node_id))
    /// interleave by id.
    ///
    /// # Panics
    ///
    /// Panics if the two reports share a node id — merging overlapping
    /// shards would double-count capacity.
    #[must_use]
    pub fn merge(&self, other: &ClusterReport) -> ClusterReport {
        let mut merged = self.clone();
        if other.label < merged.label {
            merged.label = other.label.clone();
        }
        merged.nodes += other.nodes;
        merged.arrivals += other.arrivals;
        merged.admitted += other.admitted;
        merged.completed += other.completed;
        merged.shed += other.shed;
        merged.requeues += other.requeues;
        merged.displaced += other.displaced;
        merged.displaced_shed += other.displaced_shed;
        merged.displaced_pending += other.displaced_pending;
        merged.node_kills += other.node_kills;
        merged.active_at_end += other.active_at_end;
        merged.waiting_at_end += other.waiting_at_end;
        merged.measured_sessions += other.measured_sessions;
        merged.measured_skipped += other.measured_skipped;
        merged.served_ns += other.served_ns;
        merged.goodput_ns += other.goodput_ns;
        merged.wait_ms_cdf = self.wait_ms_cdf.merge(&other.wait_ms_cdf);
        merged.displacement_ms_cdf = self.displacement_ms_cdf.merge(&other.displacement_ms_cdf);
        merged.predicted_fps_cdf = self.predicted_fps_cdf.merge(&other.predicted_fps_cdf);
        merged.predicted_mtp_cdf = self.predicted_mtp_cdf.merge(&other.predicted_mtp_cdf);
        merged.node_gpu_cdf = self.node_gpu_cdf.merge(&other.node_gpu_cdf);
        merged.node_sessions_cdf = self.node_sessions_cdf.merge(&other.node_sessions_cdf);
        merged.measured_fps_cdf = self.measured_fps_cdf.merge(&other.measured_fps_cdf);
        merged.measured_mtp_cdf = self.measured_mtp_cdf.merge(&other.measured_mtp_cdf);
        merged.measured_energy_cdf = self.measured_energy_cdf.merge(&other.measured_energy_cdf);
        merged.obs.absorb(&other.obs);
        merged.per_node = merge_rows(&self.per_node, &other.per_node);
        merged
    }

    /// Fraction of arrivals that were admitted at least once (0 when
    /// nothing arrived).
    #[must_use]
    pub(crate) fn admission_rate(&self) -> f64 {
        ratio(self.admitted, self.arrivals)
    }

    /// Fraction of arrivals shed without service.
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed, self.arrivals)
    }

    /// Fraction of served residency that held the SLO (goodput over
    /// served time; 0 when nothing was served).
    #[must_use]
    pub(crate) fn goodput_fraction(&self) -> f64 {
        ratio(self.goodput_ns, self.served_ns)
    }

    /// Renders the report as deterministic plain text: same cluster, same
    /// bytes, regardless of worker-thread count. The CI differential
    /// pipes this through `cmp`.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cluster {} nodes={}", self.label, self.nodes);
        let _ = writeln!(
            out,
            "sessions arrivals={} admitted={} completed={} shed={} waiting={} active={}",
            self.arrivals,
            self.admitted,
            self.completed,
            self.shed,
            self.waiting_at_end,
            self.active_at_end
        );
        let _ = writeln!(
            out,
            "faults kills={} displaced={} displaced_shed={} displaced_pending={} requeues={}",
            self.node_kills,
            self.displaced,
            self.displaced_shed,
            self.displaced_pending,
            self.requeues
        );
        let _ = writeln!(
            out,
            "service admission_rate={:.4} shed_rate={:.4} served_s={:.3} goodput_s={:.3} goodput_frac={:.4}",
            self.admission_rate(),
            self.shed_rate(),
            self.served_ns as f64 / 1e9,
            self.goodput_ns as f64 / 1e9,
            self.goodput_fraction()
        );
        let _ = writeln!(out, "wait_ms      {}", cdf_line(&self.wait_ms_cdf));
        let _ = writeln!(out, "displace_ms  {}", cdf_line(&self.displacement_ms_cdf));
        let _ = writeln!(out, "pred_fps     {}", cdf_line(&self.predicted_fps_cdf));
        let _ = writeln!(out, "pred_mtp_ms  {}", cdf_line(&self.predicted_mtp_cdf));
        let _ = writeln!(out, "node_gpu     {}", cdf_line(&self.node_gpu_cdf));
        let _ = writeln!(out, "node_sess    {}", cdf_line(&self.node_sessions_cdf));
        let _ = writeln!(
            out,
            "measured sessions={} skipped={}",
            self.measured_sessions, self.measured_skipped
        );
        let _ = writeln!(out, "meas_fps     {}", cdf_line(&self.measured_fps_cdf));
        let _ = writeln!(out, "meas_mtp_ms  {}", cdf_line(&self.measured_mtp_cdf));
        let _ = writeln!(out, "meas_energy  {}", cdf_line(&self.measured_energy_cdf));
        for row in &self.per_node {
            let _ = writeln!(
                out,
                "node {:>3} {} admitted={:>4} peak={:>3} mean_sess={:7.3} gpu={:6.4} slowdown={:6.4} served_s={:8.3} meas_fps={:7.3}",
                row.id,
                if row.killed { "dead " } else { "alive" },
                row.admitted,
                row.peak_sessions,
                row.mean_sessions,
                row.mean_gpu_load,
                row.mean_slowdown,
                row.served_ns as f64 / 1e9,
                row.measured_fps
            );
        }
        out
    }
}

/// Interleaves two id-sorted node tables into one.
///
/// # Panics
///
/// Panics on a duplicate node id across the two tables.
fn merge_rows(a: &[NodeRow], b: &[NodeRow]) -> Vec<NodeRow> {
    let mut rows: Vec<NodeRow> = a.iter().chain(b).copied().collect();
    rows.sort_by_key(|r| r.id);
    for pair in rows.windows(2) {
        assert!(
            pair[0].id != pair[1].id,
            "merging cluster shards with overlapping node id {}",
            pair[0].id
        );
    }
    rows
}

/// `num / den` as a fraction, 0 when the denominator is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Formats a CDF's tails and quartiles on one line.
fn cdf_line(cdf: &Cdf) -> String {
    format!(
        "n={:6} p1={:9.3} p25={:9.3} p50={:9.3} p75={:9.3} p99={:9.3}",
        cdf.len(),
        cdf.quantile(0.01),
        cdf.quantile(0.25),
        cdf.quantile(0.50),
        cdf.quantile(0.75),
        cdf.quantile(0.99)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(id: u32, label: &str) -> ClusterReport {
        ClusterReport {
            label: label.to_string(),
            nodes: 1,
            arrivals: 10,
            admitted: 8,
            completed: 6,
            shed: 2,
            requeues: 3,
            served_ns: 40_000_000_000,
            goodput_ns: 30_000_000_000,
            wait_ms_cdf: Cdf::from_samples([0.0, f64::from(id)]),
            predicted_fps_cdf: Cdf::from_samples([55.0 + f64::from(id)]),
            node_gpu_cdf: Cdf::from_samples([0.5]),
            per_node: vec![NodeRow {
                id,
                killed: false,
                admitted: 8,
                peak_sessions: 3,
                mean_sessions: 2.0,
                mean_gpu_load: 0.5,
                mean_slowdown: 1.1,
                served_ns: 60_000_000_000,
                measured_fps: 58.0,
            }],
            ..ClusterReport::default()
        }
    }

    #[test]
    fn merge_is_commutative() {
        let a = shard(0, "a");
        let b = shard(1, "b");
        assert_eq!(a.merge(&b).to_text(), b.merge(&a).to_text());
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (shard(0, "x"), shard(1, "x"), shard(2, "x"));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left.to_text(), right.to_text());
        assert_eq!(left.nodes, 3);
        assert_eq!(left.arrivals, 30);
    }

    #[test]
    fn merge_interleaves_nodes_by_id() {
        let a = shard(2, "x");
        let b = shard(0, "x");
        let ids: Vec<u32> = a.merge(&b).per_node.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "overlapping node id")]
    fn merge_rejects_overlapping_shards() {
        let a = shard(1, "x");
        let _ = a.merge(&a);
    }

    #[test]
    fn rates_handle_empty_reports() {
        let empty = ClusterReport::default();
        assert_eq!(empty.admission_rate(), 0.0);
        assert_eq!(empty.shed_rate(), 0.0);
        assert_eq!(empty.goodput_fraction(), 0.0);
        assert!(empty.to_text().contains("nodes=0"));
    }

    #[test]
    fn to_text_is_stable() {
        let r = shard(0, "t").merge(&shard(1, "t"));
        assert_eq!(r.to_text(), r.to_text());
        assert!((r.goodput_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(r.to_text().lines().filter(|l| l.starts_with("node ")).count(), 2);
    }
}
