//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repo root repeats these tables and a
//! self-test keeps the two identical, so the file the driver reads and
//! the program that prints the numbers cannot drift apart.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it exists.
pub struct Workload {
    /// Name on the command line and in every file.
    pub name: &'static str,
    /// Why it was chosen: which layers it stresses, which it bypasses.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_paced",
        why: "2 ODR60 sessions at 320x180 over loopback, open-loop inputs; CPU mostly idle, so latency is regulator sleep, swap hand-off and the PriorityFrame path, not raster or codec",
    },
    Workload {
        name: "serve_saturated",
        why: "2 ODRMax sessions at 1280x720; both cores busy, the pipeline runs at its slowest stage, so raster, readback, codec and per-frame allocation own the result and the regulator does nothing",
    },
    Workload {
        name: "serve_churn",
        why: "closed loop of connect, 20 frames paced at 300/s, BYE, reconnect on 2 connections; accept poll, handshake, admission, thread spawns, the overwriting swap and the shutdown cascade, not steady state",
    },
    Workload {
        name: "sim_study",
        why: "FullDes fleet rounds (NoReg, Int60, RVS60, ODR60) and cluster control-plane rounds; bypasses sockets, raster and codec: event queues, regulators, link and samplers, colocation solve",
    },
];

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them;
/// `README.md` says what each measures on each workload and how the bounds
/// were set (by the noisiest workload, on a host whose speed drifts).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_cpu_ms_per_frame",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "render_per_display",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of a single layer, from the traced run.
pub struct Layer {
    /// Name in the result line, `layer.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, bottom of the stack first.
pub const PER_LAYER: [Layer; 64] = [
    layer("simtime.rng_ns_per_draw", "ns", Lower),
    layer("simtime.event_queue_ns_per_op", "ns", Lower),
    layer("metrics.summary_record_ns", "ns", Lower),
    layer("netsim.link_send_ns", "ns", Lower),
    layer("workload.stage_sample_ns", "ns", Lower),
    layer("obs.record_ns_per_event", "ns", Lower),
    layer("core.slab_queue_ns_per_op", "ns", Lower),
    layer("core.regulator_ns_per_step", "ns", Lower),
    layer("core.regulator_sleep_ms_per_frame", "ms", Lower),
    layer("core.regulator_cancel_ratio", "ratio", Lower),
    layer("core.swap_block_handoff_ns_p50", "ns", Lower),
    layer("core.swap_overwrite_handoff_ns_p50", "ns", Lower),
    layer("core.swap_overwrite_drop_ratio", "ratio", Lower),
    layer("core.swap_priority_flush_ns_p50", "ns", Lower),
    layer("raster.render_ms_per_frame", "ms", Lower),
    layer("raster.readback_ms_per_frame", "ms", Lower),
    layer("raster.pixels_per_s", "px/s", Higher),
    layer("codec.encode_ms_per_frame", "ms", Lower),
    layer("codec.encode_mb_per_s", "MB/s", Higher),
    layer("codec.decode_ms_per_frame", "ms", Lower),
    layer("codec.decode_mb_per_s", "MB/s", Higher),
    layer("codec.compression_ratio", "ratio", Higher),
    layer("codec.allocs_bytes_per_frame", "B", Lower),
    layer("pipeline.sim_frames_per_s.noreg", "1/s", Higher),
    layer("pipeline.sim_frames_per_s.int60", "1/s", Higher),
    layer("pipeline.sim_frames_per_s.rvs60", "1/s", Higher),
    layer("pipeline.sim_frames_per_s.odr60", "1/s", Higher),
    layer("fleet.fulldes_sessions_per_s", "1/s", Higher),
    layer("fleet.analytic_sessions_per_s", "1/s", Higher),
    layer("fleet.thread_speedup", "ratio", Higher),
    layer("cluster.decisions_per_s", "1/s", Higher),
    layer("cluster.admitted", "count", Higher),
    layer("cluster.shed", "count", Lower),
    layer("cluster.solve_us_per_decision", "us", Lower),
    layer("serve.wire_frame_write_us", "us", Lower),
    layer("serve.wire_frame_read_us", "us", Lower),
    layer("serve.wire_mb_per_s", "MB/s", Higher),
    layer("serve.admission_check_us.r0", "us", Lower),
    layer("serve.admission_check_us.r3", "us", Lower),
    layer("serve.admission_check_us.r7", "us", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.frames_rendered", "count", Lower),
    layer("serve.frames_encoded", "count", Lower),
    layer("serve.frames_sent", "count", Higher),
    layer("serve.frames_dropped", "count", Lower),
    layer("serve.priority_frames", "count", Lower),
    layer("serve.bytes_sent", "B", Lower),
    layer("session.connect_ms", "ms", Lower),
    layer("session.handshake_ms", "ms", Lower),
    layer("session.first_frame_ms", "ms", Lower),
    layer("session.drain_ms", "ms", Lower),
    layer("client.read_wait_ms_per_frame", "ms", Lower),
    layer("client.wire_parse_us_per_frame", "us", Lower),
    layer("client.decode_ms_per_frame", "ms", Lower),
    layer("client.mtp_p50_ms", "ms", Lower),
    layer("client.mtp_p95_ms", "ms", Lower),
    layer("client.mtp_samples", "count", Higher),
    layer("client.frame_interval_p95_ms", "ms", Lower),
    layer("gen.input_lateness_p95_ms", "ms", Lower),
    layer("budget.service_ms", "ms", Lower),
    layer("budget.wait_ms", "ms", Lower),
    layer("budget.wait_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
