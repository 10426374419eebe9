//! The metric ledger: every metric the benchmark reports and its unit, plus
//! the per-round record the workloads fill in and the derivations and
//! checks they share.

use crate::measure::{mac_sum, Snapshot, Span, SpanSums};
use std::collections::BTreeMap;
use std::time::Duration;

/// One reported metric. `BENCHMARK.json` adds which direction is better
/// (and, end to end, the bound); `README.md` records where each value
/// comes from.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    def("frames_per_s", "frames/s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MiB"),
    def("sim_latency_p50_ns", "ns"),
    def("sim_latency_p999_ns", "ns"),
    def("sim_goodput_gbps", "Gb/s"),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: &[Def] = &[
    def("projects.build_s", "s"),
    def("projects.send_ns_per_frame", "ns"),
    def("projects.recv_ns_per_frame", "ns"),
    def("projects.self_ns_per_frame", "ns"),
    def("core.run_for_ns_per_frame", "ns"),
    def("core.host_ns_per_edge", "ns"),
    def("core.host_ns_per_step", "ns"),
    def("core.steps_per_kedge", "count"),
    def("core.probes_avoided_per_step", "count"),
    def("core.invalidations_per_frame", "count"),
    def("core.pool_allocs_per_frame", "count"),
    def("core.pool_recycle_ratio", "ratio"),
    def("core.pool_cow_copies", "count"),
    def("core.self_ns_per_frame", "ns"),
    def("phy.rx_frames", "count"),
    def("phy.tx_frames", "count"),
    def("phy.rx_dropped", "count"),
    def("phy.bad_fcs", "count"),
    def("datapath.lookup_hits", "count"),
    def("datapath.lookup_floods", "count"),
    def("datapath.router_forwarded", "count"),
    def("datapath.router_to_cpu", "count"),
    def("datapath.router_dropped", "count"),
    def("datapath.oq_dropped", "count"),
    def("datapath.oq_depth_max", "packets"),
    def("pcie.c2h_packets", "count"),
    def("pcie.h2c_packets", "count"),
    def("pcie.c2h_drops", "count"),
    def("host.poll_ns_per_exception", "ns"),
    def("host.exception_rtt_p50_ns", "ns"),
    def("host.icmp_generated", "count"),
    def("host.icmp_suppressed", "count"),
    def("host.unhandled", "count"),
    def("host.self_ns_per_frame", "ns"),
    def("fabric.epochs", "count"),
    def("fabric.crossed_per_frame", "count"),
    def("fabric.blocked", "count"),
    def("fabric.merge_high_water", "count"),
    def("fabric.stall_frac", "ratio"),
    def("fabric.shard_imbalance", "ratio"),
    def("fabric.host_us_per_epoch", "us"),
    def("fabric.build_s", "s"),
    def("fabric.harvest_s", "s"),
    def("fabric.self_ns_per_frame", "ns"),
    def("bench.self_ns_per_frame", "ns"),
    def("bench.trace_overhead_frac", "ratio"),
    def("env.cores", "count"),
    def("env.shards", "count"),
    def("env.oncpu_s", "s"),
    def("env.wait_frac", "ratio"),
];

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one round of a workload (one fresh set-up plus one measured
/// phase) produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Set-up wall time.
    pub setup: Duration,
    /// Host time inside calls into the program during the measured phase,
    /// slice by slice: (frames delivered, host time).
    pub samples: Vec<(u64, Duration)>,
    /// Frames the workload expects to be delivered (data frames plus
    /// host replies).
    pub frames: u64,
    /// Operations offered and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Simulated latency of every delivered data frame, in ps.
    pub latency_ps: Vec<u64>,
    /// Simulated goodput of the measured phase.
    pub goodput_gbps: f64,
    /// FNV over every delivery (port, completion time, byte hash).
    pub deliveries: u64,
    /// Per-layer values that are exact for a seed: telemetry counts and
    /// simulated times.
    pub counts: Metrics,
    /// Per-layer host-time values (span-derived ones in traced rounds only).
    pub times: Metrics,
    /// The round's spans, by phase (`setup`, `measured`), when traced.
    pub spans: Vec<(&'static str, Vec<Span>)>,
    /// Per-layer metrics this workload cannot produce, with the reason.
    pub absent: BTreeMap<&'static str, &'static str>,
    /// Violated invariants (each makes the run incorrect).
    pub problems: Vec<String>,
    /// Scheduler accounting of worker threads the round spawned:
    /// (on-CPU ns, runnable-wait ns).
    pub worker_sched: (u64, u64),
}

/// Count-derived per-layer metrics common to every workload, from one
/// round's telemetry delta.
pub fn count_metrics(d: &Snapshot, frames: u64, m: &mut Metrics) {
    let get = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
    let frames = frames.max(1) as f64;
    let steps = get("kernel.steps");
    let edges = steps + get("kernel.skips");
    m.insert("core.steps_per_kedge", 1000.0 * steps / edges.max(1.0));
    m.insert(
        "core.probes_avoided_per_step",
        get("kernel.probes_avoided") / steps.max(1.0),
    );
    m.insert(
        "core.invalidations_per_frame",
        get("kernel.invalidations") / frames,
    );
    let (allocs, recycled) = (get("pool.allocs"), get("pool.recycled"));
    m.insert("core.pool_allocs_per_frame", allocs / frames);
    m.insert(
        "core.pool_recycle_ratio",
        recycled / (recycled + allocs).max(1.0),
    );
    m.insert("core.pool_cow_copies", get("pool.cow_copies"));
    m.insert("phy.rx_frames", mac_sum(d, "rx", "frames") as f64);
    m.insert("phy.tx_frames", mac_sum(d, "tx", "frames") as f64);
    m.insert("phy.rx_dropped", mac_sum(d, "rx", "dropped") as f64);
    m.insert("phy.bad_fcs", mac_sum(d, "rx", "bad_fcs") as f64);
    m.insert("datapath.oq_dropped", get("oq.dropped"));
}

/// Host-time per-layer metrics of a single-chassis measured phase, from
/// its spans and telemetry delta.
pub fn span_metrics(sums: &SpanSums, d: &Snapshot, frames: u64, m: &mut Metrics) {
    let frames = frames.max(1) as f64;
    let steps = d.get("kernel.steps").copied().unwrap_or(0) as f64;
    let edges = steps + d.get("kernel.skips").copied().unwrap_or(0) as f64;
    let run_for = sums.total_ns("run_for") as f64;
    m.insert(
        "projects.send_ns_per_frame",
        sums.total_ns("send") as f64 / frames,
    );
    m.insert(
        "projects.recv_ns_per_frame",
        sums.total_ns("recv_timed") as f64 / frames,
    );
    m.insert("core.run_for_ns_per_frame", run_for / frames);
    m.insert("core.host_ns_per_edge", run_for / edges.max(1.0));
    m.insert("core.host_ns_per_step", run_for / steps.max(1.0));
    for (layer, name) in [
        ("bench", "bench.self_ns_per_frame"),
        ("projects", "projects.self_ns_per_frame"),
        ("core", "core.self_ns_per_frame"),
        ("host", "host.self_ns_per_frame"),
    ] {
        if let Some(&ns) = sums.self_ns.get(layer) {
            m.insert(name, ns as f64 / frames);
        }
    }
}

/// Reason strings shared by the single-chassis workloads.
pub const NO_FABRIC: &str = "no fabric on this workload's path";
pub const NO_ROUTER: &str =
    "the reference switch has no router lookup, DMA engine or host software";

/// Mark every metric with `prefix` absent for `reason`.
pub fn absent_prefix(round: &mut Round, prefix: &str, reason: &'static str) {
    for d in PER_LAYER.iter().filter(|d| d.name.starts_with(prefix)) {
        round.absent.insert(d.name, reason);
    }
}

/// Checks every single-chassis workload shares: no output-queue drop, no
/// bad FCS, and every offered frame received by an ingress MAC.
pub fn check_chassis(round: &mut Round, d: &Snapshot, offered: u64) {
    expect_zero(
        round,
        "oq.dropped",
        d.get("oq.dropped").copied().unwrap_or(0),
    );
    expect_zero(round, "port*.mac.rx.bad_fcs", mac_sum(d, "rx", "bad_fcs"));
    let rx = mac_sum(d, "rx", "frames");
    if rx != offered {
        round
            .problems
            .push(format!("phy.rx_frames = {rx}, offered {offered}"));
    }
}

/// Check that a count the workload must keep at zero is zero.
pub fn expect_zero(round: &mut Round, what: &str, value: u64) {
    if value != 0 {
        round.problems.push(format!("{what} = {value}, expected 0"));
    }
}
