//! `fabric_leafspine`: the 6×2 leaf–spine fabric of reference switches
//! (`LeafSpine::bench()`), sharded by `run_fabric`, every host sending
//! line-rate 64-byte frames to its cross-leaf peer.

use crate::ledger::{absent_prefix, count_metrics, expect_zero, Round};
use crate::measure::{
    accumulate, delta, fnv64, snapshot, thread_schedstat, Fnv, Snapshot, SpanSums, Tracer,
};
use netfpga_core::rng::SimRng;
use netfpga_core::time::{BitRate, Time};
use netfpga_fabric::{run_fabric, FabricConfig};
use netfpga_phy::mac::wire_bytes;
use netfpga_projects::fabric::{host_frame, LeafSpine};
use netfpga_projects::reference_switch::ReferenceSwitch;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Simulated time past the last offered frame the fabric keeps running,
/// so frames in flight reach their peers.
const DRAIN: Time = Time::from_us(30);
/// The SUME SFP+ port rate every fabric node runs at, in Gb/s.
const PORT_GBPS: u64 = 10;

/// Kernel counters that vary with shard thread timing (see `round`).
const SCHEDULE_DEPENDENT: [&str; 3] = [
    "core.steps_per_kedge",
    "core.probes_avoided_per_step",
    "core.invalidations_per_frame",
];

/// How much one round offers.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub frames_per_host: usize,
}

pub const FULL: Size = Size {
    frames_per_host: 5_000,
};

/// What the build and harvest closures observed of one node, on its
/// shard thread.
#[derive(Default)]
struct NodeRecord {
    build: (Option<Instant>, Option<Instant>),
    harvest: (Option<Instant>, Option<Instant>),
    /// Thread schedstat when the build started and the harvest ended.
    sched: ((u64, u64), (u64, u64)),
    /// Telemetry after the build (stimulus injected) and after the run.
    post_build: Snapshot,
    post_run: Snapshot,
    /// `(host, simulated time its first frame was offered)`.
    starts: Vec<(usize, Time)>,
}

/// A leaf's host-port deliveries: `(port, [(frame, completion time)])`.
type Deliveries = Vec<(usize, Vec<(Vec<u8>, Time)>)>;

fn instant(t: Option<Instant>) -> Instant {
    t.expect("closure timestamp recorded")
}

pub fn round(seed: u64, size: Size, shards: usize, tracer: &Tracer) -> Round {
    let mut out = Round::default();
    let ls = LeafSpine::bench();
    let nodes = ls.nnodes();
    let frames_per_host = size.frames_per_host;
    let offered = (ls.nhosts() * frames_per_host) as u64;
    // Independent sources: each host starts at a seeded phase (whole core
    // clock periods within one frame time), then stays back to back.
    let mut rng = SimRng::new(seed);
    let phase: Vec<Time> = (0..ls.nhosts())
        .map(|_| Time::from_ns(5 * rng.below(14)))
        .collect();
    let records: Mutex<BTreeMap<usize, NodeRecord>> = Mutex::new(BTreeMap::new());

    let t0 = Instant::now();
    let epoch = tracer.span("projects", "build", 1, || ls.default_epoch());
    // Every workload frame has the length of `host_frame`'s.
    let frame_len = host_frame(0, 1, 0).len();
    let occupancy = BitRate::gbps(PORT_GBPS).time_for_bytes(wire_bytes(frame_len as u64));
    let horizon = Time::from_ps(occupancy.as_ps() * frames_per_host as u64) + DRAIN;
    let topo = ls.topology();
    let config = FabricConfig::new(shards, epoch);

    let report = tracer.span("fabric", "run_fabric", 1, || {
        let root = tracer.current();
        run_fabric(
            &topo,
            &config,
            horizon,
            |node| {
                let (b0, s0) = (Instant::now(), thread_schedstat());
                let (sw, starts, post_build) =
                    tracer.span_under(root, "bench", "build_closure", 1, || {
                        let mut sw =
                            tracer.span("projects", "build_node", 1, || ls.build_node(node, 0));
                        assert_eq!(
                            sw.chassis.port_rate(0),
                            BitRate::gbps(PORT_GBPS),
                            "SUME SFP+ port rate"
                        );
                        let mut starts = Vec::new();
                        if node < ls.leaves {
                            for p in 0..ls.host_ports {
                                let h = node * ls.host_ports + p;
                                let frames: Vec<Vec<u8>> = (0..frames_per_host)
                                    .map(|seq| host_frame(h, ls.peer(h), seq as u32))
                                    .collect();
                                tracer.span("core", "run_for", 1, || sw.chassis.run_for(phase[h]));
                                starts.push((h, sw.chassis.sim.now()));
                                tracer.span("projects", "send", frames.len() as u64, || {
                                    for f in frames {
                                        sw.chassis.send(p, f);
                                    }
                                });
                            }
                        }
                        let post_build = snapshot(&sw.chassis.telemetry);
                        (sw, starts, post_build)
                    });
                let mut recs = records.lock().expect("record sink poisoned");
                let rec = recs.entry(node).or_default();
                rec.build = (Some(b0), Some(Instant::now()));
                rec.sched.0 = s0;
                rec.post_build = post_build;
                rec.starts = starts;
                sw
            },
            |node, sw: &mut ReferenceSwitch| {
                let h0 = Instant::now();
                let (got, post_run): (Deliveries, Snapshot) =
                    tracer.span_under(root, "bench", "harvest_closure", 1, || {
                        let ports = if node < ls.leaves { ls.host_ports } else { 0 };
                        let got = (0..ports)
                            .map(|p| {
                                (
                                    p,
                                    tracer.span("projects", "recv_timed", 1, || {
                                        sw.chassis.recv_timed(p)
                                    }),
                                )
                            })
                            .collect();
                        (got, snapshot(&sw.chassis.telemetry))
                    });
                let mut recs = records.lock().expect("record sink poisoned");
                let rec = recs.entry(node).or_default();
                rec.harvest = (Some(h0), Some(Instant::now()));
                rec.sched.1 = thread_schedstat();
                rec.post_run = post_run;
                got
            },
        )
    });
    let raw_spans = tracer.drain();
    let spans = SpanSums::reduce(&raw_spans);
    let recs = records.into_inner().expect("record sink poisoned");

    // Phases: set-up until the last node is built; the run until the final
    // barrier, which releases every shard into its harvests at once.
    let built = recs
        .values()
        .map(|r| instant(r.build.1))
        .max()
        .expect("nodes built");
    let harvesting = recs
        .values()
        .map(|r| instant(r.harvest.0))
        .min()
        .expect("nodes harvested");
    out.setup = built - t0;
    let run_wall = harvesting.saturating_duration_since(built);
    out.samples.push((offered, run_wall));

    // Check every delivery against the frame its tag names.
    let nhosts = ls.nhosts();
    let starts: BTreeMap<usize, Time> = recs
        .values()
        .flat_map(|r| r.starts.iter().copied())
        .collect();
    let templates: Vec<Vec<u8>> = (0..nhosts).map(|h| host_frame(h, ls.peer(h), 0)).collect();
    let mut state = vec![vec![0u8; frames_per_host]; nhosts];
    out.latency_ps = Vec::with_capacity(offered as usize);
    let mut sig = Fnv::default();
    let first_start = starts.values().copied().min().unwrap_or(Time::ZERO);
    let mut last_at = first_start;
    let mut bytes = 0u64;
    for (node, got) in report.results.iter().enumerate() {
        for (port, frames) in got {
            let dst = node * ls.host_ports + port;
            for (frame, at) in frames {
                sig.word(node as u64);
                sig.word(*port as u64);
                sig.word(at.as_ps());
                sig.word(fnv64(frame));
                last_at = last_at.max(*at);
                let tag = (frame.len() == frame_len).then(|| {
                    let seq = u32::from_le_bytes(frame[15..19].try_into().expect("4 bytes"));
                    (usize::from(frame[14]), seq as usize)
                });
                let ok = tag.filter(|&(src, seq)| {
                    let t = templates.get(src);
                    seq < frames_per_host
                        && ls.peer(src) == dst
                        && t.is_some_and(|t| frame[..15] == t[..15] && frame[19..] == t[19..])
                });
                match ok {
                    Some((src, seq)) => {
                        let st = &mut state[src][seq];
                        *st = if *st == 0 { 1 } else { 2 };
                        let ingress =
                            starts[&src] + Time::from_ps(occupancy.as_ps() * (seq as u64 + 1));
                        out.latency_ps.push((*at - ingress).as_ps());
                        bytes += frame.len() as u64;
                    }
                    None => out
                        .problems
                        .push(format!("unexpected frame at node {node} port {port}")),
                }
            }
        }
    }
    out.frames = offered;
    out.attempted = offered;
    out.failed = state.iter().flatten().filter(|&&st| st != 1).count() as u64;
    out.deliveries = sig.0;
    out.goodput_gbps = bytes as f64 * 8.0 / (last_at - first_start).as_ps().max(1) as f64 * 1e3;

    // Telemetry: per-node deltas over the run, summed. The buffer pool is
    // per thread, so its counters are taken once per shard: from the last
    // build to the first harvest on that shard.
    let mut d = Snapshot::new();
    let mut host_rx = 0;
    for (node, rec) in &recs {
        let mut nd = delta(&rec.post_build, &rec.post_run);
        nd.retain(|k, _| !k.starts_with("pool."));
        if *node < ls.leaves {
            host_rx += (0..ls.host_ports)
                .map(|p| {
                    nd.get(&format!("port{p}.mac.rx.frames"))
                        .copied()
                        .unwrap_or(0)
                })
                .sum::<u64>();
        }
        accumulate(&mut d, &nd);
    }
    let mut busy = Vec::new();
    for shard in 0..shards {
        let on_shard: Vec<&NodeRecord> = (0..nodes)
            .filter(|&n| report.nodes[n].shard == shard)
            .map(|n| &recs[&n])
            .collect();
        for key in ["pool.allocs", "pool.recycled", "pool.cow_copies"] {
            let at = |s: &Snapshot| s.get(key).copied().unwrap_or(0);
            let from = on_shard
                .iter()
                .map(|r| at(&r.post_build))
                .max()
                .unwrap_or(0);
            let to = on_shard.iter().map(|r| at(&r.post_run)).min().unwrap_or(0);
            *d.entry(key.to_string()).or_insert(0) += to.saturating_sub(from);
        }
        let cpu_from = on_shard.iter().map(|r| r.sched.0).min().unwrap_or_default();
        let cpu_to = on_shard.iter().map(|r| r.sched.1).max().unwrap_or_default();
        out.worker_sched.0 += cpu_to.0.saturating_sub(cpu_from.0);
        out.worker_sched.1 += cpu_to.1.saturating_sub(cpu_from.1);
        let stall = report.stats.shard_stalls[shard];
        busy.push(run_wall.saturating_sub(stall).as_secs_f64());
    }

    count_metrics(&d, offered, &mut out.counts);
    let get = |k: &str| d.get(k).copied().unwrap_or(0);
    let stats = &report.stats;
    let frames = offered as f64;
    // A shard drains its inbound channels after each barrier while faster
    // shards may already be sending the next epoch's frames, so how many
    // frames sit in a merge queue, and the kernel work of the ingress that
    // holds them, depend on thread timing. Deliveries do not (they are
    // gated on each frame's ready time). Those values are reported beside
    // the host times, not among the exact counts.
    for key in SCHEDULE_DEPENDENT {
        if let Some(v) = out.counts.remove(key) {
            out.times.insert(key, v);
        }
    }
    out.times
        .insert("fabric.merge_high_water", stats.merge_high_water as f64);
    let c = &mut out.counts;
    c.insert("datapath.lookup_hits", get("lookup.hits") as f64);
    c.insert("datapath.lookup_floods", get("lookup.floods") as f64);
    c.insert("fabric.epochs", stats.epochs as f64);
    c.insert("fabric.crossed_per_frame", stats.crossed as f64 / frames);
    c.insert("fabric.blocked", stats.blocked as f64);
    let m = &mut out.times;
    let busy_total: f64 = busy.iter().sum();
    let stalls: Duration = stats.shard_stalls.iter().sum();
    m.insert(
        "fabric.stall_frac",
        stalls.as_secs_f64() / (shards as f64 * run_wall.as_secs_f64()).max(1e-9),
    );
    let mean_busy = busy_total / shards as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    m.insert("fabric.shard_imbalance", max_busy / mean_busy.max(1e-12));
    m.insert(
        "fabric.host_us_per_epoch",
        run_wall.as_secs_f64() * 1e6 / (stats.epochs.max(1) as f64),
    );
    let closure = |sel: fn(&NodeRecord) -> (Option<Instant>, Option<Instant>)| -> f64 {
        recs.values()
            .map(|r| (instant(sel(r).1) - instant(sel(r).0)).as_secs_f64())
            .sum()
    };
    m.insert("fabric.build_s", closure(|r| r.build));
    m.insert("fabric.harvest_s", closure(|r| r.harvest));
    // The kernel runs inside the runner's epoch loop: its host time is
    // the shards' busy time (run wall minus barrier stall).
    let steps = get("kernel.steps") as f64;
    let edges = steps + get("kernel.skips") as f64;
    let busy_ns = busy_total * 1e9;
    m.insert("core.run_for_ns_per_frame", busy_ns / frames);
    m.insert("core.host_ns_per_edge", busy_ns / edges.max(1.0));
    m.insert("core.host_ns_per_step", busy_ns / steps.max(1.0));
    if tracer.tracing() {
        m.insert(
            "projects.build_s",
            (spans.total_ns("build") + spans.total_ns("build_node")) as f64 * 1e-9,
        );
        m.insert(
            "projects.send_ns_per_frame",
            spans.total_ns("send") as f64 / frames,
        );
        m.insert(
            "projects.recv_ns_per_frame",
            spans.total_ns("recv_timed") as f64 / frames,
        );
        for (layer, name) in [
            ("bench", "bench.self_ns_per_frame"),
            ("projects", "projects.self_ns_per_frame"),
            ("core", "core.self_ns_per_frame"),
            ("fabric", "fabric.self_ns_per_frame"),
        ] {
            m.insert(
                name,
                spans.self_ns.get(layer).copied().unwrap_or(0) as f64 / frames,
            );
        }
        out.spans = vec![("round", raw_spans)];
    }
    let no_router =
        "the fabric's nodes are reference switches: no router lookup, DMA engine or host software";
    for prefix in ["datapath.router_", "pcie.", "host."] {
        absent_prefix(&mut out, prefix, no_router);
    }
    out.absent.insert(
        "datapath.oq_depth_max",
        "queues are only observable between run_fabric calls, when they are empty",
    );

    expect_zero(&mut out, "lookup.floods", get("lookup.floods"));
    expect_zero(&mut out, "oq.dropped", get("oq.dropped"));
    expect_zero(&mut out, "fabric.blocked", report.stats.blocked);
    let bad_fcs = crate::measure::mac_sum(&d, "rx", "bad_fcs");
    expect_zero(&mut out, "port*.mac.rx.bad_fcs", bad_fcs);
    if host_rx != offered {
        out.problems.push(format!(
            "host-port phy.rx_frames = {host_rx}, offered {offered}"
        ));
    }
    out
}
