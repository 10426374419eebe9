//! `router_imix`: the reference router driven by `RouterManager`, offered
//! seeded IMIX traffic in bursts at about 18% aggregate load, with about
//! 1% exception probes that take the DMA path to host software.

use crate::ledger::{
    absent_prefix, check_chassis, count_metrics, expect_zero, span_metrics, Round, NO_FABRIC,
};
use crate::measure::{delta, fnv64, max_queue_depth, percentile, snapshot, Fnv, SpanSums, Tracer};
use netfpga_bench::workloads::imix_len;
use netfpga_core::board::BoardSpec;
use netfpga_core::rng::SimRng;
use netfpga_core::time::Time;
use netfpga_host::router_manager::{Interface, MgmtStats, RouterManager};
use netfpga_packet::icmpv4::{Icmpv4Repr, Message};
use netfpga_packet::ipv4::Ipv4Packet;
use netfpga_packet::{EthernetAddress, Ipv4Address, Ipv4Cidr, PacketBuilder};
use netfpga_phy::mac::wire_bytes;
use netfpga_projects::reference_router::ReferenceRouter;
use std::time::Instant;

const PORTS: usize = 4;
/// Static /24 routes, spread over one gateway per port.
const ROUTES: usize = 256;
/// Frames per burst; each burst is followed by two poll periods.
const BURST: usize = 50;
const POLL: Time = Time::from_us(10);
const POLLS_PER_BURST: usize = 2;
/// One frame in this many is an exception probe.
const PROBE_EVERY: usize = 100;
/// Bursts per slice (one root span, one `recv_timed` sweep).
const SLICE_BURSTS: usize = 10;
/// Poll periods the last slice runs to flush frames still in flight.
const DRAIN_POLLS: usize = 20;
/// Ethernet + IPv4 + UDP (or ICMP) headers.
const HEADERS: usize = 42;
/// Offset of the IPv4 header checksum in a frame.
const IP_CSUM: std::ops::Range<usize> = 24..26;

/// How much one round offers.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub bursts: usize,
}

pub const FULL: Size = Size { bursts: 1200 };

fn port_mac(p: usize) -> EthernetAddress {
    EthernetAddress::new(0x02, 0, 0, 0, 0x01, p as u8)
}
fn gateway_mac(p: usize) -> EthernetAddress {
    EthernetAddress::new(0x02, 0, 0, 0, 0x02, p as u8)
}
fn host_mac(p: usize) -> EthernetAddress {
    EthernetAddress::new(0x02, 0, 0, 0, 0x03, p as u8)
}
fn iface_ip(p: usize) -> Ipv4Address {
    Ipv4Address::new(10, 0, p as u8, 1)
}
fn host_ip(p: usize) -> Ipv4Address {
    Ipv4Address::new(10, 0, p as u8, 2)
}
fn gateway_ip(p: usize) -> Ipv4Address {
    Ipv4Address::new(10, 0, p as u8, 254)
}
/// Route `k` is 172.16.k.0/24 behind the gateway on port `k % PORTS`.
fn route_dst(k: usize, host: u8) -> Ipv4Address {
    Ipv4Address::new(172, 16, k as u8, host)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Data,
    TtlProbe,
    EchoProbe,
}

/// One offered frame and what must come out for it.
struct Op {
    kind: Kind,
    ingress_port: usize,
    /// Length of the offered frame.
    len: usize,
    egress_port: usize,
    /// Ingress last-bit time, per `Chassis::send` pacing.
    ingress_at: Time,
    /// The expected delivery (for data frames, checked with the IPv4
    /// checksum masked and verified separately).
    expected: Vec<u8>,
    /// 0 pending, 1 delivered once as expected, 2 anything else.
    state: u8,
}

/// Generate operation `i`: the frame to offer and its op record.
fn make_op(i: usize, probe_slot: usize, rng: &mut SimRng) -> (Vec<u8>, Op) {
    let len = imix_len(rng);
    let p = rng.below(PORTS as u64) as usize;
    let ident = i as u16;
    let mut payload = vec![0u8; len - HEADERS];
    payload[..8].copy_from_slice(&(i as u64).to_le_bytes());
    for (j, b) in payload.iter_mut().enumerate().skip(8) {
        *b = (i + j) as u8;
    }
    let kind = if i % PROBE_EVERY != probe_slot {
        Kind::Data
    } else if rng.chance(0.5) {
        Kind::TtlProbe
    } else {
        Kind::EchoProbe
    };
    let k = rng.below(ROUTES as u64) as usize;
    let dst = route_dst(k, rng.range(1, 254) as u8);
    let base = PacketBuilder::new().eth(host_mac(p), port_mac(p));
    let (frame, egress_port, expected) = match kind {
        Kind::Data | Kind::TtlProbe => {
            let ttl = if kind == Kind::Data { 64 } else { 1 };
            let frame = base
                .ipv4(host_ip(p), dst)
                .ttl(ttl)
                .ident(ident)
                .udp(5000, 6000, &payload)
                .build();
            if kind == Kind::Data {
                // Hardware forwarding: MACs rewritten towards the gateway,
                // TTL decremented, checksum valid.
                let out = k % PORTS;
                let mut e = frame.clone();
                e[..6].copy_from_slice(gateway_mac(out).as_bytes());
                e[6..12].copy_from_slice(port_mac(out).as_bytes());
                Ipv4Packet::new_unchecked(&mut e[14..]).decrement_ttl();
                (frame, out, e)
            } else {
                // RFC 792 time-exceeded quoting the IP header + 8 bytes,
                // from the ingress interface back to the sender.
                let quoted = &frame[14..HEADERS];
                let reply = PacketBuilder::new()
                    .eth(port_mac(p), host_mac(p))
                    .ipv4(iface_ip(p), host_ip(p))
                    .icmp(
                        Icmpv4Repr {
                            message: Message::TimeExceeded { code: 0 },
                        },
                        quoted,
                    )
                    .build();
                (frame, p, reply)
            }
        }
        Kind::EchoProbe => {
            let frame = base
                .ipv4(host_ip(p), iface_ip(p))
                .ident(ident)
                .icmp(
                    Icmpv4Repr {
                        message: Message::EchoRequest { ident, seq: 0 },
                    },
                    &payload,
                )
                .build();
            let reply = PacketBuilder::new()
                .eth(port_mac(p), host_mac(p))
                .ipv4(iface_ip(p), host_ip(p))
                .icmp(
                    Icmpv4Repr {
                        message: Message::EchoReply { ident, seq: 0 },
                    },
                    &payload,
                )
                .build();
            (frame, p, reply)
        }
    };
    let op = Op {
        kind,
        ingress_port: p,
        len: frame.len(),
        egress_port,
        ingress_at: Time::ZERO,
        expected,
        state: 0,
    };
    (frame, op)
}

/// The op index a delivered frame answers: the UDP tag of a data frame,
/// the echo identifier, or the quoted IP identifier of a time-exceeded.
fn op_index(frame: &[u8]) -> Option<usize> {
    if frame.len() < 48 || frame[12..14] != [0x08, 0x00] {
        return None;
    }
    let u16_at = |o: usize| usize::from(u16::from_be_bytes([frame[o], frame[o + 1]]));
    match (frame[23], frame[34]) {
        (17, _) => Some(u64::from_le_bytes(frame[HEADERS..HEADERS + 8].try_into().ok()?) as usize),
        (1, 0) => Some(u16_at(38)),
        (1, 11) => Some(u16_at(46)),
        _ => None,
    }
}

fn delivered_ok(op: &Op, frame: &[u8], port: usize) -> bool {
    if port != op.egress_port || frame.len() != op.expected.len() {
        return false;
    }
    if op.kind != Kind::Data {
        return frame == op.expected;
    }
    frame[..IP_CSUM.start] == op.expected[..IP_CSUM.start]
        && frame[IP_CSUM.end..] == op.expected[IP_CSUM.end..]
        && Ipv4Packet::new_unchecked(&frame[14..]).verify_checksum()
}

/// Build the router, push its tables and resolve the gateways by ARP.
fn setup(tracer: &Tracer) -> (ReferenceRouter, RouterManager) {
    let mut r = tracer.span("projects", "build", 1, || {
        ReferenceRouter::new(&BoardSpec::sume(), PORTS)
    });
    let interfaces = (0..PORTS)
        .map(|p| Interface {
            port: p as u8,
            mac: port_mac(p),
            ip: iface_ip(p),
            subnet: Ipv4Cidr::new(Ipv4Address::new(10, 0, p as u8, 0), 24),
        })
        .collect();
    let mut mgr = RouterManager::new(interfaces, r.cpu_port);
    for k in 0..ROUTES {
        let prefix = Ipv4Cidr::new(route_dst(k, 0), 24);
        mgr.add_static_route(prefix, gateway_ip(k % PORTS), (k % PORTS) as u8);
    }
    tracer.span("projects", "configure", 1, || mgr.configure(&mut r));

    // ARP warm-up: one frame towards each gateway parks on an ARP miss;
    // the gateway answers the router's request and the parked frame is
    // released by the slow path.
    for p in 0..PORTS {
        let frame = PacketBuilder::new()
            .eth(host_mac(p), port_mac(p))
            .ipv4(host_ip(p), route_dst(p, 1))
            .udp(5000, 6000, &[0; 18])
            .build();
        r.chassis.send(p, frame);
    }
    for _ in 0..100 {
        r.chassis.run_for(POLL);
        mgr.poll(&mut r);
        for p in 0..PORTS {
            for frame in r.chassis.recv(p) {
                if let Some(reply) =
                    PacketBuilder::arp_reply_to(&frame, gateway_mac(p), gateway_ip(p))
                {
                    r.chassis.send(p, reply);
                }
            }
        }
        if mgr.stats().slow_path_forwards == PORTS as u64 {
            break;
        }
    }
    assert_eq!(
        mgr.stats().arp_learned,
        PORTS as u64,
        "every gateway resolved during set-up"
    );
    r.chassis.run_for(POLL);
    for p in 0..PORTS {
        r.chassis.recv(p);
    }
    (r, mgr)
}

fn icmp_generated(s: &MgmtStats) -> u64 {
    s.icmp_ttl + s.icmp_unreachable + s.echo_replies
}

pub fn round(seed: u64, size: Size, tracer: &Tracer) -> Round {
    let mut out = Round::default();
    let t0 = Instant::now();
    let (mut r, mut mgr) = setup(tracer);
    out.setup = t0.elapsed();
    let setup_spans = tracer.drain();

    let mut rng = SimRng::new(seed);
    let probe_slot = rng.below(PROBE_EVERY as u64) as usize;
    let nops = size.bursts * BURST;
    assert!(
        nops <= usize::from(u16::MAX) + 1,
        "op index must fit the 16-bit IP ident"
    );
    let mut ops: Vec<Op> = Vec::with_capacity(nops);
    out.latency_ps = Vec::with_capacity(nops);
    let rate = r.chassis.port_rate(0);
    let mut next_free = [Time::ZERO; PORTS];

    let before = snapshot(&r.chassis.telemetry);
    let mgmt_before = mgr.stats();
    let start = r.chassis.sim.now();
    let mut sig = Fnv::default();
    let mut depth_max = 0;
    let mut last_at = start;
    let mut bytes = 0u64;
    let mut rtt_ps = Vec::new();
    let nslices = size.bursts.div_ceil(SLICE_BURSTS);
    for s in 0..=nslices {
        let first_burst = (s * SLICE_BURSTS).min(size.bursts);
        let last_burst = ((s + 1) * SLICE_BURSTS).min(size.bursts);
        let mut bursts: Vec<Vec<(usize, Vec<u8>)>> = Vec::new();
        for b in first_burst..last_burst {
            let burst = (b * BURST..(b + 1) * BURST)
                .map(|i| {
                    let (frame, op) = make_op(i, probe_slot, &mut rng);
                    let port = op.ingress_port;
                    ops.push(op);
                    (port, frame)
                })
                .collect();
            bursts.push(burst);
        }
        let polls = if s == nslices {
            DRAIN_POLLS
        } else {
            POLLS_PER_BURST
        };
        let mut offered_at = Vec::with_capacity(bursts.len());
        let t = Instant::now();
        let got: Vec<Vec<(Vec<u8>, Time)>> = tracer.span("bench", "slice", 1, || {
            let run_and_poll = |r: &mut ReferenceRouter, mgr: &mut RouterManager| {
                for _ in 0..polls {
                    tracer.span("core", "run_for", 1, || r.chassis.run_for(POLL));
                    tracer.span("host", "poll", 1, || mgr.poll(r));
                }
            };
            if bursts.is_empty() {
                run_and_poll(&mut r, &mut mgr);
            }
            for burst in bursts {
                offered_at.push(r.chassis.sim.now());
                tracer.span("projects", "send", burst.len() as u64, || {
                    for (port, frame) in burst {
                        r.chassis.send(port, frame);
                    }
                });
                run_and_poll(&mut r, &mut mgr);
            }
            (0..PORTS)
                .map(|p| tracer.span("projects", "recv_timed", 1, || r.chassis.recv_timed(p)))
                .collect()
        });
        let dt = t.elapsed();
        out.samples
            .push((got.iter().map(Vec::len).sum::<usize>() as u64, dt));

        let first_op = first_burst * BURST;
        for (b, now) in offered_at.into_iter().enumerate() {
            for op in &mut ops[first_op + b * BURST..first_op + (b + 1) * BURST] {
                let wire = rate.time_for_bytes(wire_bytes(op.len as u64));
                let ready = next_free[op.ingress_port].max(now) + wire;
                next_free[op.ingress_port] = ready;
                op.ingress_at = ready;
            }
        }
        for (port, frames) in got.iter().enumerate() {
            for (frame, at) in frames {
                sig.word(port as u64);
                sig.word(at.as_ps());
                sig.word(fnv64(frame));
                last_at = last_at.max(*at);
                match op_index(frame).filter(|&i| i < ops.len()) {
                    Some(i) if delivered_ok(&ops[i], frame, port) => {
                        let op = &mut ops[i];
                        op.state = if op.state == 0 { 1 } else { 2 };
                        let ps = (*at - op.ingress_at).as_ps();
                        if op.kind == Kind::Data {
                            out.latency_ps.push(ps);
                        } else {
                            rtt_ps.push(ps);
                        }
                        bytes += frame.len() as u64;
                    }
                    Some(i) => {
                        ops[i].state = 2;
                        out.problems
                            .push(format!("op {i}: wrong frame on port {port}"));
                    }
                    None => out
                        .problems
                        .push(format!("unexpected frame on port {port}")),
                }
            }
        }
        if tracer.tracing() {
            depth_max = depth_max.max(max_queue_depth(&r.chassis.telemetry));
        }
    }
    let phase_spans = tracer.drain();
    let d = delta(&before, &snapshot(&r.chassis.telemetry));
    let mgmt = mgr.stats();

    let offered = ops.len() as u64;
    out.frames = offered;
    out.attempted = offered;
    out.failed = ops.iter().filter(|op| op.state != 1).count() as u64;
    out.deliveries = sig.0;
    out.goodput_gbps = bytes as f64 * 8.0 / (last_at - start).as_ps().max(1) as f64 * 1e3;

    let get = |k: &str| d.get(k).copied().unwrap_or(0);
    count_metrics(&d, offered, &mut out.counts);
    let m = &mut out.counts;
    m.insert("datapath.router_forwarded", get("router.forwarded") as f64);
    m.insert("datapath.router_to_cpu", get("router.to_cpu") as f64);
    m.insert("datapath.router_dropped", get("router.dropped") as f64);
    m.insert("pcie.c2h_packets", get("dma.rx.packets") as f64);
    m.insert("pcie.h2c_packets", get("dma.tx.packets") as f64);
    m.insert("pcie.c2h_drops", get("dma.rx.drops") as f64);
    m.insert(
        "host.icmp_generated",
        (icmp_generated(&mgmt) - icmp_generated(&mgmt_before)) as f64,
    );
    m.insert(
        "host.icmp_suppressed",
        (mgmt.icmp_suppressed - mgmt_before.icmp_suppressed) as f64,
    );
    m.insert(
        "host.unhandled",
        (mgmt.unhandled - mgmt_before.unhandled) as f64,
    );
    if !rtt_ps.is_empty() {
        m.insert(
            "host.exception_rtt_p50_ns",
            percentile(&mut rtt_ps, 0.5) as f64 / 1e3,
        );
    }
    if tracer.tracing() {
        m.insert("datapath.oq_depth_max", depth_max as f64);
        let phase = SpanSums::reduce(&phase_spans);
        span_metrics(&phase, &d, offered, &mut out.times);
        let exceptions = get("router.to_cpu").max(1) as f64;
        out.times.insert(
            "host.poll_ns_per_exception",
            phase.total_ns("poll") as f64 / exceptions,
        );
        let setup = SpanSums::reduce(&setup_spans);
        let build_ns = setup.total_ns("build") + setup.total_ns("configure");
        out.times.insert("projects.build_s", build_ns as f64 * 1e-9);
        out.spans = vec![("setup", setup_spans), ("measured", phase_spans)];
    }
    let no_lookup = "the router's lookup is LPM + ARP; its counters are datapath.router_*";
    absent_prefix(&mut out, "datapath.lookup_", no_lookup);
    absent_prefix(&mut out, "fabric.", NO_FABRIC);

    expect_zero(&mut out, "router.dropped", get("router.dropped"));
    expect_zero(&mut out, "dma.rx.drops", get("dma.rx.drops"));
    expect_zero(
        &mut out,
        "host icmp_suppressed",
        mgmt.icmp_suppressed - mgmt_before.icmp_suppressed,
    );
    expect_zero(
        &mut out,
        "host unhandled",
        mgmt.unhandled - mgmt_before.unhandled,
    );
    check_chassis(&mut out, &d, offered);
    out
}
