//! `switch_64b`: a 4-port reference switch on the kernel fast path, every
//! port offering back-to-back 64-byte frames to the next port at line
//! rate, open loop.

use crate::ledger::{
    absent_prefix, check_chassis, count_metrics, expect_zero, span_metrics, Round, NO_FABRIC,
    NO_ROUTER,
};
use crate::measure::{delta, fnv64, max_queue_depth, snapshot, Fnv, SpanSums, Tracer};
use netfpga_core::board::BoardSpec;
use netfpga_core::rng::SimRng;
use netfpga_core::time::Time;
use netfpga_packet::{EtherType, PacketBuilder};
use netfpga_phy::mac::wire_bytes;
use netfpga_projects::fabric::host_mac;
use netfpga_projects::reference_switch::ReferenceSwitch;
use std::time::Instant;

const PORTS: usize = 4;
const TABLE_CAPACITY: usize = 1024;
/// Far beyond the run, so pre-taught entries never age out.
const AGE_LIMIT: Time = Time::from_ms(10_000);
/// Frame length without FCS (64 bytes on the wire with it).
const FRAME_LEN: usize = 60;
/// Lead-in frames are 60 + [0, 24) bytes long: the phase spread of the
/// sources. A longer lead-in leaves its port's egress permanently behind
/// (in and out run at the same rate), so with a wider spread the simulated
/// latency would mostly measure the lead-in length.
const LEAD_IN_SPREAD: u64 = 24;
/// Simulated time the last slice runs to flush frames still in flight.
const DRAIN: Time = Time::from_us(20);

/// How much one round offers.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub frames_per_port: usize,
    /// Frames per port injected per slice.
    pub slice: usize,
}

pub const FULL: Size = Size {
    frames_per_port: 100_000,
    slice: 512,
};

/// A `len`-byte workload frame from the host on `src` to the host on
/// `dst`, tagged with the source and a per-source sequence number (the
/// layout of `netfpga_projects::fabric::host_frame`).
fn frame(src: usize, dst: usize, seq: u32, len: usize) -> Vec<u8> {
    let mut payload = vec![0u8; len - 14];
    payload[0] = src as u8;
    payload[1..5].copy_from_slice(&seq.to_le_bytes());
    PacketBuilder::new()
        .eth(host_mac(src), host_mac(dst))
        .raw(EtherType::Ipv4, &payload)
        .build()
}

/// The egress port of frames entering `port`.
fn egress_of(port: usize) -> usize {
    (port + 1) % PORTS
}

/// One round: build and pre-teach the switch (set-up), then offer
/// `size.frames_per_port` frames per port (a lead-in frame, then 60-byte
/// frames) slice by slice and check every delivery.
pub fn round(seed: u64, size: Size, tracer: &Tracer) -> Round {
    let mut out = Round::default();
    let t0 = Instant::now();
    let mut sw = tracer.span("projects", "build", 1, || {
        ReferenceSwitch::with_fast_path(&BoardSpec::sume(), PORTS, TABLE_CAPACITY, AGE_LIMIT, true)
    });
    tracer.span("projects", "teach", PORTS as u64, || {
        // Learning `mac@port` is a `decide` with the MAC as source on that
        // port, as `LeafSpine::build_node` pre-teaches its tables.
        let mut core = sw.core.borrow_mut();
        for h in 0..PORTS {
            core.decide(host_mac(h), host_mac(h), h as u8, Time::ZERO);
        }
    });
    out.setup = t0.elapsed();
    let setup_spans = tracer.drain();

    // Sources are not phase-locked to the switch clock: each port's
    // stream opens with one lead-in frame of seeded length, which sets the
    // phase (at byte resolution) of the 60-byte frames behind it.
    let mut rng = SimRng::new(seed);
    let lens: Vec<[usize; 2]> = (0..PORTS)
        .map(|_| [FRAME_LEN + rng.below(LEAD_IN_SPREAD) as usize, FRAME_LEN])
        .collect();
    let len_of = |src: usize, seq: usize| lens[src][usize::from(seq > 0)];
    let rate = sw.chassis.port_rate(0);
    let slice_time = rate.time_for_bytes(wire_bytes(FRAME_LEN as u64) * size.slice as u64);
    // Frames of one source and length differ only in their sequence number.
    let templates: Vec<[Vec<u8>; 2]> = (0..PORTS)
        .map(|p| lens[p].map(|len| frame(p, egress_of(p), 0, len)))
        .collect();

    let before = snapshot(&sw.chassis.telemetry);
    let start = sw.chassis.sim.now();
    let mut next_free = [Time::ZERO; PORTS];
    let mut ingress: Vec<Vec<Time>> = (0..PORTS)
        .map(|_| Vec::with_capacity(size.frames_per_port))
        .collect();
    let mut state: Vec<Vec<u8>> = vec![vec![0; size.frames_per_port]; PORTS];
    // Sized up front: growing it mid-round makes the peak RSS depend on
    // where the allocator happens to place the copy.
    out.latency_ps = Vec::with_capacity(PORTS * size.frames_per_port);
    let mut sig = Fnv::default();
    let mut depth_max = 0;
    let mut last_at = start;
    let mut bytes = 0u64;
    let nslices = size.frames_per_port.div_ceil(size.slice);
    for s in 0..=nslices {
        // Offer one slice ahead of simulated time, so every port's stream
        // stays back to back across slice boundaries.
        let lo = if s == 0 { 0 } else { (s + 1) * size.slice }.min(size.frames_per_port);
        let hi = ((s + 2) * size.slice).min(size.frames_per_port);
        let batches: Vec<Vec<Vec<u8>>> = (0..PORTS)
            .map(|p| {
                (lo..hi)
                    .map(|q| frame(p, egress_of(p), q as u32, len_of(p, q)))
                    .collect()
            })
            .collect();
        let run = if s == nslices { DRAIN } else { slice_time };
        let mut offered_at = [Time::ZERO; PORTS];
        let t = Instant::now();
        let got: Vec<Vec<(Vec<u8>, Time)>> = tracer.span("bench", "slice", 1, || {
            for (p, batch) in batches.into_iter().enumerate() {
                offered_at[p] = sw.chassis.sim.now();
                tracer.span("projects", "send", batch.len() as u64, || {
                    for f in batch {
                        sw.chassis.send(p, f);
                    }
                });
            }
            tracer.span("core", "run_for", 1, || sw.chassis.run_for(run));
            (0..PORTS)
                .map(|p| tracer.span("projects", "recv_timed", 1, || sw.chassis.recv_timed(p)))
                .collect()
        });
        let dt = t.elapsed();
        out.samples
            .push((got.iter().map(Vec::len).sum::<usize>() as u64, dt));

        // Ingress last-bit times follow `Chassis::send`'s pacing: each
        // frame starts when the port's previous one ends, or now.
        for p in 0..PORTS {
            for q in lo..hi {
                let wire = rate.time_for_bytes(wire_bytes(len_of(p, q) as u64));
                let ready = next_free[p].max(offered_at[p]) + wire;
                next_free[p] = ready;
                ingress[p].push(ready);
            }
        }
        for (port, frames) in got.iter().enumerate() {
            for (frame, at) in frames {
                sig.word(port as u64);
                sig.word(at.as_ps());
                sig.word(fnv64(frame));
                last_at = last_at.max(*at);
                match check(frame, port, &templates, size.frames_per_port) {
                    Some((src, seq)) => {
                        let st = &mut state[src][seq];
                        *st = if *st == 0 { 1 } else { 2 };
                        out.latency_ps.push((*at - ingress[src][seq]).as_ps());
                        bytes += frame.len() as u64;
                    }
                    None => out
                        .problems
                        .push(format!("unexpected frame on port {port}")),
                }
            }
        }
        if tracer.tracing() {
            depth_max = depth_max.max(max_queue_depth(&sw.chassis.telemetry));
        }
    }
    let phase_spans = tracer.drain();
    let d = delta(&before, &snapshot(&sw.chassis.telemetry));

    let offered = (PORTS * size.frames_per_port) as u64;
    out.frames = offered;
    out.attempted = offered;
    out.failed = state.iter().flatten().filter(|&&st| st != 1).count() as u64;
    out.deliveries = sig.0;
    out.goodput_gbps = bytes as f64 * 8.0 / (last_at - start).as_ps().max(1) as f64 * 1e3;

    count_metrics(&d, offered, &mut out.counts);
    let get = |k: &str| d.get(k).copied().unwrap_or(0);
    out.counts
        .insert("datapath.lookup_hits", get("lookup.hits") as f64);
    out.counts
        .insert("datapath.lookup_floods", get("lookup.floods") as f64);
    if tracer.tracing() {
        out.counts.insert("datapath.oq_depth_max", depth_max as f64);
        span_metrics(&SpanSums::reduce(&phase_spans), &d, offered, &mut out.times);
        let setup = SpanSums::reduce(&setup_spans);
        let build_ns = setup.total_ns("build") + setup.total_ns("teach");
        out.times.insert("projects.build_s", build_ns as f64 * 1e-9);
        out.spans = vec![("setup", setup_spans), ("measured", phase_spans)];
    }
    for prefix in ["datapath.router_", "pcie.", "host."] {
        absent_prefix(&mut out, prefix, NO_ROUTER);
    }
    absent_prefix(&mut out, "fabric.", NO_FABRIC);

    expect_zero(&mut out, "lookup.floods", get("lookup.floods"));
    check_chassis(&mut out, &d, offered);
    out
}

/// Identify a delivered frame as `(source port, sequence)` if it is a
/// workload frame, unchanged, on the egress port its source maps to.
/// `templates[src]` holds the source's lead-in and regular frame.
fn check(
    frame: &[u8],
    port: usize,
    templates: &[[Vec<u8>; 2]],
    frames_per_port: usize,
) -> Option<(usize, usize)> {
    // 14-byte Ethernet header, then the source host and a little-endian
    // u32 sequence number.
    if frame.len() < FRAME_LEN {
        return None;
    }
    let src = usize::from(frame[14]);
    let seq = u32::from_le_bytes(frame[15..19].try_into().expect("4 bytes")) as usize;
    let t = &templates.get(src)?[usize::from(seq > 0)];
    let unchanged = frame.len() == t.len() && frame[..15] == t[..15] && frame[19..] == t[19..];
    (unchanged && seq < frames_per_port && egress_of(src) == port).then_some((src, seq))
}
