//! Cross-crate property tests: system-level invariants under randomized
//! traffic, checked with proptest.

use netfpga_core::board::BoardSpec;
use netfpga_core::time::{Frequency, Time};
use netfpga_datapath::lpm::RouteEntry;
use netfpga_datapath::ParsedHeaders;
use netfpga_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use netfpga_projects::{AcceptanceTest, ReferenceRouter, ReferenceSwitch};
use proptest::prelude::*;

fn mac(x: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, x)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The acceptance loopback is lossless and order/content-preserving
    /// for any frame mix within buffering limits.
    #[test]
    fn prop_loopback_lossless(
        lens in proptest::collection::vec(60usize..1514, 1..30),
        port in 0usize..2,
    ) {
        let mut a = AcceptanceTest::new(&BoardSpec::sume(), 2);
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                PacketBuilder::new()
                    .eth(mac(i as u8), mac(0xff))
                    .raw(netfpga_packet::EtherType::Unknown(0x9999), &[i as u8; 46])
                    .pad_to(len)
                    .build()
            })
            .collect();
        for f in &frames {
            a.chassis.send(port, f.clone());
        }
        a.chassis.run_for(Time::from_ms(1));
        let got = a.chassis.recv(port);
        prop_assert_eq!(got, frames);
    }

    /// The switch never reflects a frame out of its own ingress port and
    /// never delivers the same frame twice to one port. Each injected
    /// frame carries a unique sequence number so its identity (and ingress
    /// port) is exact.
    #[test]
    fn prop_switch_no_reflection_no_dup(
        traffic in proptest::collection::vec((0u8..4, 1u8..8, 1u8..8), 1..25),
    ) {
        let mut sw = ReferenceSwitch::new(&BoardSpec::sume(), 4, 256, Time::from_ms(100));
        let mut ingress_of = Vec::new();
        for (seq, &(in_port, src, dst)) in traffic.iter().enumerate() {
            let f = PacketBuilder::new()
                .eth(mac(src), mac(dst))
                .raw(netfpga_packet::EtherType::Ipv4, &[seq as u8; 46])
                .build();
            sw.chassis.send(in_port as usize, f);
            ingress_of.push(in_port as usize);
            // Let each frame fully traverse so learning is sequential.
            sw.chassis.run_for(Time::from_us(5));
        }
        sw.chassis.run_for(Time::from_us(100));
        for port in 0..4usize {
            let got = sw.chassis.recv(port);
            let mut seen = std::collections::BTreeSet::new();
            for f in &got {
                let seq = usize::from(f[14]); // first payload byte
                prop_assert_ne!(
                    ingress_of[seq], port,
                    "frame {} reflected to its ingress port {}", seq, port
                );
                prop_assert!(seen.insert(seq), "frame {} duplicated on port {}", seq, port);
            }
        }
    }

    /// Every packet the router forwards in hardware has a valid checksum
    /// and TTL exactly one less than the input; no packet is both
    /// forwarded and sent to the CPU.
    #[test]
    fn prop_router_ttl_checksum_invariant(
        ttls in proptest::collection::vec(1u8..64, 1..20),
        lens in proptest::collection::vec(60usize..512, 1..20),
    ) {
        let r = ReferenceRouter::new(&BoardSpec::sume(), 4);
        {
            let mut t = r.tables.borrow_mut();
            t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
            t.lpm.insert(
                "10.9.0.0/16".parse().unwrap(),
                RouteEntry { next_hop: Ipv4Address::UNSPECIFIED, port: 3 },
            );
            for h in 0..16u8 {
                t.arp.insert(Ipv4Address::new(10, 9, 0, h), mac(0x90 + h));
            }
        }
        let mut r = r;
        let n = ttls.len().min(lens.len());
        let mut expect_fwd = 0u64;
        for i in 0..n {
            let f = PacketBuilder::new()
                .eth(mac(0xa1), mac(0xe0))
                .ipv4(Ipv4Address::new(10, 0, 0, 2), Ipv4Address::new(10, 9, 0, (i % 16) as u8))
                .ttl(ttls[i])
                .udp(1, 2, &[])
                .pad_to(lens[i])
                .build();
            if ttls[i] > 1 {
                expect_fwd += 1;
            }
            r.chassis.send(0, f);
        }
        r.chassis.run_for(Time::from_ms(1));
        let out = r.chassis.recv(3);
        prop_assert_eq!(out.len() as u64, expect_fwd);
        for f in &out {
            let ip4 = ParsedHeaders::parse(f).ipv4.unwrap();
            prop_assert!(ip4.checksum_ok);
            prop_assert!(ip4.ttl >= 1);
        }
        let dma = r.chassis.dma.clone().unwrap();
        let mut cpu = 0u64;
        while dma.recv().is_some() {
            cpu += 1;
        }
        prop_assert_eq!(cpu + expect_fwd, n as u64, "each packet exactly one fate");
    }
}

/// The clock palette of the kernel-equivalence property below: it mixes
/// phase-aligned clocks, odd periods, and a near-coprime slow clock that
/// almost never shares an edge with the others.
fn kernel_freq(i: usize) -> Frequency {
    match i % 6 {
        0 => Frequency::mhz(500),        // 2 ns
        1 => Frequency::mhz(250),        // 4 ns
        2 => Frequency::mhz(200),        // 5 ns
        3 => Frequency::hz(142_857_143), // ~7 ns
        4 => Frequency::hz(90_909_091),  // ~11 ns
        _ => Frequency::hz(999_983),     // ~1.000017 us: co-prime
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The fast-path kernel is an optimization, not a semantics change:
    /// for random clock sets, random source→stage→sink topologies (with
    /// cross-domain streams and random burst flags) and a random schedule
    /// of `run_for`/`run_cycles` calls with mid-run injection, the cached
    /// kernel with idle fast-forward produces the same captured packets
    /// (bytes, metadata and arrival instants) and the same final clock
    /// state as the naive scan that ticks every module at every edge.
    #[test]
    fn prop_kernel_equivalence(
        clock_sel in proptest::collection::vec(0usize..6, 1..4),
        pipes in proptest::collection::vec((0usize..8, 0usize..8, 0u64..6, 0u8..2), 1..4),
        phase1 in proptest::collection::vec((0usize..8, 46usize..220), 0..8),
        phase2 in proptest::collection::vec((0usize..8, 46usize..220), 0..8),
        segments in proptest::collection::vec((0u8..2, 1u64..300), 1..5),
    ) {
        use netfpga_core::packetio::{CapturedPacket, PacketSink, PacketSource};
        use netfpga_core::sim::{SchedulerMode, Simulator};
        use netfpga_core::pktbuf::PktBuf;
        use netfpga_core::stream::{Meta, Stream};
        use netfpga_datapath::stage::StageAction;
        use netfpga_datapath::PacketStage;

        let run = |mode: SchedulerMode, idle_skip: bool| {
            let mut sim = Simulator::with_scheduler(mode);
            sim.set_idle_skip(idle_skip);
            let clks: Vec<_> = clock_sel
                .iter()
                .enumerate()
                .map(|(i, &f)| sim.add_clock(&format!("clk{i}"), kernel_freq(f)))
                .collect();
            let mut injects = Vec::new();
            let mut caps = Vec::new();
            for &(ca, cb, lat, burst) in &pipes {
                let (in_tx, in_rx) = Stream::new(8, 32);
                let (out_tx, out_rx) = Stream::new(8, 32);
                let (src, q) = PacketSource::new("src", in_tx);
                let stage = PacketStage::new(
                    "stage",
                    in_rx,
                    out_tx,
                    lat,
                    |_p: &mut PktBuf, _m: &mut Meta, _t: Time| StageAction::Forward,
                )
                .with_burst(burst == 1);
                let (sink, cap) = PacketSink::new("sink", out_rx);
                sim.add_module(clks[ca % clks.len()], src);
                sim.add_module(clks[cb % clks.len()], stage);
                sim.add_module(clks[cb % clks.len()], sink);
                injects.push(q);
                caps.push(cap);
            }
            let inject = |batch: &[(usize, usize)]| {
                for (i, &(p, len)) in batch.iter().enumerate() {
                    injects[p % injects.len()]
                        .push(vec![(i as u8).wrapping_mul(31); len], (p % 4) as u8);
                }
            };
            inject(&phase1);
            let mid = segments.len() / 2;
            for (k, &(kind, amt)) in segments.iter().enumerate() {
                if k == mid {
                    inject(&phase2); // wake an idle (possibly fast-forwarded) sim
                }
                if kind == 0 {
                    sim.run_for(Time::from_ps(amt * 3_500));
                } else {
                    sim.run_cycles(clks[(amt as usize) % clks.len()], amt);
                }
            }
            sim.run_for(Time::from_us(3)); // settle: drain every pipeline
            let caps: Vec<Vec<CapturedPacket>> = caps.iter().map(|c| c.drain()).collect();
            let cycles: Vec<u64> = clks.iter().map(|&c| sim.cycles(c)).collect();
            (caps, sim.now(), cycles)
        };

        // Idle stretches really are skipped, and everything observable —
        // packets, arrival times, final now, per-domain cycle counts —
        // must still match the naive scan.
        let naive = run(SchedulerMode::Scan, false);
        prop_assert_eq!(&run(SchedulerMode::Auto, true), &naive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Copy-on-write isolation: flood and mirror copies are refcount bumps
    /// of one backing buffer, so corrupting *one* copy in flight (a BER
    /// flip through `WireFrame::corrupt_data`) must never leak into its
    /// siblings — they keep the pristine bytes and the fresh FCS.
    #[test]
    fn prop_flood_cow_isolation(
        payload in proptest::collection::vec(any::<u8>(), 60..512),
        fanout in 2usize..6,
        victim_sel in 0usize..6,
        seed in 1u64..1_000,
    ) {
        use netfpga_core::pktbuf::PktBuf;
        use netfpga_core::sim::Simulator;
        use netfpga_phy::link::{Link, LinkConfig};
        use netfpga_phy::mac::{Wire, WireFrame};

        let victim = victim_sel % fanout;
        let buf = PktBuf::from_vec(payload.clone());
        let fcs = netfpga_packet::fcs::crc32(&buf);

        // "Flood": one buffer, `fanout` wires, each frame a refcount bump.
        let wires: Vec<Wire> = (0..fanout).map(|_| Wire::new()).collect();
        for w in &wires {
            w.push(WireFrame::with_fcs(buf.clone(), Time::ZERO, fcs));
        }

        // Corrupt exactly the victim's copy via an always-corrupting link.
        let mut sim = Simulator::new();
        let clk = sim.add_clock("c", Frequency::mhz(200));
        let out = Wire::new();
        let cfg = LinkConfig { corrupt_probability: 1.0, seed, ..LinkConfig::default() };
        sim.add_module(clk, Link::new("l", wires[victim].clone(), out.clone(), cfg));
        sim.run_until(Time::from_us(1));

        let corrupted = out.take_ready(Time::from_ms(1)).expect("forwarded");
        prop_assert_ne!(corrupted.data.bytes(), &payload[..], "victim must differ");
        prop_assert!(!corrupted.fcs_fresh, "corruption must stale the FCS");
        prop_assert!(
            !corrupted.data.same_backing(&buf),
            "corruption must have copied, not edited the shared backing"
        );
        // Every sibling — and the original buffer — is bit-identical
        // pristine, still sharing the one backing, FCS still fresh.
        prop_assert_eq!(buf.bytes(), &payload[..]);
        for (i, w) in wires.iter().enumerate() {
            if i == victim {
                continue;
            }
            let f = w.take_ready(Time::from_ms(1)).expect("untouched sibling");
            prop_assert_eq!(f.data.bytes(), &payload[..], "sibling {} mutated", i);
            prop_assert!(f.fcs_fresh, "sibling {} FCS went stale", i);
            prop_assert!(f.data.same_backing(&buf), "sibling {} was copied", i);
        }
    }

    /// Pool and scheduler invariance under flood + faults: a broadcast
    /// (flood) workload through the reference switch with a seeded BER
    /// fault plan delivers *bit-identical* frames, fault traces and
    /// counters whether the frame pool is on or off, under every scheduler
    /// mode — recycling buffers and bumping refcounts instead of copying
    /// is invisible to every observable.
    #[test]
    fn prop_flood_replay_identical_with_pool_on_and_off(
        frames in proptest::collection::vec((0usize..4, 46usize..220), 1..12),
        ber_exp in 4u32..7,
        seed in 0u64..500,
    ) {
        use netfpga_core::pktbuf;
        use netfpga_core::sim::SchedulerMode;
        use netfpga_faults::{FaultKind, FaultPlan};

        let run = |mode: SchedulerMode, pool: bool| {
            pktbuf::reset_pool();
            pktbuf::set_pool_enabled(pool);
            let plan = FaultPlan::new(seed).at(
                Time::ZERO,
                FaultKind::SetBer { port: 1, ber: 10f64.powi(-(ber_exp as i32)) },
            );
            let mut sw = ReferenceSwitch::with_faults(
                &BoardSpec::sume(), 4, 256, Time::from_ms(100), false, plan,
            );
            sw.chassis.sim.set_scheduler_mode(mode);
            // Unknown unicast destinations -> every frame floods to the
            // other three ports as refcount bumps of one buffer.
            for (i, &(port, len)) in frames.iter().enumerate() {
                let f = PacketBuilder::new()
                    .eth(mac(port as u8 + 1), mac(0xee))
                    .raw(netfpga_packet::EtherType::Ipv4, &vec![i as u8; len])
                    .build();
                sw.chassis.send(port, f);
                sw.chassis.run_for(Time::from_us(2));
            }
            sw.chassis.run_for(Time::from_us(200));
            let recv: Vec<Vec<Vec<u8>>> = (0..4).map(|p| sw.chassis.recv(p)).collect();
            let faults = sw.chassis.faults.clone().expect("armed plan");
            let counters = (
                faults.counters().ber_flips.get(),
                faults.counters().frames_corrupted.get(),
            );
            let trace = faults.trace();
            pktbuf::set_pool_enabled(true);
            (recv, counters, trace)
        };

        let base = run(SchedulerMode::Scan, true);
        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            for pool in [true, false] {
                prop_assert_eq!(
                    &run(mode, pool), &base,
                    "flood replay diverged under {:?} pool={}", mode, pool
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Quiescence never skips a scheduled fault: a `FaultPlan` event deep
    /// inside an idle stretch is exactly where fast-forwarding is tempted
    /// to jump — the injector's `activity` bound must hold the kernel back so
    /// the link-down window opens at its scheduled instant, not late. A
    /// frame offered inside the window is dropped (and counted) and a
    /// frame after it floods, identically with and without idle skipping.
    #[test]
    fn prop_fault_events_survive_idle_fast_forward(
        gap_us in 10u64..400,
        down_us in 10u64..60,
        seed in 0u64..1000,
    ) {
        use netfpga_faults::{FaultKind, FaultPlan};

        let gap = Time::from_us(gap_us);
        let down = Time::from_us(down_us);
        let run = |idle_skip: bool| {
            let plan = FaultPlan::new(seed)
                .at(gap, FaultKind::LinkDown { port: 0, duration: down });
            let mut sw = ReferenceSwitch::with_faults(
                &BoardSpec::sume(), 4, 256, Time::from_ms(100), false, plan,
            );
            sw.chassis.sim.set_idle_skip(idle_skip);
            // Idle across the scheduled event: nothing in flight, so a
            // kernel that trusts a stale quiescence promise would jump
            // straight past `gap`.
            sw.chassis.run_for(gap + Time::from_us(2));
            // Offer a frame inside the down window: must be dropped.
            let f = PacketBuilder::new()
                .eth(mac(1), mac(2))
                .raw(netfpga_packet::EtherType::Ipv4, &[7; 46])
                .build();
            sw.chassis.send(0, f.clone());
            sw.chassis.run_for(down + Time::from_us(100));
            // And one after the window: link is back, frame floods.
            sw.chassis.send(0, f);
            sw.chassis.run_for(Time::from_us(50));
            let faults = sw.chassis.faults.clone().expect("armed plan");
            let recv: Vec<usize> = (0..4).map(|p| sw.chassis.recv(p).len()).collect();
            (
                recv,
                faults.counters().link_down_drops.get(),
                faults.counters().events_applied.get(),
                faults.trace(),
            )
        };

        let skipped = run(true);
        prop_assert_eq!(skipped.1, 1, "frame in the window must be dropped");
        prop_assert_eq!(&skipped.0, &vec![0, 1, 1, 1], "frame after it must flood");
        prop_assert_eq!(&skipped, &run(false), "idle skipping must change nothing");
    }

    /// The autonomic recovery plane is schedule-invariant: with the PCS
    /// retrain state machine healing a link flap (no restore event), the
    /// down edge and the recovery edge land on the *same simulated
    /// instant* under every scheduler mode with idle skipping on or off —
    /// the retrain FSM and the injector compose with idle fast-forward.
    #[test]
    fn prop_recovery_completes_at_the_same_cycle_under_every_scheduler(
        gap_us in 5u64..100,
        down_us in 5u64..40,
        retrain in 50u64..1500,
        holddown in 20u64..500,
    ) {
        use netfpga_core::sim::SchedulerMode;
        use netfpga_faults::{FaultKind, FaultPlan, RecoveryPolicy};

        let run = |mode: SchedulerMode, idle_skip: bool| {
            let plan = FaultPlan::new(1)
                .at(
                    Time::from_us(gap_us),
                    FaultKind::LinkDown { port: 1, duration: Time::from_us(down_us) },
                )
                .with_recovery(RecoveryPolicy {
                    retrain_cycles: retrain,
                    holddown_cycles: holddown,
                    rejoin_cycles: 800,
                    scrub_words_per_cycle: 0,
                    ..RecoveryPolicy::default()
                });
            let mut sw = ReferenceSwitch::with_faults(
                &BoardSpec::sume(), 4, 256, Time::from_ms(100), false, plan,
            );
            sw.chassis.sim.set_scheduler_mode(mode);
            sw.chassis.sim.set_idle_skip(idle_skip);
            let pcs = sw.chassis.pcs_handle(1).expect("recovery plane");
            let deadline = Time::from_us(gap_us + down_us) + Time::from_ms(2);
            let p = pcs.clone();
            assert!(sw.chassis.run_while(deadline, move || p.is_up()), "must go down");
            let down_at = sw.chassis.sim.now();
            let p = pcs.clone();
            assert!(sw.chassis.run_while(deadline, move || !p.is_up()), "must recover");
            let up_at = sw.chassis.sim.now();
            let events: Vec<_> = sw
                .chassis
                .events
                .pending()
                .iter()
                .map(|e| (e.kind, e.port, e.data, e.at))
                .collect();
            (down_at, up_at, events, pcs.counters().retrains.get())
        };

        let base = run(SchedulerMode::Scan, false);
        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            for idle_skip in [false, true] {
                prop_assert_eq!(
                    &run(mode, idle_skip), &base,
                    "recovery diverged under {:?} idle_skip={}", mode, idle_skip
                );
            }
        }
    }

    /// The cached-bound protocol is invisible: whether the workload runs
    /// a seeded fault plan (BER set partway through, exercising the
    /// injector's scheduled-event bound) or a flowmon tap in the datapath
    /// (exercising the tap's push-wake and the exporter's sample bound),
    /// the fused dispatcher serving cached activity classifications under
    /// idle skipping delivers bit-identical frames, fault traces and final
    /// clocks to the unfused `Scan` reference that re-queries every module
    /// on every edge.
    #[test]
    fn prop_cached_bounds_invisible_under_faults_and_tap(
        frames in proptest::collection::vec((0usize..4, 46usize..220), 1..10),
        gap_us in 5u64..80,
        ber_exp in 4u32..7,
        seed in 0u64..500,
        tap in any::<bool>(),
    ) {
        use netfpga_core::sim::SchedulerMode;
        use netfpga_faults::{FaultKind, FaultPlan};
        use netfpga_projects::flowmon::FlowmonConfig;

        let run = |mode: SchedulerMode, idle_skip: bool| {
            let mut sw = if tap {
                ReferenceSwitch::with_flowmon(
                    &BoardSpec::sume(), 4, 256, Time::from_ms(100), false,
                    FlowmonConfig::default(),
                )
            } else {
                let plan = FaultPlan::new(seed).at(
                    Time::from_us(gap_us),
                    FaultKind::SetBer { port: 1, ber: 10f64.powi(-(ber_exp as i32)) },
                );
                ReferenceSwitch::with_faults(
                    &BoardSpec::sume(), 4, 256, Time::from_ms(100), false, plan,
                )
            };
            sw.chassis.sim.set_scheduler_mode(mode);
            sw.chassis.sim.set_idle_skip(idle_skip);
            for (i, &(port, len)) in frames.iter().enumerate() {
                let f = PacketBuilder::new()
                    .eth(mac(port as u8 + 1), mac(0xee))
                    .raw(netfpga_packet::EtherType::Ipv4, &vec![i as u8; len])
                    .build();
                sw.chassis.send(port, f);
                // Idle gaps between frames are where a stale cached bound
                // would skip a wake or a scheduled fault.
                sw.chassis.run_for(Time::from_us(3));
            }
            sw.chassis.run_for(Time::from_us(300));
            let recv: Vec<Vec<Vec<u8>>> = (0..4).map(|p| sw.chassis.recv(p)).collect();
            let trace = sw.chassis.faults.as_ref().map(|f| f.trace());
            (recv, trace, sw.chassis.sim.now())
        };

        let reference = run(SchedulerMode::Scan, false);
        prop_assert_eq!(
            &run(SchedulerMode::Auto, true), &reference,
            "cached bounds diverged from the scan reference (tap={})", tap
        );
    }

    /// The background scrubber visits every word of every registered
    /// region within one sweep period: for any memory size, scrub rate
    /// and upset pattern (one flip per word, so no doubles), every flip
    /// is corrected within `ceil(words / rate)` cycles of landing.
    #[test]
    fn prop_scrubber_visits_every_word_within_one_period(
        words_sel in 64usize..2048,
        wpc in 1u32..8,
        flip_words in proptest::collection::btree_set(0usize..64, 1..24),
        start_us in 1u64..40,
    ) {
        use netfpga_core::regs::AddressMap;
        use netfpga_faults::{EccMode, FaultKind, FaultPlan, RecoveryPolicy};
        use netfpga_mem::Bram;
        use netfpga_projects::Chassis;
        use std::cell::RefCell;
        use std::rc::Rc;

        let policy = RecoveryPolicy {
            scrub_words_per_cycle: wpc,
            ..RecoveryPolicy::default()
        };
        let (mut chassis, _io) = Chassis::with_faults(
            &BoardSpec::sume(), 1, AddressMap::new(), false,
            FaultPlan::new(3).with_recovery(policy),
        );
        let faults = chassis.faults.clone().expect("armed");
        faults.register_memory(
            "m",
            EccMode::Secded,
            Rc::new(RefCell::new(Bram::<u64>::new(words_sel))),
        );

        chassis.run_for(Time::from_us(start_us));
        // One flip per distinct word (scaled injectively into the region).
        for (k, w) in flip_words.iter().enumerate() {
            faults.inject(FaultKind::MemFlip {
                memory: "m".into(),
                index: w * words_sel / 64,
                bit: k % 60,
            });
        }
        let period_cycles = (words_sel as u64).div_ceil(u64::from(wpc));
        let period = Time::from_ps(
            chassis.sim.period(chassis.clk).as_ps() * period_cycles,
        );
        chassis.run_for(period + Time::from_us(1));

        prop_assert_eq!(faults.pending_upsets(), 0, "latent flips after a full sweep");
        let stat = |path: &str| chassis.telemetry.get(path).expect(path);
        prop_assert_eq!(stat("faults.mem.corrected"), flip_words.len() as u64);
        prop_assert_eq!(stat("faults.mem.double_upsets"), 0);
        let latencies = faults.scrub_latencies();
        prop_assert_eq!(latencies.len(), flip_words.len());
        for lat in latencies {
            prop_assert!(lat <= period, "correction latency {} beyond one period {}", lat, period);
        }
    }
}

/// Conservation under congestion: for any overload pattern, packets in =
/// packets out + drops (no loss without accounting, no duplication).
#[test]
fn conservation_under_congestion() {
    let r = ReferenceRouter::new(&BoardSpec::sume(), 4);
    {
        let mut t = r.tables.borrow_mut();
        t.port_macs = (0..4).map(|i| mac(0xe0 + i)).collect();
        t.lpm.insert(
            "10.9.0.0/16".parse().unwrap(),
            RouteEntry {
                next_hop: Ipv4Address::UNSPECIFIED,
                port: 3,
            },
        );
        t.arp.insert(Ipv4Address::new(10, 9, 0, 1), mac(0x91));
    }
    let mut r = r;
    // 3 ports full blast into one egress, enough to overflow the 512 KiB
    // output queue (3 x 1200 x 300 B ≈ 1 MiB of backlog demand).
    let n_per_port = 1200u64;
    for port in 0..3usize {
        for i in 0..n_per_port {
            let f = PacketBuilder::new()
                .eth(mac(0xa1 + port as u8), mac(0xe0))
                .ipv4(
                    Ipv4Address::new(10, 0, port as u8, 2),
                    Ipv4Address::new(10, 9, 0, 1),
                )
                .udp(i as u16, 2, &[])
                .pad_to(300)
                .build();
            r.chassis.send(port, f);
        }
    }
    r.chassis.run_for(Time::from_ms(3));
    let egressed = r.chassis.recv(3).len() as u64;
    let counters = r.counters.borrow();
    // Every ingress frame was routed (forwarded counter), then either
    // egressed or tail-dropped in the output queues.
    assert_eq!(counters.forwarded, 3 * n_per_port);
    assert!(egressed <= 3 * n_per_port);
    assert!(egressed > 0);
    // The router's MAC counters account for the rest as queue drops; the
    // key invariant is no duplication:
    assert!(
        egressed + 10 < 3 * n_per_port,
        "congestion must drop (sanity)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The auto-mounted stat block honours the register-space contract for
    /// ANY registry shape: reads outside its span (and in the padding past
    /// the name blob) return `UNMAPPED_READ`; writes to read-only offsets
    /// (header, name table, gauge values) change nothing; a write to a
    /// counter slot clears that counter and only that counter.
    #[test]
    fn prop_stat_block_span_and_readonly(
        name_ids in proptest::collection::btree_set(0u32..10_000, 1..12),
        values in proptest::collection::vec(0u64..5_000, 12),
        gauge_mask in proptest::collection::vec(any::<bool>(), 12),
        probe_words in proptest::collection::vec(0u32..0x200, 1..16),
        write_word in 0u32..0x200,
    ) {
        use netfpga_core::regs::{shared, AddressMap, UNMAPPED_READ};
        use netfpga_core::telemetry::{StatBlock, StatRegistry};

        let reg = StatRegistry::new();
        // Injective id → dotted-path mapping (unique ids, unique paths).
        let names: Vec<String> =
            name_ids.iter().map(|v| format!("grp{}.stat{}", v / 100, v % 100)).collect();
        for (i, name) in names.iter().enumerate() {
            let value = values[i % values.len()];
            if gauge_mask[i % gauge_mask.len()] {
                reg.gauge(name, move || value);
            } else {
                reg.counter(name).add(value);
            }
        }
        let block = StatBlock::from_registry(&reg, "");
        let size = block.size_bytes();
        let count = block.count() as u32;
        let values_off = 0x10u32;
        let names_off = values_off + 4 * count;

        const BASE: u32 = 0x4000;
        let map = AddressMap::new();
        map.mount("telemetry", BASE, (size + 0xff) & !0xff, shared(block));
        let read = |map: &AddressMap, off: u32| map.read(BASE + off);

        // Everything at or past the blob (padding included) is unmapped.
        for &w in &probe_words {
            let off = size + w * 4;
            prop_assert_eq!(read(&map, off), UNMAPPED_READ, "offset {:#x}", off);
        }

        let before = reg.snapshot();
        // Writes to the header and the name table are ignored.
        for off in [0x0, 0x4, 0x8, 0xC, names_off, size - 4] {
            map.write(BASE + off, 0xffff_ffff);
        }
        // Writes to gauge slots are ignored too; sorted registry order
        // matches block order, so slot i belongs to snapshot entry i.
        for (i, (path, _)) in before.iter().enumerate() {
            if !reg.clearable(path) {
                map.write(BASE + values_off + 4 * i as u32, 0);
            }
        }
        prop_assert_eq!(reg.snapshot(), before.clone(), "read-only offsets mutated state");

        // A write to one counter slot clears exactly that counter.
        let target = (write_word % count) as usize;
        map.write(BASE + values_off + 4 * target as u32, 0);
        for (i, (path, value)) in reg.snapshot().iter().enumerate() {
            let expect = if i == target && reg.clearable(path) { 0 } else { before[i].1 };
            prop_assert_eq!(*value, expect, "stat {:?} after clearing slot {}", path, target);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The reliable host-I/O plane is exactly-once and schedule-invariant:
    /// under a seeded fault plan that stalls and drops the DMA engine
    /// (no wedge — retry alone must heal), every frame the channel accepts
    /// exits the wire exactly once (no loss, no duplicates, acks equal
    /// accepts), and the delivered byte stream, retry count and dedup
    /// counters are bit-identical across scan and cached scheduling
    /// with idle fast-forward on or off.
    #[test]
    fn prop_reliable_channel_exactly_once_and_schedule_invariant(
        stall_us in 0u64..50,
        drop_us in 0u64..40,
        nframes in 4usize..20,
        seed in 0u64..1000,
    ) {
        use netfpga_core::sim::SchedulerMode;
        use netfpga_core::stream::{Meta, PortMask};
        use netfpga_faults::{FaultKind, FaultPlan};
        use netfpga_host::{ReliableChannel, ReliableConfig};
        use netfpga_projects::reference_nic::ReferenceNic;
        use std::collections::BTreeSet;

        let run = |mode: SchedulerMode, idle_skip: bool| {
            let mut plan = FaultPlan::new(seed);
            if stall_us > 0 {
                plan = plan.at(
                    Time::from_us(20),
                    FaultKind::DmaStall { duration: Time::from_us(stall_us) },
                );
            }
            if drop_us > 0 {
                plan = plan.at(
                    Time::from_us(45),
                    FaultKind::DmaDrop { duration: Time::from_us(drop_us) },
                );
            }
            let mut nic = ReferenceNic::with_faults(&BoardSpec::sume(), 4, false, plan);
            nic.chassis.sim.set_scheduler_mode(mode);
            nic.chassis.sim.set_idle_skip(idle_skip);
            let dma = nic.chassis.dma.clone().expect("NIC has DMA");
            // A generous attempt cap: loss is never a legal outcome here.
            let config = ReliableConfig { max_attempts: 32, ..ReliableConfig::default() };
            let (driver, channel) =
                ReliableChannel::new("reliable", dma.clone(), config, seed ^ 0x5eed);
            let clk = nic.chassis.clk;
            nic.chassis.sim.add_module(clk, driver);

            let meta = Meta { dst_ports: PortMask::single(1), ..Default::default() };
            for k in 0..nframes {
                let f = PacketBuilder::new()
                    .eth(mac(0xee), mac(0xa0))
                    .raw(netfpga_packet::EtherType::Ipv4, &[k as u8; 46])
                    .build();
                assert!(channel.send(f, meta), "pending queue is deep enough");
                nic.chassis.run_for(Time::from_us(3));
            }
            let deadline = nic.chassis.sim.now() + Time::from_ms(5);
            while !channel.idle() && nic.chassis.sim.now() < deadline {
                nic.chassis.run_for(Time::from_us(10));
            }
            nic.chassis.run_for(Time::from_us(50));
            (
                nic.chassis.recv(1),
                channel.accepted(),
                channel.abandoned(),
                channel.retries(),
                dma.acked(),
                dma.dup_discards(),
            )
        };

        let base = run(SchedulerMode::Scan, false);
        let (delivered, accepted, abandoned, _, acked, _) = &base;
        prop_assert_eq!(*accepted, nframes as u64, "every offer fits the pending queue");
        prop_assert_eq!(*abandoned, 0, "retry must outlast every stall/drop window");
        let mut seen = BTreeSet::new();
        for f in delivered {
            prop_assert!(seen.insert(f.clone()), "duplicate frame on the wire");
        }
        prop_assert_eq!(seen.len() as u64, *accepted, "every accepted frame delivered once");
        prop_assert_eq!(*acked, *accepted, "every sequence acked exactly once");

        for mode in [SchedulerMode::Scan, SchedulerMode::Auto] {
            for idle_skip in [false, true] {
                prop_assert_eq!(
                    &run(mode, idle_skip), &base,
                    "reliable delivery diverged under {:?} idle_skip={}", mode, idle_skip
                );
            }
        }
    }
}
