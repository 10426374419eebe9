//! Packet-level endpoints for driving and observing word-level streams.
//!
//! [`PacketSource`] turns queued packets into bus words (one word per cycle,
//! respecting back-pressure); [`PacketSink`] reassembles words back into
//! packets and records their arrival time. These are the simulation-side
//! stand-ins for "the rest of the world" in unit tests and experiments; the
//! MAC models in `netfpga-phy` add wire-rate pacing on top.

use crate::pktbuf::PktBuf;
use crate::sim::{Activity, Module, TickContext, WakeHandle};
use crate::stream::{segment_buf, Meta, PortMask, Reassembler, StreamRx, StreamTx};
use crate::time::Time;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Queue storage shared between the handle and the source module.
type SharedPacketQueue = Rc<RefCell<VecDeque<(PktBuf, Meta)>>>;

/// A queue of packets shared with a [`PacketSource`] so tests can inject
/// packets while the simulation runs.
#[derive(Debug, Clone, Default)]
pub struct InjectQueue {
    inner: SharedPacketQueue,
    /// The owning [`PacketSource`]'s activity-cache flag: injections are
    /// the only external channel that can un-idle a source.
    wake: Rc<RefCell<Option<WakeHandle>>>,
}

impl InjectQueue {
    /// An empty queue.
    pub fn new() -> InjectQueue {
        InjectQueue::default()
    }

    /// Queue a packet with explicit metadata.
    pub fn push_with_meta(&self, packet: impl Into<PktBuf>, meta: Meta) {
        let packet = packet.into();
        assert!(!packet.is_empty(), "empty packet");
        self.inner.borrow_mut().push_back((packet, meta));
        if let Some(w) = &*self.wake.borrow() {
            w.wake();
        }
    }

    /// Queue a packet arriving on `src_port`; length is filled in and the
    /// destination mask left empty (a lookup stage decides it).
    pub fn push(&self, packet: impl Into<PktBuf>, src_port: u8) {
        let packet = packet.into();
        let meta = Meta {
            len: packet.len() as u16,
            src_port,
            dst_ports: PortMask::EMPTY,
            ingress_time: Time::ZERO,
            flags: 0,
        };
        self.push_with_meta(packet, meta);
    }

    /// Packets not yet emitted.
    pub fn pending(&self) -> usize {
        self.inner.borrow().len()
    }
}

/// Emits queued packets as bus words, one word per cycle, stamping
/// `ingress_time` on each packet's first word.
pub struct PacketSource {
    name: String,
    queue: InjectQueue,
    tx: StreamTx,
    current: VecDeque<crate::stream::Word>,
    sent_packets: u64,
    sent_bytes: u64,
    /// Activity-cache invalidation flag, registered on the inject queue.
    wake: WakeHandle,
}

impl PacketSource {
    /// Create a source feeding `tx`, returning the source and its queue.
    pub fn new(name: &str, tx: StreamTx) -> (PacketSource, InjectQueue) {
        let queue = InjectQueue::new();
        let wake = WakeHandle::new();
        *queue.wake.borrow_mut() = Some(wake.clone());
        (
            PacketSource {
                name: name.to_string(),
                queue: queue.clone(),
                tx,
                current: VecDeque::new(),
                sent_packets: 0,
                sent_bytes: 0,
                wake,
            },
            queue,
        )
    }

    /// Packets fully emitted so far.
    pub fn sent_packets(&self) -> u64 {
        self.sent_packets
    }

    /// Bytes fully emitted so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// True when both the queue and the in-flight word buffer are empty.
    pub fn idle(&self) -> bool {
        self.current.is_empty() && self.queue.pending() == 0
    }
}

impl Module for PacketSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        if self.current.is_empty() {
            if let Some((packet, mut meta)) = self.queue.inner.borrow_mut().pop_front() {
                meta.ingress_time = ctx.now;
                meta.len = packet.len() as u16;
                self.sent_bytes += packet.len() as u64;
                self.sent_packets += 1;
                self.current = segment_buf(&packet, self.tx.width(), meta).into();
            }
        }
        if !self.current.is_empty() && self.tx.can_push() {
            let word = self.current.pop_front().expect("checked non-empty");
            self.tx.push(word);
        }
    }

    fn reset(&mut self) {
        self.current.clear();
        self.queue.inner.borrow_mut().clear();
        self.sent_packets = 0;
        self.sent_bytes = 0;
    }

    /// With no queued packet and no in-flight words, a tick does nothing at
    /// any future edge until a packet is injected.
    fn activity(&self) -> Activity {
        if self.idle() {
            Activity::Quiescent
        } else {
            Activity::Active
        }
    }

    /// Only injections can un-idle a source; downstream space never changes
    /// its classification (in-flight words keep it active either way).
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

/// A packet captured by a [`PacketSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// The packet bytes (a refcounted view; compare or index it like a
    /// slice, or call [`PktBuf::to_vec`] for an owned copy).
    pub data: PktBuf,
    /// Metadata from the first word.
    pub meta: Meta,
    /// Time the last word was consumed (egress completion).
    pub arrival: Time,
}

/// Shared capture buffer filled by a [`PacketSink`].
#[derive(Debug, Clone, Default)]
pub struct CaptureBuffer {
    inner: Rc<RefCell<VecDeque<CapturedPacket>>>,
    bytes: Rc<RefCell<u64>>,
    packets: Rc<RefCell<u64>>,
}

impl CaptureBuffer {
    /// An empty buffer.
    pub fn new() -> CaptureBuffer {
        CaptureBuffer::default()
    }

    /// Remove and return the oldest captured packet.
    pub fn pop(&self) -> Option<CapturedPacket> {
        self.inner.borrow_mut().pop_front()
    }

    /// Packets currently buffered (not yet popped).
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// True if no packet is waiting.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Drain everything captured so far.
    pub fn drain(&self) -> Vec<CapturedPacket> {
        self.inner.borrow_mut().drain(..).collect()
    }

    /// Total packets ever captured (monotonic, unaffected by `pop`).
    pub fn total_packets(&self) -> u64 {
        *self.packets.borrow()
    }

    /// Total bytes ever captured.
    pub fn total_bytes(&self) -> u64 {
        *self.bytes.borrow()
    }
}

/// Consumes one word per cycle from `rx`, reassembling packets into a
/// [`CaptureBuffer`].
pub struct PacketSink {
    name: String,
    rx: StreamRx,
    reasm: Reassembler,
    buffer: CaptureBuffer,
    /// Activity-cache invalidation flag, registered on the input stream.
    wake: WakeHandle,
}

impl PacketSink {
    /// Create a sink draining `rx`, returning the sink and its buffer.
    pub fn new(name: &str, rx: StreamRx) -> (PacketSink, CaptureBuffer) {
        let buffer = CaptureBuffer::new();
        let wake = WakeHandle::new();
        rx.set_wake(wake.clone());
        (
            PacketSink {
                name: name.to_string(),
                rx,
                reasm: Reassembler::new(),
                buffer: buffer.clone(),
                wake,
            },
            buffer,
        )
    }
}

impl Module for PacketSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        if let Some(word) = self.rx.pop() {
            if let Some((data, meta)) = self.reasm.push(word) {
                *self.buffer.bytes.borrow_mut() += data.len() as u64;
                *self.buffer.packets.borrow_mut() += 1;
                self.buffer.inner.borrow_mut().push_back(CapturedPacket {
                    data,
                    meta,
                    arrival: ctx.now,
                });
            }
        }
    }

    fn reset(&mut self) {
        self.reasm = Reassembler::new();
        self.buffer.inner.borrow_mut().clear();
        *self.buffer.bytes.borrow_mut() = 0;
        *self.buffer.packets.borrow_mut() = 0;
    }

    /// With nothing to pop, a tick does nothing until upstream pushes
    /// (even mid-packet: reassembly only advances on a popped word).
    fn activity(&self) -> Activity {
        if self.rx.can_pop() {
            Activity::Active
        } else {
            Activity::Quiescent
        }
    }

    /// Only upstream pushes can un-idle a sink.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::stream::Stream;
    use crate::time::Frequency;

    /// Source wired straight into sink: everything arrives intact, in order,
    /// with sensible timestamps.
    #[test]
    fn source_to_sink_roundtrip() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (tx, rx) = Stream::new(4, 32);
        let (source, inject) = PacketSource::new("src", tx);
        let (sink, capture) = PacketSink::new("dst", rx);
        sim.add_module(clk, source);
        sim.add_module(clk, sink);

        let p1: Vec<u8> = (0..100).collect();
        let p2: Vec<u8> = vec![0xaa; 64];
        inject.push(p1.clone(), 0);
        inject.push(p2.clone(), 1);

        sim.run_cycles(clk, 50);
        assert_eq!(capture.len(), 2);
        let c1 = capture.pop().unwrap();
        assert_eq!(c1.data, p1);
        assert_eq!(c1.meta.src_port, 0);
        assert_eq!(c1.meta.len, 100);
        assert!(c1.meta.ingress_time > Time::ZERO);
        assert!(c1.arrival >= c1.meta.ingress_time);
        let c2 = capture.pop().unwrap();
        assert_eq!(c2.data, p2);
        assert_eq!(c2.meta.src_port, 1);
        assert_eq!(capture.total_packets(), 2);
        assert_eq!(capture.total_bytes(), 164);
    }

    /// One word per cycle: a 100-byte packet on a 32-byte bus takes 4 cycles
    /// of channel occupancy; throughput is bounded accordingly.
    #[test]
    fn source_paces_one_word_per_cycle() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        let (tx, rx) = Stream::new(64, 32);
        let (source, inject) = PacketSource::new("src", tx);
        sim.add_module(clk, source);
        inject.push(vec![1u8; 100], 0); // 4 words
        sim.run_cycles(clk, 3);
        assert_eq!(rx.total_pushed(), 3);
        sim.run_cycles(clk, 1);
        assert_eq!(rx.total_pushed(), 4);
    }

    /// Back-pressure: a full downstream FIFO stalls the source without loss.
    #[test]
    fn source_respects_backpressure() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        let (tx, rx) = Stream::new(2, 32);
        let (source, inject) = PacketSource::new("src", tx);
        sim.add_module(clk, source);
        inject.push(vec![7u8; 320], 0); // 10 words >> capacity 2
        sim.run_cycles(clk, 20);
        assert_eq!(rx.occupancy(), 2); // stalled, nothing lost
                                       // Drain two words; source refills.
        let mut r = Reassembler::new();
        r.push(rx.pop().unwrap());
        r.push(rx.pop().unwrap());
        sim.run_cycles(clk, 2);
        assert_eq!(rx.occupancy(), 2);
        let mut got = None;
        let mut safety = 0;
        while got.is_none() {
            if let Some(w) = rx.pop() {
                got = r.push(w);
            } else {
                sim.run_cycles(clk, 1);
            }
            safety += 1;
            assert!(safety < 100, "packet never completed");
        }
        assert_eq!(got.unwrap().0, vec![7u8; 320]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(100));
        let (tx, rx) = Stream::new(8, 32);
        let (source, inject) = PacketSource::new("src", tx);
        let (sink, capture) = PacketSink::new("dst", rx);
        sim.add_module(clk, source);
        sim.add_module(clk, sink);
        inject.push(vec![1; 32], 0);
        sim.run_cycles(clk, 5);
        assert_eq!(capture.total_packets(), 1);
        sim.reset();
        assert_eq!(capture.total_packets(), 0);
        assert!(capture.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty packet")]
    fn empty_packet_rejected() {
        InjectQueue::new().push(Vec::new(), 0);
    }
}
