//! A fixed-delay stage: holds each packet for a configured time before
//! forwarding. Used to emulate a device-under-test for OSNT latency
//! experiments and to pad pipeline timing in composed designs.

use netfpga_core::sim::{Activity, Module, TickContext, WakeHandle};
use netfpga_core::stream::{segment, Reassembler, StreamRx, StreamTx, Word};
use netfpga_core::time::Time;
use std::collections::VecDeque;

/// Store-and-forward delay element.
pub struct DelayStage {
    name: String,
    input: StreamRx,
    output: StreamTx,
    delay: Time,
    reasm: Reassembler,
    /// (release_time, words) in arrival order.
    held: VecDeque<(Time, VecDeque<Word>)>,
    emitting: VecDeque<Word>,
    packets: u64,
    /// Activity-cache invalidation flag, registered on the input and the
    /// output (pops free the space a stalled emission waits on).
    wake: WakeHandle,
}

impl DelayStage {
    /// Hold each packet `delay` after its full arrival.
    pub fn new(name: &str, input: StreamRx, output: StreamTx, delay: Time) -> DelayStage {
        let wake = WakeHandle::new();
        input.set_wake(wake.clone());
        output.set_wake(wake.clone());
        DelayStage {
            name: name.to_string(),
            input,
            output,
            delay,
            reasm: Reassembler::new(),
            held: VecDeque::new(),
            emitting: VecDeque::new(),
            packets: 0,
            wake,
        }
    }

    /// Packets forwarded.
    pub fn packets(&self) -> u64 {
        self.packets
    }
}

impl Module for DelayStage {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &TickContext) {
        if let Some(word) = self.input.pop() {
            if let Some((packet, meta)) = self.reasm.push(word) {
                let words = segment(&packet, self.output.width(), meta);
                self.held.push_back((ctx.now + self.delay, words.into()));
            }
        }
        if self.emitting.is_empty() {
            if let Some(&(release, _)) = self.held.front() {
                if release <= ctx.now {
                    self.emitting = self.held.pop_front().expect("front exists").1;
                    self.packets += 1;
                }
            }
        }
        if !self.emitting.is_empty() && self.output.can_push() {
            let word = self.emitting.pop_front().expect("non-empty");
            self.output.push(word);
        }
    }

    fn reset(&mut self) {
        self.reasm = Reassembler::new();
        self.held.clear();
        self.emitting.clear();
        self.packets = 0;
    }

    /// Idle when nothing is buffered at any of the three holding points:
    /// with no word to pop, no held packet and nothing staged, a tick
    /// cannot have an effect until upstream pushes. With nothing to ingest
    /// or emit but packets waiting out the delay, the tick is a no-op until
    /// the earliest release instant — exactly the gate the emit path checks
    /// against `now`.
    fn activity(&self) -> Activity {
        if self.input.can_pop() || !self.emitting.is_empty() {
            return Activity::Active;
        }
        match self.held.front() {
            Some(&(release, _)) => Activity::Until(release),
            None => Activity::Quiescent,
        }
    }

    /// External activity channels: pushes into the input, pops from the
    /// output.
    fn wake_handle(&self) -> Option<WakeHandle> {
        Some(self.wake.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfpga_core::packetio::{PacketSink, PacketSource};
    use netfpga_core::sim::Simulator;
    use netfpga_core::stream::Stream;
    use netfpga_core::time::Frequency;

    fn rig(
        delay: Time,
    ) -> (
        Simulator,
        netfpga_core::packetio::InjectQueue,
        netfpga_core::packetio::CaptureBuffer,
    ) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("core", Frequency::mhz(200));
        let (in_tx, in_rx) = Stream::new(8, 32);
        let (out_tx, out_rx) = Stream::new(8, 32);
        let (src, inject) = PacketSource::new("src", in_tx);
        let stage = DelayStage::new("delay", in_rx, out_tx, delay);
        let (sink, cap) = PacketSink::new("sink", out_rx);
        sim.add_module(clk, src);
        sim.add_module(clk, stage);
        sim.add_module(clk, sink);
        (sim, inject, cap)
    }

    #[test]
    fn adds_at_least_the_configured_delay() {
        let delay = Time::from_us(3);
        let (mut sim, inject, cap) = rig(delay);
        inject.push(vec![0u8; 64], 0);
        sim.run_until(Time::from_us(10));
        let c = cap.pop().unwrap();
        let latency = c.arrival - c.meta.ingress_time;
        assert!(latency >= delay, "latency {latency}");
        assert!(
            latency < delay + Time::from_us(1),
            "latency {latency} way over"
        );
    }

    #[test]
    fn order_preserved() {
        let (mut sim, inject, cap) = rig(Time::from_us(1));
        for i in 0..10u8 {
            inject.push(vec![i; 128], 0);
        }
        sim.run_until(Time::from_us(50));
        let seq: Vec<u8> = cap.drain().iter().map(|c| c.data[0]).collect();
        assert_eq!(seq, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_delay_passthrough() {
        let (mut sim, inject, cap) = rig(Time::ZERO);
        inject.push(vec![9u8; 256], 2);
        sim.run_until(Time::from_us(5));
        let c = cap.pop().unwrap();
        assert_eq!(c.data, vec![9u8; 256]);
        assert_eq!(c.meta.src_port, 2);
    }

    /// A fully received packet leaves the stage inert until exactly its
    /// release instant: arrival plus the configured delay.
    #[test]
    fn activity_bound_is_the_release_instant() {
        let (in_tx, in_rx) = Stream::new(8, 32);
        let (out_tx, _out_rx) = Stream::new(8, 32);
        let delay = Time::from_us(3);
        let mut stage = DelayStage::new("delay", in_rx, out_tx, delay);
        assert_eq!(stage.activity(), Activity::Quiescent);
        for w in segment(&[7u8; 64], 32, netfpga_core::stream::Meta::default()) {
            in_tx.push(w);
        }
        assert_eq!(stage.activity(), Activity::Active, "words to ingest");
        let period = Time::from_ns(5);
        for cycle in 0..2 {
            let now = Time::from_ps((cycle + 1) * period.as_ps());
            stage.tick(&TickContext { now, cycle, period });
        }
        // The second word completed the packet at 10 ns.
        assert_eq!(stage.activity(), Activity::Until(Time::from_ns(10) + delay));
    }
}
