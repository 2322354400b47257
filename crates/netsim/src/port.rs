//! Output ports: a link (rate + propagation delay) fronted by a queue
//! discipline.
//!
//! A [`Port`] serializes one packet at a time. While busy, arriving packets
//! go to the discipline; when a transmission completes the port asks the
//! discipline for the next packet. Agents embed ports and forward
//! [`crate::sim::Agent::on_tx_complete`] callbacks to them.
//!
//! # On-demand completions
//!
//! A transmit-complete whose queue is empty would only make an empty
//! `dequeue`, so it is queued only when a packet waits for it. Starting a
//! transmission *reserves* the completion's `(time, seq)` queue key, which
//! takes the sequence number scheduling it would have taken, and queues
//! the event under that key at once if a backlog remains, or later when a
//! packet is queued behind the one on the wire. Until then the port is busy
//! exactly while the event being dispatched orders before the reserved key,
//! so every send sees the state the always-scheduled completion would have
//! left, and the event order is unchanged bit for bit (DESIGN.md §15).

use crate::disc::{Discipline, QEntry};
use crate::event::key_time;
use crate::packet::{AgentId, Packet};
use crate::sim::Context;
use crate::time::{Rate, SimDuration};

/// Counters kept by every port.
#[derive(Debug, Clone, Default)]
pub struct PortStats {
    /// Packets fully serialized onto the link.
    pub tx_packets: u64,
    /// Bytes fully serialized onto the link.
    pub tx_bytes: u64,
    /// Packets dropped by the discipline, total.
    pub dropped_packets: u64,
    /// Bytes dropped by the discipline, total.
    pub dropped_bytes: u64,
    /// Per-class drop counts (classes 0..=3; higher classes fold into 3).
    pub drops_by_class: [u64; 4],
    /// Per-class transmit counts.
    pub tx_by_class: [u64; 4],
    /// Accumulated serialization time. A packet's whole transmit time is
    /// counted when it starts serializing.
    pub busy_time: SimDuration,
}

impl PortStats {
    /// Link utilization over `elapsed` time.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy_time.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

/// The completion of the packet on the wire: the queue key reserved for its
/// event, and whether the event has been queued under it.
#[derive(Debug, Clone, Copy)]
struct TxDone {
    key: u128,
    armed: bool,
}

/// An output port transmitting towards a fixed peer agent.
#[derive(Debug)]
pub struct Port {
    /// Agent at the far end of the link.
    pub peer: AgentId,
    /// Link rate.
    pub rate: Rate,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Index of this port within its owning agent (used to route
    /// `TxComplete` events back here).
    pub index: usize,
    disc: Box<dyn Discipline>,
    /// Completion of the packet on the wire, if one is serializing or its
    /// unqueued completion has not been settled yet.
    tx: Option<TxDone>,
    /// Rate the port was built with; [`Port::set_rate_factor`] scales
    /// relative to this so repeated degradations do not compound.
    nominal_rate: Rate,
    /// Link state: while down the port stops serializing (fault injection).
    up: bool,
    /// Statistics.
    pub stats: PortStats,
    scratch_drops: Vec<QEntry>,
}

impl Port {
    /// Creates a port.
    pub fn new(
        index: usize,
        peer: AgentId,
        rate: Rate,
        delay: SimDuration,
        disc: Box<dyn Discipline>,
    ) -> Self {
        Port {
            peer,
            rate,
            delay,
            index,
            disc,
            tx: None,
            nominal_rate: rate,
            up: true,
            stats: PortStats::default(),
            scratch_drops: Vec::new(),
        }
    }

    /// Whether the link is up (it is unless fault injection cut it).
    pub fn link_up(&self) -> bool {
        self.up
    }

    /// Cuts or restores the link. While down, offered packets queue (and may
    /// be dropped by the discipline) but nothing serializes. Restoring does
    /// not by itself resume transmission — call [`Port::restart`] to drain
    /// the backlog.
    pub fn set_link_up(&mut self, up: bool, ctx: &Context<'_>) {
        // A passed completion ran under the old link state.
        self.settle(ctx);
        self.up = up;
    }

    /// Scales the link rate to `factor` x the nominal (construction-time)
    /// rate. `1.0` restores full rate. Takes effect from the next packet.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_rate_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rate factor must be finite and positive: {factor}"
        );
        self.rate = self.nominal_rate.scale(factor);
    }

    /// Begins transmitting from the queue if the port is idle, the link is
    /// up, and a packet is waiting. Used after [`Port::set_link_up`] to
    /// resume a restored link.
    pub fn restart(&mut self, ctx: &mut Context<'_>) {
        self.settle(ctx);
        if self.up && !self.busy(ctx) {
            if let Some(next) = self.disc.dequeue(ctx.now) {
                self.begin_tx(next, ctx);
            }
        }
    }

    /// Discards every queued packet (a simulated reboot), counting each in
    /// the drop statistics and releasing the parked payloads. A packet
    /// already serializing is not recalled. Returns the number of packets
    /// flushed.
    pub fn flush(&mut self, ctx: &mut Context<'_>) -> usize {
        self.settle(ctx);
        let mut flushed = 0;
        while let Some(e) = self.disc.dequeue(ctx.now) {
            self.stats.dropped_packets += 1;
            self.stats.dropped_bytes += e.size_bytes as u64;
            self.stats.drops_by_class[e.class.min(3) as usize] += 1;
            ctx.release(e.slot);
            flushed += 1;
        }
        flushed
    }

    /// The queue discipline, for inspection.
    pub fn discipline(&self) -> &dyn Discipline {
        self.disc.as_ref()
    }

    /// The queue discipline, for reconfiguration (e.g. updating a drop
    /// probability).
    pub fn discipline_mut(&mut self) -> &mut dyn Discipline {
        self.disc.as_mut()
    }

    /// Replaces the queue discipline (only sensible before traffic flows).
    ///
    /// # Panics
    ///
    /// Panics if the current discipline still holds packets.
    pub fn set_discipline(&mut self, disc: Box<dyn Discipline>) {
        assert!(self.disc.is_empty(), "cannot replace a non-empty discipline");
        self.disc = disc;
    }

    /// Offers a packet for transmission. The payload is parked in the event
    /// queue's arena immediately; the discipline only ever handles the
    /// 16-byte [`QEntry`] descriptor. If the port is idle the packet starts
    /// serializing at once; otherwise it is queued (and possibly dropped by
    /// the discipline — drops release their arena slot before returning).
    /// Returns descriptors of the packets dropped by this call.
    pub fn send(&mut self, pkt: Packet, ctx: &mut Context<'_>) -> &[QEntry] {
        self.scratch_drops.clear();
        let size_bytes = pkt.size_bytes;
        let class = pkt.class;
        let entry = QEntry::new(ctx.stash(pkt), size_bytes, class);
        self.settle(ctx);
        if self.busy(ctx) || !self.up {
            self.disc.enqueue(entry, ctx.now, &mut self.scratch_drops);
            for d in &self.scratch_drops {
                self.stats.dropped_packets += 1;
                self.stats.dropped_bytes += d.size_bytes as u64;
                self.stats.drops_by_class[d.class.min(3) as usize] += 1;
                ctx.release(d.slot);
            }
            self.arm(ctx);
        } else {
            self.begin_tx(entry, ctx);
        }
        &self.scratch_drops
    }

    /// Whether a packet is serializing at the event being dispatched: its
    /// completion is queued, or its reserved key orders after this event.
    /// A send at the completion's own instant is busy exactly when it
    /// orders before the completion, as with an always-queued event.
    fn busy(&self, ctx: &Context<'_>) -> bool {
        self.tx.is_some_and(|t| t.armed || ctx.key <= t.key)
    }

    /// Retires a completion that passed without being queued. Its event
    /// would have found the queue empty; the empty `dequeue` it would have
    /// made is replayed at its instant (RED starts its idle decay there).
    /// Called before anything touches the discipline or the link state.
    fn settle(&mut self, ctx: &Context<'_>) {
        if let Some(t) = self.tx {
            if !t.armed && ctx.key > t.key {
                self.tx = None;
                if self.up {
                    let next = self.disc.dequeue(key_time(t.key));
                    debug_assert!(next.is_none(), "an unqueued completion had a backlog");
                }
            }
        }
    }

    /// Queues the pending completion under its reserved key once a packet
    /// waits for it.
    fn arm(&mut self, ctx: &mut Context<'_>) {
        if let Some(t) = &mut self.tx {
            if !t.armed && !self.disc.is_empty() {
                t.armed = true;
                ctx.schedule_reserved_tx_complete(self.index, t.key);
            }
        }
    }

    fn begin_tx(&mut self, entry: QEntry, ctx: &mut Context<'_>) {
        let tx = self.rate.tx_time(entry.size_bytes);
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += entry.size_bytes as u64;
        self.stats.tx_by_class[entry.class.min(3) as usize] += 1;
        self.stats.busy_time += tx;
        // Reserved before the delivery is scheduled, so both events keep
        // the sequence numbers an always-queued completion gave them.
        let key = ctx.reserve_tx_complete(tx);
        self.tx = Some(TxDone { key, armed: false });
        self.arm(ctx);
        ctx.deliver_slot(self.peer, tx + self.delay, entry.slot);
    }

    /// Must be called from the owning agent's
    /// [`crate::sim::Agent::on_tx_complete`] for this port's index.
    pub fn on_tx_complete(&mut self, ctx: &mut Context<'_>) {
        debug_assert!(
            self.tx.is_some_and(|t| t.armed && t.key == ctx.key),
            "tx-complete without a queued completion"
        );
        self.tx = None;
        if !self.up {
            // Link cut mid-transmission: the in-flight packet completes,
            // but the backlog waits for restart() after link-up.
            return;
        }
        if let Some(next) = self.disc.dequeue(ctx.now) {
            self.begin_tx(next, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disc::{DropTail, QueueLimit, Red};
    use crate::event::PacketSlot;
    use crate::faults::{apply_port_fault, FaultAction, FaultSchedule};
    use crate::packet::FlowId;
    use crate::sim::{Agent, Simulator};
    use crate::time::SimTime;
    use std::any::Any;

    /// A host that runs a send script: step `i` sends packet `i` at start
    /// (`None`) or schedules a timer that sends it after a delay
    /// (`Some(d)`), in script order. Counts dispatched tx-completes.
    struct Scripted {
        port: Port,
        script: Vec<Option<SimDuration>>,
        completions: usize,
    }
    impl Scripted {
        fn send(&mut self, i: u64, ctx: &mut Context<'_>) {
            let pkt = Packet::data(FlowId(0), ctx.self_id, self.port.peer, 500)
                .with_seq(i)
                .with_id(ctx.alloc_packet_id());
            self.port.send(pkt, ctx);
        }
    }
    impl Agent for Scripted {
        fn start(&mut self, ctx: &mut Context<'_>) {
            for (i, step) in self.script.clone().into_iter().enumerate() {
                match step {
                    None => self.send(i as u64, ctx),
                    Some(d) => ctx.schedule_timer(d, i as u64),
                }
            }
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            self.send(token, ctx);
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_tx_complete(&mut self, _port: usize, ctx: &mut Context<'_>) {
            self.completions += 1;
            self.port.on_tx_complete(ctx);
        }
        fn on_fault(&mut self, action: &FaultAction, ctx: &mut Context<'_>) {
            apply_port_fault(std::slice::from_mut(&mut self.port), action, ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Counter {
        got: Vec<(SimTime, u64)>,
    }
    impl Agent for Counter {
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            self.got.push((ctx.now, p.seq));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ms(x: f64) -> SimTime {
        SimTime::from_secs_f64(x / 1e3)
    }

    fn after(x: f64) -> Option<SimDuration> {
        Some(SimDuration::from_secs_f64(x / 1e3))
    }

    fn fifo(limit: usize) -> Box<dyn Discipline> {
        Box::new(DropTail::new(QueueLimit::Packets(limit)))
    }

    /// Runs `script` on agent 0 through a 4 Mb/s port (500 bytes = 1 ms)
    /// with propagation `delay` into a sink, agent 1, until `until`.
    fn run(
        script: Vec<Option<SimDuration>>,
        delay: SimDuration,
        disc: Box<dyn Discipline>,
        faults: &FaultSchedule,
        until: SimTime,
    ) -> Simulator {
        let mut sim = Simulator::new(1);
        let port = Port::new(0, AgentId(1), Rate::from_mbps(4.0), delay, disc);
        sim.add_agent(Box::new(Scripted { port, script, completions: 0 }));
        sim.add_agent(Box::new(Counter { got: vec![] }));
        sim.install_faults(faults);
        sim.run_until(until);
        sim
    }

    /// [`run`] with zero delay for 1 s.
    fn run_script(
        script: Vec<Option<SimDuration>>,
        disc: Box<dyn Discipline>,
        faults: &FaultSchedule,
    ) -> Simulator {
        run(script, SimDuration::ZERO, disc, faults, ms(1000.0))
    }

    fn host(sim: &Simulator) -> &Scripted {
        sim.agent::<Scripted>(AgentId(0))
    }

    /// The sink's `(arrival time, seq)` list.
    fn arrivals(sim: &Simulator) -> &[(SimTime, u64)] {
        &sim.agent::<Counter>(AgentId(1)).got
    }

    #[test]
    fn serializes_back_to_back_at_link_rate() {
        // 4 Mb/s, 10 ms delay: 500-byte packet = 1 ms serialization.
        let delay = SimDuration::from_millis(10);
        let sim = run(vec![None; 3], delay, fifo(100), &FaultSchedule::new(), ms(1000.0));
        // Arrivals at 11, 12, 13 ms, in order: serialization is pipelined,
        // propagation adds 10 ms.
        assert_eq!(arrivals(&sim), [(ms(11.0), 0), (ms(12.0), 1), (ms(13.0), 2)]);
        let host = host(&sim);
        assert_eq!(host.port.stats.tx_packets, 3);
        assert_eq!(host.port.stats.tx_bytes, 1500);
        assert_eq!(host.port.stats.busy_time, SimDuration::from_millis(3));
        // Only the two packets queued behind the first need a completion
        // to start them; the last completion would find the queue empty,
        // so it is never queued.
        assert_eq!(host.completions, 2);
    }

    #[test]
    fn drops_count_in_stats() {
        // 10 packets into a queue of 2 (+1 in flight) -> 7 drops.
        let sim = run_script(vec![None; 10], fifo(2), &FaultSchedule::new());
        let stats = &host(&sim).port.stats;
        assert_eq!(stats.dropped_packets, 7);
        assert_eq!(stats.tx_packets, 3);
        assert_eq!(stats.drops_by_class[3], 7);
        assert_eq!(arrivals(&sim).len(), 3);
    }

    #[test]
    fn a_sender_slower_than_the_link_dispatches_no_completions() {
        // One packet every 2 ms on a 1 ms link: each finds the port idle.
        let script = (0..10).map(|i| after(2.0 * i as f64)).collect();
        let sim = run_script(script, fifo(100), &FaultSchedule::new());
        let expect: Vec<_> = (0..10).map(|i| (ms(2.0 * i as f64 + 1.0), i)).collect();
        assert_eq!(arrivals(&sim), expect);
        assert_eq!(host(&sim).completions, 0);
        assert_eq!(host(&sim).port.stats.tx_packets, 10);
    }

    #[test]
    fn a_send_at_the_completion_instant_queues_only_if_it_orders_first() {
        // Packet 1 starts at 0 and completes at 1 ms. Packets 0 and 2 are
        // sent at 1 ms by timers scheduled before and after packet 1's
        // transmit. A zero-length queue makes "queued" visible as a drop.
        let script = vec![after(1.0), None, after(1.0)];
        let sim = run_script(script, fifo(0), &FaultSchedule::new());
        // Packet 0 orders before the completion: the port is still busy,
        // so it is queued (and dropped). Packet 2 orders after it and
        // starts at once.
        assert_eq!(arrivals(&sim), [(ms(1.0), 1), (ms(2.0), 2)]);
        assert_eq!(host(&sim).port.stats.dropped_packets, 1);
        assert_eq!(host(&sim).completions, 0);
    }

    #[test]
    fn red_idle_decay_starts_when_the_link_goes_idle() {
        let red = || Red::new(QueueLimit::Packets(100), 5.0, 15.0, 0.1, 7);
        // Five packets at 0: four queue. The link idles from 5 ms, when
        // the last completion finds the queue empty, until two sends at
        // 100 ms. Each send that queues updates RED's average, decayed
        // over the idle period. With the link cut from 50 ms to 150 ms
        // both sends queue, and the idle period still starts at 5 ms.
        let script = vec![None, None, None, None, None, after(100.0), after(100.0)];
        let mut outage = FaultSchedule::new();
        outage.link_outage(AgentId(0), 0, ms(50.0), ms(150.0));
        for (faults, queued_at_100ms) in [(FaultSchedule::new(), 1), (outage, 2)] {
            let sim = run_script(script.clone(), Box::new(red()), &faults);
            let disc = host(&sim).port.discipline();
            let avg = disc.as_any().downcast_ref::<Red>().unwrap().avg_queue();

            // The same discipline driven by a port that queues every
            // completion: the one at 5 ms makes an empty dequeue.
            let mut reference = red();
            let mut dropped = Vec::new();
            let entry = |i| QEntry::new(PacketSlot(i), 500, 0);
            for i in 1..5 {
                reference.enqueue(entry(i), SimTime::ZERO, &mut dropped);
            }
            for t in 1..=5 {
                reference.dequeue(ms(t as f64));
            }
            for i in 0..queued_at_100ms {
                reference.enqueue(entry(5 + i), ms(100.0), &mut dropped);
            }
            assert!(avg > 0.0);
            assert_eq!(avg, reference.avg_queue());
        }
    }

    #[test]
    fn link_faults_around_an_unqueued_completion_resume_at_the_same_instants() {
        let mut faults = FaultSchedule::new();
        // Down across packet 0's completion at 1 ms; packets 1 and 2 arrive
        // while it is down and leave when it comes back at 5 ms.
        faults.link_outage(AgentId(0), 0, ms(0.5), ms(5.0));
        // Down and up again while packet 3 is on the wire (20-21 ms):
        // packet 4 at 22 ms finds the port idle.
        faults.link_outage(AgentId(0), 0, ms(20.2), ms(20.5));
        let script = vec![None, after(2.0), after(2.0), after(20.0), after(22.0)];
        let sim = run_script(script, fifo(100), &faults);
        assert_eq!(
            arrivals(&sim),
            [(ms(1.0), 0), (ms(6.0), 1), (ms(7.0), 2), (ms(21.0), 3), (ms(23.0), 4)]
        );
        // Only packet 2 waited behind a packet on the wire.
        assert_eq!(host(&sim).completions, 1);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let sim =
            run(vec![None; 50], SimDuration::ZERO, fifo(100), &FaultSchedule::new(), ms(100.0));
        // 50 packets x 1 ms = 50 ms busy in a 100 ms window.
        let util = host(&sim).port.stats.utilization(SimDuration::from_millis(100));
        assert!((util - 0.5).abs() < 1e-9, "utilization {util}");
    }
}
