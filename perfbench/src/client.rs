//! The benchmark's own single-threaded `pels serve` client.
//!
//! It speaks `pels loadgen`'s protocol through the public codec, but it is
//! not `loadgen`, so the offered load stays fixed when `loadgen` changes:
//!
//! * session arrivals are open-loop: session `i` says HELLO at a seeded
//!   point of its slot in the ramp whether or not the server keeps up,
//!   then refreshes every `hello_interval` on its own schedule;
//! * inside a session MKC closes the loop: every Data packet is ACKed,
//!   ACKs coalesced into containers with `WireAck::append_to`;
//! * every session says BYE at the end.
//!
//! It also measures what `loadgen` does not: one-way delay per packet
//! (client receive time minus the serve clock's `sent_at`), delivery per
//! color class, join time, and how late its own schedule ran.

use crate::host::SplitMix64;
use crate::stats::LogHist;
use crate::trace::Tracer;
use pels_netsim::packet::FlowId;
use pels_wire::codec::{packet_len, WireAck, WireBye, WireData, WireHello};
use pels_wire::{Datagram, Transport};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;

/// Receive slot size: larger than any container serve sends.
pub const RX_SLOT_BYTES: usize = 2048;
/// Container cap for coalesced ACKs/HELLOs/BYEs, as serve uses.
pub const AGGREGATE_BYTES: usize = 1472;
/// A session counts as served if it received data this close to the end.
pub const SERVED_WINDOW_NS: u64 = 500_000_000;
/// Longest a part-full outgoing batch waits before it is sent.
const FLUSH_INTERVAL_NS: u64 = 1_000_000;

/// The client's load and schedule. Times are ns since the shared origin.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The serve socket.
    pub server: SocketAddr,
    /// Sessions offered (flow ids `1..=sessions`).
    pub sessions: u32,
    /// When the ramp starts.
    pub start_ns: u64,
    /// Window over which first HELLOs are spread.
    pub ramp_ns: u64,
    /// Start of the steady measurement window.
    pub steady_from_ns: u64,
    /// End of the steady window; BYEs follow.
    pub end_ns: u64,
    /// Per-session HELLO refresh period.
    pub hello_interval_ns: u64,
    /// Datagrams per `recv_batch`/`send_batch`.
    pub batch_size: usize,
    /// Seed of the arrival jitter.
    pub seed: u64,
}

/// Per-session bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct Session {
    /// When its first HELLO went out.
    pub first_hello_ns: Option<u64>,
    /// When its first Data packet arrived.
    pub joined_ns: Option<u64>,
    /// When its latest Data packet arrived.
    pub last_rx_ns: Option<u64>,
}

/// What the client counted.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// One-way delay of Data packets received in the steady window, s.
    pub delay: LogHist,
    /// How late each HELLO left against its schedule, s.
    pub hello_lateness: LogHist,
    /// Datagrams received.
    pub rx_datagrams: u64,
    /// Data packets received, whole run.
    pub data_pkts: u64,
    /// Data packets received per color class, whole run.
    pub rx_by_class: [u64; 3],
    /// Data packets received in the steady window.
    pub steady_pkts: u64,
    /// Payload bytes received in the steady window.
    pub steady_payload_bytes: u64,
    /// HELLOs sent.
    pub hellos_sent: u64,
    /// ACKs sent.
    pub acks_sent: u64,
    /// Undecodable packets or containers received.
    pub decode_errors: u64,
}

/// The client as a state machine over any [`Transport`], stepped with an
/// explicit clock so tests can drive it without wall time.
#[derive(Debug)]
pub struct Client {
    cfg: ClientConfig,
    arrivals: Vec<u64>,
    next_arrival: usize,
    refresh: VecDeque<(u64, u32)>,
    sessions: Vec<Session>,
    ring: Vec<Datagram>,
    out: Vec<Datagram>,
    spare: Vec<Vec<u8>>,
    out_due_ns: u64,
    /// Counters and distributions.
    pub stats: ClientStats,
}

impl Client {
    /// A client whose arrival schedule is drawn from `cfg.seed`.
    pub fn new(cfg: ClientConfig) -> Self {
        let n = cfg.sessions.max(1);
        let mut rng = SplitMix64::new(cfg.seed);
        let slot = cfg.ramp_ns as f64 / f64::from(n);
        let arrivals = (0..n)
            .map(|i| cfg.start_ns + ((f64::from(i) + rng.next_f64()) * slot) as u64)
            .collect();
        let ring = (0..cfg.batch_size.max(1)).map(|_| Datagram::slot(RX_SLOT_BYTES)).collect();
        Client {
            arrivals,
            next_arrival: 0,
            refresh: VecDeque::new(),
            sessions: vec![Session::default(); n as usize],
            ring,
            out: Vec::new(),
            spare: Vec::new(),
            out_due_ns: 0,
            stats: ClientStats::default(),
            cfg,
        }
    }

    /// Per-session bookkeeping, indexed by flow id minus one.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Sends due HELLOs, receives and ACKs, and flushes. Returns whether
    /// there was any work.
    ///
    /// # Errors
    ///
    /// Propagates hard transport failures.
    pub fn step<T: Transport>(
        &mut self,
        t: &T,
        clock: &impl Fn() -> u64,
        tracer: &mut Tracer,
    ) -> io::Result<bool> {
        let now = clock();
        let mut work = false;
        while self.next_arrival < self.arrivals.len() && self.arrivals[self.next_arrival] <= now {
            let due = self.arrivals[self.next_arrival];
            let i = self.next_arrival as u32;
            self.sessions[i as usize].first_hello_ns = Some(now);
            self.hello(i, due, now);
            self.refresh.push_back((due + self.cfg.hello_interval_ns, i));
            self.next_arrival += 1;
            work = true;
        }
        while let Some(&(due, i)) = self.refresh.front() {
            if due > now {
                break;
            }
            self.refresh.pop_front();
            self.hello(i, due, now);
            self.refresh.push_back((due + self.cfg.hello_interval_ns, i));
            work = true;
        }
        work |= self.receive(t, clock, tracer, true)?;
        if !self.out.is_empty() && clock() >= self.out_due_ns {
            self.flush(t, clock, tracer)?;
        }
        Ok(work)
    }

    /// Says BYE for every session that said HELLO and flushes.
    ///
    /// # Errors
    ///
    /// Propagates hard transport failures.
    pub fn finish<T: Transport>(&mut self, t: &T, tracer: &mut Tracer) -> io::Result<()> {
        for i in 0..self.next_arrival {
            let bye = WireBye { flow: FlowId(i as u32 + 1) };
            self.push(pels_wire::codec::BYE_BYTES, |buf| buf.extend_from_slice(&bye.encode()));
        }
        self.flush(t, &|| 0, tracer)
    }

    /// Receives without answering, to count packets still in flight after
    /// BYE. Returns whether anything arrived.
    ///
    /// # Errors
    ///
    /// Propagates hard transport failures.
    pub fn drain<T: Transport>(
        &mut self,
        t: &T,
        clock: &impl Fn() -> u64,
        tracer: &mut Tracer,
    ) -> io::Result<bool> {
        self.receive(t, clock, tracer, false)
    }

    fn hello(&mut self, i: u32, due: u64, now: u64) {
        let hello = WireHello { flow: FlowId(i + 1), seq: self.stats.hellos_sent };
        self.push(pels_wire::codec::HELLO_BYTES, |buf| buf.extend_from_slice(&hello.encode()));
        self.stats.hellos_sent += 1;
        self.stats.hello_lateness.record(now.saturating_sub(due) as f64 * 1e-9);
    }

    fn receive<T: Transport>(
        &mut self,
        t: &T,
        clock: &impl Fn() -> u64,
        tracer: &mut Tracer,
        answer: bool,
    ) -> io::Result<bool> {
        let mut any = false;
        loop {
            for slot in self.ring.iter_mut() {
                slot.reset(RX_SLOT_BYTES);
            }
            tracer.begin("client.recv");
            let got = t.recv_batch(&mut self.ring);
            let now = clock();
            let got = match got {
                Ok(got) => got,
                Err(e) => {
                    tracer.end();
                    return Err(e);
                }
            };
            let ring = std::mem::take(&mut self.ring);
            for slot in ring.iter().take(got) {
                self.stats.rx_datagrams += 1;
                self.on_container(&slot.buf, now, answer);
            }
            self.ring = ring;
            tracer.end();
            any |= got > 0;
            if answer && self.out.len() >= self.cfg.batch_size.max(1) {
                self.flush(t, clock, tracer)?;
            }
            if got < self.ring.len() {
                return Ok(any);
            }
        }
    }

    /// Walks a container with `packet_len`; a malformed head poisons the
    /// rest of it, as in serve and loadgen.
    fn on_container(&mut self, buf: &[u8], now: u64, answer: bool) {
        let mut off = 0;
        while off < buf.len() {
            let end = match packet_len(&buf[off..]) {
                Ok(len) if off + len <= buf.len() => off + len,
                _ => {
                    self.stats.decode_errors += 1;
                    return;
                }
            };
            let pkt = &buf[off..end];
            off = end;
            match WireData::decode(pkt) {
                Ok(d) => self.on_data(&d, now, answer),
                Err(_) => self.stats.decode_errors += 1,
            }
        }
    }

    fn on_data(&mut self, d: &WireData<'_>, now: u64, answer: bool) {
        let s = &mut self.stats;
        s.data_pkts += 1;
        if let Some(c) = s.rx_by_class.get_mut(usize::from(d.class)) {
            *c += 1;
        }
        if now >= self.cfg.steady_from_ns && now < self.cfg.end_ns {
            s.steady_pkts += 1;
            s.steady_payload_bytes += d.payload.len() as u64;
            s.delay.record(now.saturating_sub(d.sent_at.as_nanos()) as f64 * 1e-9);
        }
        if let Some(sess) = self.sessions.get_mut(d.flow.0.wrapping_sub(1) as usize) {
            sess.joined_ns.get_or_insert(now);
            sess.last_rx_ns = Some(now);
        }
        if answer {
            let ack = WireAck {
                flow: d.flow,
                seq: d.seq,
                sent_at: d.sent_at,
                rate_echo: d.rate_echo,
                feedback: d.feedback,
            };
            self.push(pels_wire::codec::ACK_BYTES, |buf| ack.append_to(buf));
            self.stats.acks_sent += 1;
        }
    }

    /// Appends `need` bytes written by `write` to the tail container, or
    /// starts a new one.
    fn push(&mut self, need: usize, write: impl FnOnce(&mut Vec<u8>)) {
        if let Some(last) = self.out.last_mut() {
            if last.buf.len() + need <= AGGREGATE_BYTES {
                write(&mut last.buf);
                return;
            }
        }
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        write(&mut buf);
        self.out.push(Datagram { buf, addr: self.cfg.server });
    }

    fn flush<T: Transport>(
        &mut self,
        t: &T,
        clock: &impl Fn() -> u64,
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        tracer.begin("client.send");
        let res = t.send_batch(&self.out);
        tracer.end();
        self.spare.extend(self.out.drain(..).map(|d| d.buf));
        self.out_due_ns = clock() + FLUSH_INTERVAL_NS;
        res
    }

    /// Sessions that received no data in the [`SERVED_WINDOW_NS`] before
    /// the end, those that never joined included.
    pub fn unserved(&self) -> u64 {
        let from = self.cfg.end_ns.saturating_sub(SERVED_WINDOW_NS);
        self.sessions.iter().filter(|s| s.last_rx_ns.is_none_or(|t| t < from)).count() as u64
    }

    /// Join times (first HELLO to first Data) of the sessions that joined, s.
    pub fn join_times(&self) -> Vec<f64> {
        self.sessions
            .iter()
            .filter_map(|s| Some(s.joined_ns?.saturating_sub(s.first_hello_ns?) as f64 * 1e-9))
            .collect()
    }
}
