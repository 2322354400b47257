//! A [`Transport`] that times and counts every batch call of the transport
//! it wraps, without changing a byte that crosses it.

use crate::stats::LogHist;
use crate::trace::Tracer;
use pels_wire::codec::{packet_len, WireData};
use pels_wire::{Datagram, Transport};
use std::cell::RefCell;
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::Instant;

/// What the wrapper counted.
#[derive(Debug, Clone, Default)]
pub struct IoCounters {
    /// `recv_batch` calls.
    pub rx_calls: u64,
    /// `recv_batch` calls that returned nothing.
    pub rx_empty: u64,
    /// Datagrams received.
    pub rx_datagrams: u64,
    /// Time inside `recv_batch`, ns.
    pub rx_ns: u64,
    /// `send_batch` calls.
    pub tx_calls: u64,
    /// Datagrams handed to `send_batch`.
    pub tx_datagrams: u64,
    /// Time inside `send_batch`, ns.
    pub tx_ns: u64,
    /// Data packets walked in outgoing containers.
    pub tx_data_pkts: u64,
    /// `send_batch` call time minus each Data packet's `sent_at`, s.
    pub queue_wait: LogHist,
}

/// Timing wrapper. The counters are shared so they stay readable after
/// the wrapper moves into a serve loop. `origin` must be the zero of the
/// clock that stamps `sent_at`, or the queue wait means nothing.
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    origin: Instant,
    tracer: Rc<RefCell<Tracer>>,
    counters: Rc<RefCell<IoCounters>>,
}

impl<T: Transport> Timed<T> {
    /// Wraps `inner`, recording spans into `tracer`; returns the wrapper
    /// and its counters.
    pub fn new(
        inner: T,
        origin: Instant,
        tracer: Rc<RefCell<Tracer>>,
    ) -> (Self, Rc<RefCell<IoCounters>>) {
        let counters = Rc::new(RefCell::new(IoCounters::default()));
        (Timed { inner, origin, tracer, counters: counters.clone() }, counters)
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    fn send_to(&self, buf: &[u8], to: SocketAddr) -> io::Result<()> {
        self.inner.send_to(buf, to)
    }

    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        self.inner.try_recv(buf)
    }

    fn send_batch(&self, batch: &[Datagram]) -> io::Result<()> {
        let called_ns = self.origin.elapsed().as_nanos() as u64;
        self.tracer.borrow_mut().begin("wire.send_batch");
        let t = Instant::now();
        let res = self.inner.send_batch(batch);
        let ns = t.elapsed().as_nanos() as u64;
        self.tracer.borrow_mut().end();
        let mut c = self.counters.borrow_mut();
        c.tx_calls += 1;
        c.tx_datagrams += batch.len() as u64;
        c.tx_ns += ns;
        for d in batch {
            let mut off = 0;
            while let Some(pkt) =
                packet_len(&d.buf[off..]).ok().and_then(|len| d.buf.get(off..off + len))
            {
                if let Ok(data) = WireData::decode(pkt) {
                    c.tx_data_pkts += 1;
                    let wait = called_ns.saturating_sub(data.sent_at.as_nanos());
                    c.queue_wait.record(wait as f64 * 1e-9);
                }
                off += pkt.len();
            }
        }
        res
    }

    fn recv_batch(&self, batch: &mut [Datagram]) -> io::Result<usize> {
        self.tracer.borrow_mut().begin("wire.recv_batch");
        let t = Instant::now();
        let res = self.inner.recv_batch(batch);
        let ns = t.elapsed().as_nanos() as u64;
        self.tracer.borrow_mut().end();
        let mut c = self.counters.borrow_mut();
        c.rx_calls += 1;
        c.rx_ns += ns;
        match &res {
            Ok(0) => c.rx_empty += 1,
            Ok(n) => c.rx_datagrams += *n as u64,
            Err(_) => {}
        }
        res
    }
}
