//! The `pels serve` workload: serve on one thread, the benchmark's client
//! on the calling thread, one loopback socket each.
//!
//! Untraced sessions run serve through `run_serve_with`, the real `drive`
//! loop. Traced sessions run [`drive_traced`], which mirrors `drive` (poll,
//! and sleep 100 µs when a poll found no work) around the public
//! `ServeLoop::poll`, with a [`Timed`] transport around `BatchedUdp`.

use crate::client::{Client, ClientConfig};
use crate::host::{peak_rss_mb, process_cpu_now, spread_samples, this_thread_cpu, thread_cpu_s};
use crate::outcome::Outcome;
use crate::stats::{median, quantile, LogHist};
use crate::timing::{IoCounters, Timed};
use crate::trace::Tracer;
use pels_netsim::time::{SimDuration, SimTime};
use pels_wire::serve::ServeLoop;
use pels_wire::{run_serve_with, BatchedUdp, ServeConfig, ServeReport, Transport};
use std::cell::RefCell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Kernel socket buffer asked for on both sockets, as serve and loadgen do.
const SOCKET_BUFFER_BYTES: usize = 4 << 20;
/// First HELLOs are spread over this window.
const RAMP_NS: u64 = 1_000_000_000;
/// Ramp plus MKC convergence, excluded from the steady window.
const WARMUP_NS: u64 = 3_000_000_000;
/// Per-session HELLO refresh period (serve evicts after 500 ms).
const HELLO_INTERVAL_NS: u64 = 100_000_000;
/// After BYE the client keeps receiving this long, then serve stops. It
/// is shorter than serve's idle timeout, so a flow BYE missed shows up as
/// leaked rather than silently evicted.
const DRAIN_NS: u64 = 200_000_000;
/// Serve set-ups timed before the session, and as many after it; each
/// takes about 20 µs of CPU on a 2-core x86-64 host.
const SETUP_SAMPLES: usize = 500;
/// Sessions offered.
pub const SESSIONS: u32 = 512;
/// Idle sleep of serve's `drive` loop.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// Serve configuration: the defaults (batched, 400-byte packets, 100 Mb/s
/// capacity) on a loopback port, run until stopped.
pub fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(SocketAddr::from(([127, 0, 0, 1], 0)));
    cfg.duration = SimDuration::ZERO;
    cfg
}

/// What [`drive_traced`] measured around each poll.
#[derive(Debug, Default)]
pub struct DriveStats {
    /// Polls made.
    pub polls: u64,
    /// Polls that found no work.
    pub idle_polls: u64,
    /// Time inside `poll`, ns.
    pub poll_ns: u64,
    /// Time asleep after idle polls, ns.
    pub sleep_ns: u64,
    /// Duration of polls that found work, s.
    pub work_polls: LogHist,
}

/// Mirrors serve's private `drive` loop around the public `poll`, with a
/// span per poll and per idle sleep. `origin` is the serve clock's zero.
///
/// # Errors
///
/// Propagates hard transport failures.
fn drive_traced<T: Transport>(
    lp: &mut ServeLoop<T>,
    origin: Instant,
    tracer: &Rc<RefCell<Tracer>>,
    stop: &AtomicBool,
) -> std::io::Result<(SimTime, DriveStats)> {
    let mut d = DriveStats::default();
    let clock = || SimTime::from_nanos(origin.elapsed().as_nanos() as u64);
    let mut now = clock();
    while !stop.load(Ordering::Relaxed) {
        tracer.borrow_mut().begin("serve.poll");
        let t = Instant::now();
        let worked = lp.poll(now)?;
        let ns = t.elapsed().as_nanos() as u64;
        tracer.borrow_mut().end();
        d.polls += 1;
        d.poll_ns += ns;
        if worked {
            d.work_polls.record(ns as f64 * 1e-9);
        } else {
            d.idle_polls += 1;
            tracer.borrow_mut().begin("serve.idle_sleep");
            let t = Instant::now();
            std::thread::sleep(IDLE_SLEEP);
            d.sleep_ns += t.elapsed().as_nanos() as u64;
            tracer.borrow_mut().end();
        }
        now = clock();
    }
    Ok((now, d))
}

/// Everything the serve thread hands back.
#[derive(Debug)]
struct ServeSide {
    report: ServeReport,
    cpu_s: f64,
    wall_s: f64,
    traced: Option<(DriveStats, IoCounters, Tracer)>,
}

/// Everything the client thread hands back.
#[derive(Debug)]
struct ClientSide {
    state: Client,
    tracer: Tracer,
    cpu_s: f64,
    wall_s: f64,
    bins: Vec<Bin>,
}

/// One serve + client session.
#[derive(Debug)]
struct Session {
    serve: ServeSide,
    client: ClientSide,
    steady_s: f64,
}

/// One second of the steady window.
#[derive(Debug, Clone, Copy)]
struct Bin {
    secs: f64,
    payload_bytes: u64,
    delay_sum_s: f64,
    delay_n: u64,
    serve_cpu_s: f64,
}

/// Cumulative counters at one instant, differenced into [`Bin`]s.
#[derive(Debug, Clone, Copy)]
struct Mark {
    t_ns: u64,
    payload_bytes: u64,
    delay_sum_s: f64,
    delay_n: u64,
    serve_cpu_s: f64,
}

impl Mark {
    fn take(t_ns: u64, client: &Client, tid: u64) -> Self {
        let c = &client.stats;
        Mark {
            t_ns,
            payload_bytes: c.steady_payload_bytes,
            delay_sum_s: c.delay.sum(),
            delay_n: c.delay.count(),
            serve_cpu_s: thread_cpu_s(tid),
        }
    }

    fn since(&self, earlier: &Mark) -> Bin {
        Bin {
            secs: (self.t_ns - earlier.t_ns) as f64 * 1e-9,
            payload_bytes: self.payload_bytes - earlier.payload_bytes,
            delay_sum_s: self.delay_sum_s - earlier.delay_sum_s,
            delay_n: self.delay_n - earlier.delay_n,
            serve_cpu_s: self.serve_cpu_s - earlier.serve_cpu_s,
        }
    }
}

/// Median over the steady window's one-second bins of `f`, so a burst
/// of load from elsewhere on the host moves the figure less than a
/// whole-window mean would.
fn bin_median(bins: &[Bin], f: impl Fn(&Bin) -> f64) -> f64 {
    median(&bins.iter().map(f).collect::<Vec<_>>())
}

fn bind_client() -> Result<BatchedUdp, String> {
    let t = BatchedUdp::bind(SocketAddr::from(([127, 0, 0, 1], 0))).map_err(|e| e.to_string())?;
    t.expand_buffers(SOCKET_BUFFER_BYTES);
    Ok(t)
}

fn serve_thread(
    cfg: ServeConfig,
    traced: bool,
    ready: mpsc::Sender<(SocketAddr, Instant, u64)>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<ServeSide> {
    let start = Instant::now();
    let (tid, cpu0) = this_thread_cpu();
    if !traced {
        let report = run_serve_with(
            cfg,
            |addr| {
                let _ = ready.send((addr, Instant::now(), tid));
            },
            || stop.load(Ordering::Relaxed),
        )?;
        let (_, cpu1) = this_thread_cpu();
        return Ok(ServeSide {
            report,
            cpu_s: cpu1 - cpu0,
            wall_s: start.elapsed().as_secs_f64(),
            traced: None,
        });
    }
    let udp = BatchedUdp::bind(cfg.listen)?;
    udp.expand_buffers(SOCKET_BUFFER_BYTES);
    let drops = udp.send_drops_handle();
    let origin = Instant::now();
    let tracer = Rc::new(RefCell::new(Tracer::new(origin)));
    let (timed, counters) = Timed::new(udp, origin, tracer.clone());
    let mut lp = ServeLoop::new(cfg, timed, Some(drops));
    let _ = ready.send((lp.local_addr(), origin, tid));
    let (end, drive) = drive_traced(&mut lp, origin, &tracer, &stop)?;
    let report = lp.report(end);
    drop(lp);
    let (_, cpu1) = this_thread_cpu();
    let io = counters.borrow().clone();
    let tracer = Rc::try_unwrap(tracer).expect("the serve loop is gone").into_inner();
    Ok(ServeSide {
        report,
        cpu_s: cpu1 - cpu0,
        wall_s: start.elapsed().as_secs_f64(),
        traced: Some((drive, io, tracer)),
    })
}

/// Runs one session: ramp, warm-up, `seconds` of steady window, BYE, drain.
///
/// # Errors
///
/// Returns socket and thread failures.
fn session(seed: u64, seconds: u64, traced: bool) -> Result<Session, String> {
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let cfg = serve_config();
    let batch_size = cfg.batch_size;
    let serve_stop = stop.clone();
    let serve = std::thread::spawn(move || serve_thread(cfg, traced, tx, serve_stop));
    let run_client = || -> Result<ClientSide, String> {
        let (server, origin, tid) =
            rx.recv().map_err(|_| "serve failed before it was ready".to_string())?;
        let t = bind_client()?;
        let clock = || origin.elapsed().as_nanos() as u64;
        let start = clock();
        let steady_from = start + WARMUP_NS;
        let end = steady_from + seconds * 1_000_000_000;
        let mut client = Client::new(ClientConfig {
            server,
            sessions: SESSIONS,
            start_ns: start,
            ramp_ns: RAMP_NS,
            steady_from_ns: steady_from,
            end_ns: end,
            hello_interval_ns: HELLO_INTERVAL_NS,
            batch_size,
            seed,
        });
        let mut tracer = if traced { Tracer::new(origin) } else { Tracer::disabled() };
        let wall0 = Instant::now();
        let (_, cpu0) = this_thread_cpu();
        let mut marks: Vec<Mark> = Vec::new();
        let mut next_mark = steady_from;
        loop {
            let now = clock();
            if now >= next_mark {
                marks.push(Mark::take(now, &client, tid));
                next_mark += 1_000_000_000;
            }
            if now >= end {
                break;
            }
            if !client.step(&t, &clock, &mut tracer).map_err(|e| e.to_string())? {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        client.finish(&t, &mut tracer).map_err(|e| e.to_string())?;
        let drain_end = clock() + DRAIN_NS;
        while clock() < drain_end {
            if !client.drain(&t, &clock, &mut tracer).map_err(|e| e.to_string())? {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        let (_, cpu1) = this_thread_cpu();
        let bins = marks.windows(2).map(|w| w[1].since(&w[0])).collect();
        Ok(ClientSide {
            state: client,
            tracer,
            cpu_s: cpu1 - cpu0,
            wall_s: wall0.elapsed().as_secs_f64(),
            bins,
        })
    };
    let client = run_client();
    stop.store(true, Ordering::Relaxed);
    let serve = serve.join().map_err(|_| "serve thread panicked".to_string())?;
    let serve = serve.map_err(|e| format!("serve: {e}"))?;
    let client = client?;
    let steady_s = client.bins.iter().map(|b| b.secs).sum();
    Ok(Session { serve, client, steady_s })
}

/// CPU seconds of one serve set-up: bind, socket-buffer sizing and
/// `ServeLoop::new`, the loop dropped untimed. It runs while no other
/// thread of the process is busy, so the process's CPU time is the
/// set-up's cost, system calls and any thread it starts included, without
/// the time other work on the host takes from it.
///
/// # Errors
///
/// Returns socket failures.
pub fn setup_once() -> Result<f64, String> {
    let cfg = serve_config();
    let t = process_cpu_now();
    let udp = BatchedUdp::bind(cfg.listen).map_err(|e| e.to_string())?;
    udp.expand_buffers(SOCKET_BUFFER_BYTES);
    let drops = udp.send_drops_handle();
    let lp = ServeLoop::new(cfg, udp, Some(drops));
    let s = process_cpu_now() - t;
    drop(lp);
    Ok(s)
}

fn check_session(s: &Session, out: &mut Outcome) {
    let r = &s.serve.report;
    let c = &s.client.state.stats;
    out.check(r.decode_errors == 0, format!("serve saw {} decode errors", r.decode_errors));
    out.check(c.decode_errors == 0, format!("client saw {} decode errors", c.decode_errors));
    out.check(r.leaked_flows == 0, format!("{} flows leaked after BYE", r.leaked_flows));
    let offered = s.client.state.sessions().len() as u64;
    out.ops(
        offered,
        s.client.state.unserved(),
        "sessions refused, never joined, or not served at the end",
    );
}

/// Serve CPU ns per Data packet sent over the whole session.
fn cpu_ns_per_pkt(s: &Session) -> f64 {
    1e9 * s.serve.cpu_s / s.serve.report.data_sent.max(1) as f64
}

/// Runs the wire workload: an untraced run times [`SETUP_SAMPLES`] serve
/// set-ups before the measured session and as many after it. With
/// `traced`, an untraced session for the tracing-overhead baseline precedes
/// the traced one.
///
/// # Errors
///
/// Returns socket and thread failures.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<(Outcome, crate::Tracers), String> {
    let mut out = Outcome::default();
    // No extra loop is alive beside the running serve, so the peak
    // resident set, read before the second half of the set-up samples, is
    // that of serve and the client alone.
    let mut setup = if traced { Vec::new() } else { spread_samples(SETUP_SAMPLES, setup_once)? };
    let a = session(seed, seconds, false)?;
    check_session(&a, &mut out);
    if !traced {
        out.push("peak_rss_mb", peak_rss_mb(), "MB", 1);
        setup.extend(spread_samples(SETUP_SAMPLES, setup_once)?);
        out.ok_ops(setup.len() as u64);
        out.push("setup_s", median(&setup), "s", setup.len() as u64);
        let c = &a.client.state.stats;
        let green = c.rx_by_class[0] as f64 / a.serve.report.tx_by_class[0].max(1) as f64;
        let offered = a.client.state.sessions().len() as f64;
        let bins = a.client.bins.len() as u64;
        out.push(
            "host_s_per_s",
            bin_median(&a.client.bins, |b| b.serve_cpu_s / b.secs),
            "s/s",
            bins,
        );
        out.push(
            "goodput_mbps",
            bin_median(&a.client.bins, |b| b.payload_bytes as f64 * 8.0 / b.secs / 1e6),
            "Mb/s",
            bins,
        );
        out.push("green_delivery_ratio", green, "ratio", a.serve.report.tx_by_class[0]);
        out.push(
            "sessions_served_ratio",
            (offered - a.client.state.unserved() as f64) / offered,
            "ratio",
            offered as u64,
        );
        out.push(
            "pkt_delay_mean_ms",
            bin_median(&a.client.bins, |b| 1e3 * b.delay_sum_s / b.delay_n.max(1) as f64),
            "ms",
            bins,
        );
        return Ok((out, Vec::new()));
    }

    let b = session(seed, seconds, true)?;
    check_session(&b, &mut out);
    let r = &b.serve.report;
    let c = &b.client.state.stats;
    let (drive, io, serve_tracer) = b.serve.traced.as_ref().expect("traced session");
    let ms = |v: Option<f64>| v.unwrap_or(0.0) * 1e3;
    let tail_ms = |h: &LogHist| ms(h.tail(0.99).map(|(_, v)| v));
    let wall = b.serve.wall_s;
    out.push("wire.batch.rx_calls", io.rx_calls as f64, "count", 1);
    out.push("wire.batch.rx_datagrams", io.rx_datagrams as f64, "count", 1);
    out.push("wire.batch.rx_busy_s", io.rx_ns as f64 * 1e-9, "s", io.rx_calls);
    out.push(
        "wire.batch.rx_empty_ratio",
        io.rx_empty as f64 / io.rx_calls.max(1) as f64,
        "ratio",
        io.rx_calls,
    );
    out.push("wire.batch.tx_calls", io.tx_calls as f64, "count", 1);
    out.push("wire.batch.tx_datagrams", io.tx_datagrams as f64, "count", 1);
    out.push("wire.batch.tx_busy_s", io.tx_ns as f64 * 1e-9, "s", io.tx_calls);
    out.push(
        "wire.batch.tx_ns_per_datagram",
        io.tx_ns as f64 / io.tx_datagrams.max(1) as f64,
        "ns",
        io.tx_datagrams,
    );
    out.push("wire.batch.send_drops", r.send_drops as f64, "count", 1);
    out.push(
        "wire.codec.pkts_per_datagram",
        io.tx_data_pkts as f64 / io.tx_datagrams.max(1) as f64,
        "count",
        io.tx_datagrams,
    );
    out.push("wire.serve.polls", drive.polls as f64, "count", 1);
    out.push("wire.serve.idle_polls", drive.idle_polls as f64, "count", 1);
    out.push("wire.serve.poll_busy_s", drive.poll_ns as f64 * 1e-9, "s", drive.polls);
    out.push(
        "wire.serve.self_s",
        serve_tracer.stat("serve.poll").self_ns as f64 * 1e-9,
        "s",
        drive.polls,
    );
    out.push(
        "wire.serve.work_poll_p99_ms",
        tail_ms(&drive.work_polls),
        "ms",
        drive.work_polls.count(),
    );
    out.push("wire.serve.cpu_busy_ratio", b.serve.cpu_s / wall, "ratio", 1);
    out.push("wire.serve.cpu_ns_per_pkt", cpu_ns_per_pkt(&b), "ns", r.data_sent);
    out.push(
        "wire.serve.queue_wait_p50_ms",
        ms(io.queue_wait.quantile(0.5)),
        "ms",
        io.queue_wait.count(),
    );
    out.push("wire.serve.queue_wait_p99_ms", tail_ms(&io.queue_wait), "ms", io.queue_wait.count());
    out.push(
        "wire.serve.timer_lateness_p50_ms",
        r.pacing_jitter_p50_us * 1e-3,
        "ms",
        r.timer_events,
    );
    out.push(
        "wire.serve.timer_lateness_p99_ms",
        r.pacing_jitter_p99_us * 1e-3,
        "ms",
        r.timer_events,
    );
    let planned = r.data_sent + r.abandoned_packets;
    out.push(
        "wire.serve.sent_over_planned",
        r.data_sent as f64 / planned.max(1) as f64,
        "ratio",
        planned,
    );
    for i in 0..3 {
        out.push(TX_NAMES[i], r.tx_by_class[i] as f64, "count", 1);
        out.push(DROP_NAMES[i], r.queue_drops_by_class[i] as f64, "count", 1);
    }
    out.push("wire.serve.acks", r.acks as f64, "count", 1);
    out.push("wire.serve.hellos_refused", r.hellos_refused as f64, "count", 1);
    out.push("wire.serve.evictions", r.evictions as f64, "count", 1);
    out.push("wire.serve.decode_errors", r.decode_errors as f64, "count", 1);
    out.push("wire.flowtable.peak_flows", r.peak_flows as f64, "count", 1);
    out.push("wire.flowtable.leaked_flows", r.leaked_flows as f64, "count", 1);
    let client_busy = b.client.cpu_s / b.client.wall_s;
    let joins = b.client.state.join_times();
    out.push("client.cpu_busy_ratio", client_busy, "ratio", 1);
    out.push(
        "client.hello_lateness_p99_ms",
        tail_ms(&c.hello_lateness),
        "ms",
        c.hello_lateness.count(),
    );
    out.push("client.pkts_per_s", c.steady_pkts as f64 / b.steady_s, "1/s", c.steady_pkts);
    out.push("client.rx_datagrams", c.rx_datagrams as f64, "count", 1);
    out.push("client.acks_sent", c.acks_sent as f64, "count", 1);
    out.push("client.decode_errors", c.decode_errors as f64, "count", 1);
    out.push("client.pkt_delay_p50_ms", ms(c.delay.quantile(0.5)), "ms", c.delay.count());
    out.push("client.pkt_delay_p99_ms", tail_ms(&c.delay), "ms", c.delay.count());
    let join_q = crate::stats::tail_quantile(joins.len() as u64, 0.99).unwrap_or(0.5);
    out.push("client.join_p99_ms", ms(quantile(&joins, join_q)), "ms", joins.len() as u64);
    out.push("trace.overhead_pct", 100.0 * (cpu_ns_per_pkt(&b) / cpu_ns_per_pkt(&a) - 1.0), "%", 2);
    out.push(
        "trace.layer_sum_ratio",
        (drive.poll_ns + drive.sleep_ns) as f64 * 1e-9 / wall,
        "ratio",
        1,
    );
    let serve_busy = b.serve.cpu_s / wall;
    if client_busy >= serve_busy {
        out.notes.push(format!(
            "client-bound run: client cpu_busy_ratio {client_busy:.3} >= serve {serve_busy:.3}"
        ));
    }
    // Whether the workload loads the layer it was chosen for: the AQM and
    // controllers set the rate, so serve must have CPU to spare.
    out.notes.push(format!(
        "load: serve cpu_busy_ratio {serve_busy:.3}{}",
        if serve_busy <= 0.5 { "" } else { "; NOT the intended load for this workload" }
    ));
    let (_, _, serve_tracer) = b.serve.traced.expect("traced session");
    Ok((out, vec![("serve", serve_tracer), ("client", b.client.tracer)]))
}

const TX_NAMES: [&str; 3] = ["wire.serve.tx_green", "wire.serve.tx_yellow", "wire.serve.tx_red"];
const DROP_NAMES: [&str; 3] =
    ["wire.serve.queue_drops_green", "wire.serve.queue_drops_yellow", "wire.serve.queue_drops_red"];
