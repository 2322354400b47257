//! The benchmark's own tests: its timing wrapper, client, span arithmetic,
//! percentile rule, and agreement with `BENCHMARK.json`.

use pels_netsim::clock::{Clock, ManualClock};
use pels_netsim::packet::FlowId;
use pels_netsim::time::{Rate, SimDuration};
use pels_perfbench::client::{Client, ClientConfig};
use pels_perfbench::stats::{tail_quantile, LogHist};
use pels_perfbench::timing::Timed;
use pels_perfbench::trace::{SpanStat, Tracer};
use pels_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use pels_wire::serve::ServeLoop;
use pels_wire::{MemHub, ServeConfig, Transport, WireHello};
use std::cell::RefCell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::Instant;

fn addr(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

fn serve_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(addr(1));
    cfg.capacity = Rate::from_mbps(10.0);
    cfg
}

/// Every datagram serve sends to one client over 1.5 simulated seconds
/// of 1 ms polls, with `wrap` choosing the transport serve sees.
fn serve_output<T: Transport>(
    hub: &MemHub,
    wrap: impl FnOnce(pels_wire::MemTransport) -> T,
) -> Vec<Vec<u8>> {
    let client = hub.endpoint(addr(2));
    let mut lp = ServeLoop::new(serve_cfg(), wrap(hub.endpoint(addr(1))), None);
    let clock = ManualClock::new();
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    for ms in 0..1500u64 {
        if ms % 100 == 0 {
            for flow in 1..=3 {
                let hello = WireHello { flow: FlowId(flow), seq: ms }.encode();
                client.send_to(&hello, addr(1)).unwrap();
            }
        }
        lp.poll(clock.now()).unwrap();
        while let Some((n, _)) = client.try_recv(&mut buf).unwrap() {
            got.push(buf[..n].to_vec());
        }
        clock.advance(SimDuration::from_millis(1));
    }
    got
}

#[test]
fn timing_wrapper_is_transparent() {
    let plain = serve_output(&MemHub::new(), |t| t);
    let tracer = Rc::new(RefCell::new(Tracer::new(Instant::now())));
    let counters = RefCell::new(None);
    let timed = serve_output(&MemHub::new(), |t| {
        let (timed, c) = Timed::new(t, Instant::now(), tracer.clone());
        *counters.borrow_mut() = Some(c);
        timed
    });
    assert!(plain.len() >= 50, "serve sent only {} datagrams", plain.len());
    assert_eq!(plain, timed, "the wrapper changed what serve sent");
    let c = counters.into_inner().unwrap();
    let c = c.borrow();
    assert_eq!(c.tx_datagrams, plain.len() as u64);
    assert!(c.rx_calls > 0 && c.rx_empty > 0 && c.tx_data_pkts >= c.tx_datagrams);
    assert_eq!(tracer.borrow().stat("wire.send_batch").count, c.tx_calls);
}

#[test]
fn client_container_walk_counts_every_packet_serve_sent() {
    let hub = MemHub::new();
    let mut lp = ServeLoop::new(serve_cfg(), hub.endpoint(addr(1)), None);
    let t = hub.endpoint(addr(2));
    let mut client = Client::new(ClientConfig {
        server: addr(1),
        sessions: 16,
        start_ns: 0,
        ramp_ns: 20_000_000,
        steady_from_ns: 500_000_000,
        end_ns: 2_000_000_000,
        hello_interval_ns: 100_000_000,
        batch_size: 64,
        seed: 3,
    });
    let clock = ManualClock::new();
    let mut tracer = Tracer::disabled();
    while clock.now().as_nanos() < 2_000_000_000 {
        let now = clock.now();
        client.step(&t, &|| now.as_nanos(), &mut tracer).unwrap();
        lp.poll(now).unwrap();
        clock.advance(SimDuration::from_millis(1));
    }
    client.finish(&t, &mut tracer).unwrap();
    for _ in 0..5 {
        let now = clock.advance(SimDuration::from_millis(1));
        lp.poll(now).unwrap();
        client.drain(&t, &|| now.as_nanos(), &mut tracer).unwrap();
    }
    let r = lp.report(clock.now());
    assert!(r.data_sent > 1000, "serve sent only {}", r.data_sent);
    assert_eq!(client.stats.data_pkts, r.data_sent);
    assert_eq!(client.stats.rx_by_class.iter().sum::<u64>(), r.data_sent);
    assert_eq!(client.stats.rx_by_class[0], r.tx_by_class[0]);
    assert_eq!(client.stats.decode_errors, 0);
    assert_eq!(r.decode_errors, 0);
    assert_eq!(r.leaked_flows, 0, "every session said BYE");
    assert_eq!(client.unserved(), 0);
    assert!(client.stats.acks_sent > 0 && client.stats.acks_sent <= client.stats.data_pkts);
}

#[test]
fn self_time_is_duration_minus_children() {
    // poll [0, 100) holds recv [10, 30) and send [50, 90), which holds a
    // nested span [60, 70); a second poll [200, 210) has no children.
    let mut t = Tracer::new(Instant::now());
    t.begin_at("poll", 0);
    t.begin_at("recv", 10);
    assert_eq!(t.end_at(30), 20);
    t.begin_at("send", 50);
    t.begin_at("syscall", 60);
    t.end_at(70);
    t.end_at(90);
    assert_eq!(t.end_at(100), 100);
    t.begin_at("poll", 200);
    t.end_at(210);
    assert_eq!(t.stat("poll"), SpanStat { count: 2, total_ns: 110, self_ns: 50 });
    assert_eq!(t.stat("recv"), SpanStat { count: 1, total_ns: 20, self_ns: 20 });
    assert_eq!(t.stat("send"), SpanStat { count: 1, total_ns: 40, self_ns: 30 });
    assert_eq!(t.stat("syscall"), SpanStat { count: 1, total_ns: 10, self_ns: 10 });
    let spans = t.spans();
    let poll = spans.iter().find(|s| s.name == "poll").unwrap();
    let send = spans.iter().find(|s| s.name == "send").unwrap();
    let syscall = spans.iter().find(|s| s.name == "syscall").unwrap();
    assert_eq!((poll.parent, send.parent, syscall.parent), (0, poll.id, send.id));
    let self_sum: u64 = t.stats().values().map(|s| s.self_ns).sum();
    assert_eq!(self_sum, 110, "self times add up to the root spans' wall time");
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
    assert_eq!(tail_quantile(999, 0.99), Some(0.98));
    assert_eq!(tail_quantile(512, 0.99), Some(0.98));
    assert_eq!(tail_quantile(100_000, 0.99), Some(0.99), "capped at the requested percentile");
    assert_eq!(tail_quantile(100_000, 1.0), Some(0.9999));
    assert_eq!(tail_quantile(100, 0.99), Some(0.9));
    assert_eq!(tail_quantile(20, 0.99), Some(0.5));
    assert_eq!(tail_quantile(19, 0.99), None);
    let mut h = LogHist::new();
    for i in 0..500 {
        h.record(f64::from(i) * 1e-3);
    }
    let (q, v) = h.tail(0.99).unwrap();
    assert_eq!(q, 0.98);
    assert!((v / 0.490 - 1.0).abs() < 0.01, "p98 of 0..500 ms is about 490 ms, got {v}");
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                (m["name"].as_str().unwrap().to_string(), unit.to_string())
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
