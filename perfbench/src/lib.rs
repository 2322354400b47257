//! End-to-end and per-layer benchmark of the PELS simulator and of
//! `pels serve`. See `perfbench/README.md` for the workloads, the metrics
//! and what each layer metric should move.

pub mod client;
pub mod host;
pub mod outcome;
pub mod sim;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod wire;

use outcome::Outcome;
use trace::Tracer;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sim_chained", "sim_dumbbell", "wire_paced"];

/// End-to-end metrics and units. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("host_s_per_s", "s/s"),
    ("goodput_mbps", "Mb/s"),
    ("green_delivery_ratio", "ratio"),
    ("sessions_served_ratio", "ratio"),
    ("pkt_delay_mean_ms", "ms"),
];

/// Per-layer metrics and units, from the traced run. A workload that does
/// not exercise a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("core.scenario.build_s", "s"),
    ("core.scenario.report_s", "s"),
    ("netsim.shard.n_shards", "count"),
    ("netsim.shard.effective_workers", "count"),
    ("netsim.shard.windows", "count"),
    ("netsim.shard.cross_events", "count"),
    ("netsim.shard.threads_spawned", "count"),
    ("netsim.shard.events_per_window", "count"),
    ("netsim.shard.overhead_s", "s"),
    ("netsim.sim.events", "count"),
    ("netsim.sim.events_per_s", "1/s"),
    ("netsim.sim.ns_per_event", "ns"),
    ("netsim.sim.ns_per_event_serial", "ns"),
    ("netsim.event.peak_queue_depth", "count"),
    ("netsim.run.slice_p50_ms", "ms"),
    ("netsim.run.slice_max_ms", "ms"),
    ("core.report.green_drops", "count"),
    ("core.report.lemma6_dev_pct", "%"),
    ("core.report.digest_matches_serial", "bool"),
    ("wire.batch.rx_calls", "count"),
    ("wire.batch.rx_datagrams", "count"),
    ("wire.batch.rx_busy_s", "s"),
    ("wire.batch.rx_empty_ratio", "ratio"),
    ("wire.batch.tx_calls", "count"),
    ("wire.batch.tx_datagrams", "count"),
    ("wire.batch.tx_busy_s", "s"),
    ("wire.batch.tx_ns_per_datagram", "ns"),
    ("wire.batch.send_drops", "count"),
    ("wire.codec.pkts_per_datagram", "count"),
    ("wire.serve.polls", "count"),
    ("wire.serve.idle_polls", "count"),
    ("wire.serve.poll_busy_s", "s"),
    ("wire.serve.self_s", "s"),
    ("wire.serve.work_poll_p99_ms", "ms"),
    ("wire.serve.cpu_busy_ratio", "ratio"),
    ("wire.serve.cpu_ns_per_pkt", "ns"),
    ("wire.serve.queue_wait_p50_ms", "ms"),
    ("wire.serve.queue_wait_p99_ms", "ms"),
    ("wire.serve.timer_lateness_p50_ms", "ms"),
    ("wire.serve.timer_lateness_p99_ms", "ms"),
    ("wire.serve.sent_over_planned", "ratio"),
    ("wire.serve.tx_green", "count"),
    ("wire.serve.tx_yellow", "count"),
    ("wire.serve.tx_red", "count"),
    ("wire.serve.queue_drops_green", "count"),
    ("wire.serve.queue_drops_yellow", "count"),
    ("wire.serve.queue_drops_red", "count"),
    ("wire.serve.acks", "count"),
    ("wire.serve.hellos_refused", "count"),
    ("wire.serve.evictions", "count"),
    ("wire.serve.decode_errors", "count"),
    ("wire.flowtable.peak_flows", "count"),
    ("wire.flowtable.leaked_flows", "count"),
    ("client.cpu_busy_ratio", "ratio"),
    ("client.hello_lateness_p99_ms", "ms"),
    ("client.pkts_per_s", "1/s"),
    ("client.rx_datagrams", "count"),
    ("client.acks_sent", "count"),
    ("client.decode_errors", "count"),
    ("client.pkt_delay_p50_ms", "ms"),
    ("client.pkt_delay_p99_ms", "ms"),
    ("client.join_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_sum_ratio", "ratio"),
];

/// The tracers of a traced run, each with the name of its thread.
pub type Tracers = Vec<(&'static str, Tracer)>;

/// Runs workload `name` and returns its outcome and, for a traced run,
/// its tracers.
///
/// # Errors
///
/// Returns an unknown workload name or a set-up failure.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Outcome, Tracers), String> {
    use sim::SimKind;
    match name {
        "sim_chained" | "sim_dumbbell" => {
            let kind = if name == "sim_chained" { SimKind::Chained } else { SimKind::Dumbbell };
            let (out, tracer) = sim::run(kind, seed, seconds, traced)?;
            Ok((out, vec![("sim", tracer)]))
        }
        "wire_paced" => wire::run(seed, seconds, traced),
        other => Err(format!("unknown workload `{other}` (one of {})", WORKLOADS.join(", "))),
    }
}
