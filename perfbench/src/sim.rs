//! Simulator workloads: `pels_core::parallel::ParallelScenario`, timed from
//! outside around `try_build`, each one-simulated-second `run_until` slice
//! and `report`, with the counters of its public `ShardedSimulator`.

use crate::host::{default_workers, peak_rss_mb, process_cpu_now, spread_samples, SplitMix64};
use crate::outcome::Outcome;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use pels_core::parallel::ParallelScenario;
use pels_core::scenario::{pels_flows, wideband_chained_config, ScenarioConfig, ScenarioReport};
use pels_netsim::time::{SimDuration, SimTime};
use std::time::Instant;

/// The two simulator shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// 1024 independent wideband chains: the event loop and agents.
    Chained,
    /// The `pels run` default dumbbell with 8 video flows: shard windows.
    Dumbbell,
}

impl SimKind {
    /// Simulated seconds per second of `--seconds`, set so a run lasts
    /// about `--seconds` on a 2-core x86-64 host. The horizon is fixed per
    /// run so every run does the same work, and a faster simulator simply
    /// finishes sooner.
    fn sim_per_wall(self) -> f64 {
        match self {
            SimKind::Chained => 1.6,
            SimKind::Dumbbell => 50.0,
        }
    }

    /// Simulated seconds the run covers.
    pub fn horizon_s(self, seconds: u64) -> u64 {
        let min = match self {
            // Long enough for MKC to settle before the Lemma 6 check.
            SimKind::Chained => 5,
            SimKind::Dumbbell => 1,
        };
        ((seconds as f64 * self.sim_per_wall()).round() as u64).max(min)
    }

    /// `try_build` calls timed before the measured pass, and as many
    /// after it. On a 2-core x86-64 host a chained build takes about 7 ms
    /// of CPU and a dumbbell build about 20 µs.
    fn setup_builds(self) -> usize {
        match self {
            SimKind::Chained => 25,
            SimKind::Dumbbell => 1000,
        }
    }
}

/// The scenario for `kind`. The seed is the simulator seed, and it also
/// places each flow's start at a random point of its slot in the first
/// frame interval: PELS-mode runs draw no random numbers, so without this
/// every seed would produce the same run.
pub fn config(kind: SimKind, seed: u64) -> ScenarioConfig {
    let mut cfg = match kind {
        SimKind::Chained => wideband_chained_config(1024, 0.10),
        SimKind::Dumbbell => ScenarioConfig { flows: pels_flows(&[0.0; 8]), ..Default::default() },
    };
    cfg.seed = seed;
    let mut rng = SplitMix64::new(seed);
    let n = cfg.flows.len() as f64;
    for (i, f) in cfg.flows.iter_mut().enumerate() {
        f.start_at = SimDuration::from_secs_f64(0.1 * (i as f64 + rng.next_f64()) / n);
    }
    cfg
}

/// Digest of a serialized report, as `pels bench` computes it.
pub fn digest(report: &ScenarioReport) -> String {
    pels_bench::scalebench::report_digest(
        &serde_json::to_string(report).expect("scenario reports serialize"),
    )
}

/// CPU seconds of one `try_build`, the build dropped untimed. It runs
/// while no other thread of the process is busy, so the process's CPU
/// time is the build's cost, any thread it starts included, without the
/// time other work on the host takes from it.
///
/// # Errors
///
/// Returns the configuration error `try_build` reports.
pub fn setup_once(cfg: &ScenarioConfig) -> Result<f64, String> {
    let t = process_cpu_now();
    let sc = ParallelScenario::try_build(cfg.clone()).map_err(|e| e.to_string())?;
    let s = process_cpu_now() - t;
    drop(sc);
    Ok(s)
}

/// One build, run and report of the scenario.
#[derive(Debug)]
pub struct Pass {
    /// `try_build` seconds.
    pub build_s: f64,
    /// Wall seconds of each one-simulated-second `run_until` slice.
    pub slices: Vec<f64>,
    /// Process CPU seconds of each slice, every worker thread included.
    pub cpu_slices: Vec<f64>,
    /// Wall seconds of the run phase: the sum of the slices.
    pub run_s: f64,
    /// `report` seconds.
    pub report_s: f64,
    /// Wall seconds of the pass, build to report.
    pub wall_s: f64,
    /// The end-of-run report.
    pub report: ScenarioReport,
    /// Digest of `report`.
    pub digest: String,
    /// Events processed.
    pub events: u64,
    /// Window barriers.
    pub windows: u64,
    /// Cross-shard events.
    pub cross_events: u64,
    /// Worker threads spawned.
    pub threads_spawned: u64,
    /// Shards of the partition.
    pub n_shards: usize,
    /// Threads a window actually used.
    pub effective_workers: usize,
    /// Deepest shard event queue.
    pub peak_queue_depth: usize,
}

/// Builds, runs to `horizon_s` in one-simulated-second slices, and reports.
///
/// # Errors
///
/// Returns the configuration error `try_build` reports.
pub fn run_pass(
    cfg: &ScenarioConfig,
    workers: usize,
    horizon_s: u64,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let start = Instant::now();
    tracer.begin("core.scenario.build");
    let mut sc = ParallelScenario::try_build(cfg.clone()).map_err(|e| e.to_string())?;
    tracer.end();
    let build_s = start.elapsed().as_secs_f64();
    sc.set_workers(workers);
    let mut slices = Vec::with_capacity(horizon_s as usize);
    let mut cpu_slices = Vec::with_capacity(horizon_s as usize);
    let mut run_s = 0.0;
    for s in 1..=horizon_s {
        let t = Instant::now();
        let cpu = process_cpu_now();
        tracer.begin("netsim.run_until");
        sc.run_until(SimTime::from_secs_f64(s as f64));
        tracer.end();
        // Window workers have exited by now, so their CPU time is final.
        cpu_slices.push(process_cpu_now() - cpu);
        let slice = t.elapsed().as_secs_f64();
        slices.push(slice);
        run_s += slice;
    }
    let t = Instant::now();
    tracer.begin("core.scenario.report");
    let report = sc.report();
    tracer.end();
    let report_s = t.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Pass {
        build_s,
        slices,
        cpu_slices,
        run_s,
        report_s,
        wall_s,
        digest: digest(&report),
        report,
        events: sc.sim.events_processed(),
        windows: sc.sim.barriers(),
        cross_events: sc.sim.cross_events(),
        threads_spawned: sc.sim.threads_spawned(),
        n_shards: sc.sim.n_shards(),
        effective_workers: sc.sim.effective_workers(),
        peak_queue_depth: sc.sim.peak_queue_depth(),
    })
}

/// Largest allowed mean-rate deviation from Lemma 6 on the chained shape.
pub const LEMMA6_TOLERANCE_PCT: f64 = 5.0;

/// Mean final MKC rate across flows against the Lemma 6 rate, percent.
pub fn lemma6_dev_pct(report: &ScenarioReport) -> Option<f64> {
    let r = report.lemma6_kbps?;
    let n = report.flows.len().max(1) as f64;
    let mean = report.flows.iter().map(|f| f.final_rate_kbps).sum::<f64>() / n;
    Some(100.0 * (mean / r - 1.0).abs())
}

fn check_report(kind: SimKind, pass: &Pass, out: &mut Outcome) {
    let r = &pass.report;
    out.check(r.green_drops == 0, format!("{} green packets dropped", r.green_drops));
    if kind == SimKind::Chained {
        let dev = lemma6_dev_pct(r);
        out.check(
            dev.is_some_and(|d| d <= LEMMA6_TOLERANCE_PCT),
            format!("mean rate {dev:?}% from Lemma 6 (limit {LEMMA6_TOLERANCE_PCT}%)"),
        );
    }
}

/// The viewer-side figures of the simulated run, as the receivers saw
/// them: (goodput Mb/s, green delivery ratio, served ratio, mean one-way
/// delay ms, packets received).
fn viewer(cfg: &ScenarioConfig, r: &ScenarioReport) -> (f64, f64, f64, f64, u64) {
    let rx: u64 = r.flows.iter().flat_map(|f| f.received_by_color).sum();
    let green_sent: u64 = r.flows.iter().map(|f| f.sent_by_color[0]).sum();
    let green_rx: u64 = r.flows.iter().map(|f| f.received_by_color[0]).sum();
    let delay_sum: f64 = r
        .flows
        .iter()
        .flat_map(|f| (0..3).map(move |c| f.mean_delay_s[c] * f.received_by_color[c] as f64))
        .sum();
    let goodput = rx as f64 * f64::from(cfg.packet_bytes) * 8.0 / r.duration_s.max(1e-9) / 1e6;
    (
        goodput,
        green_rx as f64 / green_sent.max(1) as f64,
        r.admitted_flows as f64 / r.flows.len().max(1) as f64,
        1e3 * delay_sum / rx.max(1) as f64,
        rx,
    )
}

/// Runs a simulator workload: an untraced run times a set of builds
/// before the measured pass and as many after it. With `traced`, a second
/// traced pass and a `set_workers(1)` reference pass follow an untraced
/// one.
///
/// # Errors
///
/// Returns a build error.
pub fn run(
    kind: SimKind,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Outcome, Tracer), String> {
    let cfg = config(kind, seed);
    let workers = default_workers();
    let horizon = kind.horizon_s(seconds);
    let mut out = Outcome::default();

    // No build is alive beside the running scenario, so the peak resident
    // set, read before the second half of the set-up samples, is that of
    // one build and run, as in `pels run`.
    let n = kind.setup_builds();
    let mut setup = if traced { Vec::new() } else { spread_samples(n, || setup_once(&cfg))? };
    let a = run_pass(&cfg, workers, horizon, &mut Tracer::disabled())?;
    out.ok_ops(a.slices.len() as u64 + 2);
    check_report(kind, &a, &mut out);

    if !traced {
        out.push("peak_rss_mb", peak_rss_mb(), "MB", 1);
        setup.extend(spread_samples(n, || setup_once(&cfg))?);
        out.ok_ops(setup.len() as u64);
        out.push("setup_s", median(&setup), "s", setup.len() as u64);
        let (goodput, green, served, delay_ms, rx) = viewer(&cfg, &a.report);
        let flows = a.report.flows.len() as u64;
        // CPU, not wall, seconds: at two workers every window waits for
        // both threads, so a virtual CPU the host takes away for a moment
        // stalls the whole run, and wall time per simulated second read up
        // to 2.5 times apart between runs. Wall time per slice is the traced
        // `netsim.run.slice_p50_ms`. The median over the one-simulated-second
        // slices moves less than a mean with a burst of load elsewhere.
        out.push("host_s_per_s", median(&a.cpu_slices), "s/s", a.cpu_slices.len() as u64);
        out.push("goodput_mbps", goodput, "Mb/s", flows);
        out.push("green_delivery_ratio", green, "ratio", flows);
        out.push("sessions_served_ratio", served, "ratio", flows);
        out.push("pkt_delay_mean_ms", delay_ms, "ms", rx);
        return Ok((out, Tracer::disabled()));
    }

    let mut tracer = Tracer::new(Instant::now());
    let b = run_pass(&cfg, workers, horizon, &mut tracer)?;
    out.ok_ops(b.slices.len() as u64 + 2);
    check_report(kind, &b, &mut out);
    let serial = run_pass(&cfg, 1, horizon, &mut Tracer::disabled())?;
    out.ok_ops(serial.slices.len() as u64 + 2);
    out.check(
        b.digest == serial.digest,
        format!("report digest {} at {workers} workers, {} at 1", b.digest, serial.digest),
    );
    out.check(
        a.events == b.events && b.events == serial.events,
        format!("event counts differ for one seed: {} {} {}", a.events, b.events, serial.events),
    );

    let ev = b.events as f64;
    let span_sum: u64 = ["core.scenario.build", "netsim.run_until", "core.scenario.report"]
        .iter()
        .map(|n| tracer.stat(n).total_ns)
        .sum();
    let n_slices = b.slices.len() as u64;
    let ms = |v: Option<f64>| v.unwrap_or(0.0) * 1e3;
    out.push("core.scenario.build_s", b.build_s, "s", 1);
    out.push("core.scenario.report_s", b.report_s, "s", 1);
    out.push("netsim.shard.n_shards", b.n_shards as f64, "count", 1);
    out.push("netsim.shard.effective_workers", b.effective_workers as f64, "count", 1);
    out.push("netsim.shard.windows", b.windows as f64, "count", 1);
    out.push("netsim.shard.cross_events", b.cross_events as f64, "count", 1);
    out.push("netsim.shard.threads_spawned", b.threads_spawned as f64, "count", 1);
    out.push("netsim.shard.events_per_window", ev / b.windows.max(1) as f64, "count", b.windows);
    out.push("netsim.shard.overhead_s", b.run_s - serial.run_s, "s", 2);
    out.push("netsim.sim.events", ev, "count", 1);
    out.push("netsim.sim.events_per_s", ev / b.run_s, "1/s", 1);
    out.push("netsim.sim.ns_per_event", 1e9 * b.run_s / ev.max(1.0), "ns", 1);
    out.push("netsim.sim.ns_per_event_serial", 1e9 * serial.run_s / ev.max(1.0), "ns", 1);
    out.push("netsim.event.peak_queue_depth", b.peak_queue_depth as f64, "count", 1);
    out.push("netsim.run.slice_p50_ms", ms(quantile(&b.slices, 0.5)), "ms", n_slices);
    out.push("netsim.run.slice_max_ms", ms(quantile(&b.slices, 1.0)), "ms", n_slices);
    out.push("core.report.green_drops", b.report.green_drops as f64, "count", 1);
    out.push("core.report.lemma6_dev_pct", lemma6_dev_pct(&b.report).unwrap_or(0.0), "%", 1);
    out.push("core.report.digest_matches_serial", f64::from(b.digest == serial.digest), "bool", 1);
    // Medians of CPU time, like `host_s_per_s`: a few slow slices would
    // otherwise swamp the cost of two spans per slice.
    let overhead = median(&b.cpu_slices) / median(&a.cpu_slices) - 1.0;
    out.push("trace.overhead_pct", 100.0 * overhead, "%", n_slices);
    out.push("trace.layer_sum_ratio", span_sum as f64 / 1e9 / b.wall_s, "ratio", 1);
    // Whether the workload loads the layer it was chosen for.
    let overhead_share = (b.run_s - serial.run_s) / b.run_s;
    out.notes.push(match kind {
        SimKind::Dumbbell => format!(
            "load: shard overhead is {:.0}% of the run ({} windows){}",
            100.0 * overhead_share,
            b.windows,
            if overhead_share < 0.5 { "; netsim.shard is NOT the main cost" } else { "" }
        ),
        SimKind::Chained => format!(
            "load: {} windows for {horizon} slices, shard overhead {:.0}% of the run{}",
            b.windows,
            100.0 * overhead_share,
            if b.windows > horizon { "; netsim.shard is loaded too" } else { "" }
        ),
    });
    Ok((out, tracer))
}
