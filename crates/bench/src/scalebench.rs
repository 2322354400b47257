//! Many-flow scaling benchmark (`BENCH_scale.json`).
//!
//! Sweeps flow counts × worker counts on the parallel engine and measures
//! both *performance* (events/sec, wall-clock per simulated second, peak
//! event-queue depth, peak RSS, per-phase wall breakdown) and *correctness
//! at scale* (green drops, starvation, mean rate vs Lemma 6, utility) in
//! one pass: a fast simulator that corrupts the base layer at N = 512 is
//! not a baseline worth recording.
//!
//! Four topology families are available: `chained` (the default) restates
//! the wideband operating point as N independent dumbbell chains, which
//! the partitioner decomposes into one shard per chain — the shape where
//! parallel speedup is possible; `shared` keeps every flow on one
//! capacity-proportional bottleneck, where the delay-cut partition caps
//! the shard count at 2; `fattree` and `random` run generated
//! multi-bottleneck topologies ([`pels_topo`]) — a k-ary fat-tree sized to
//! the flow count and an ISP-like Waxman graph — on the sharded engine,
//! recording the per-bottleneck max-min deviation alongside the
//! performance columns. Reports at every topology are byte-identical
//! across worker counts; only the wall-clock columns may differ.
//!
//! The output schema is versioned (`pels-bench-scale/4`) so CI can check
//! required keys without pinning machine-dependent numbers. Rev 3 added
//! the per-row `topology` column and the `host_parallelism` header (a
//! 1-core container writing `workers: 8` rows is otherwise
//! indistinguishable from an 8-core run). Rev 4 makes worker accounting
//! honest: every row records the `effective_workers` actually driven
//! (requested workers clamped to both the host's parallelism and the
//! shard count), its synchronization `mode` (always `deterministic`),
//! and a `report_digest` plus the `serial_digest` of the same
//! configuration run single-threaded — so "parallel speedup with
//! identical results" is a checkable claim, not a caption.
//! [`validate_json`] rejects earlier revs, rows claiming more effective
//! workers than the host had (or than were requested, or than shards
//! exist), and rows whose digest differs from their serial digest.

use pels_core::parallel::ParallelScenario;
use pels_core::scenario::{lemma6_kbps, wideband_chained_config, wideband_scaled_config};
use pels_netsim::time::SimTime;
use pels_telemetry::Telemetry;
use pels_topo::scenario::TopoScenario;
use pels_topo::spec::{GeneratorSpec, TopoSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag embedded in every report.
pub const SCHEMA: &str = "pels-bench-scale/4";

/// FNV-1a 64-bit digest of a serialized report, rendered as fixed-width
/// hex. Stable across platforms and runs — two runs produced the same
/// report if and only if the digests match (modulo 64-bit collisions,
/// irrelevant for a self-check).
pub fn report_digest(serialized: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in serialized.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

/// Flow counts swept by default, per the scaling-issue spec.
pub const DEFAULT_COUNTS: &[usize] = &[1, 8, 64, 256, 512, 1024];

/// Topology family swept by the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleTopology {
    /// N independent dumbbell chains, one flow each (`Layout::ChainPerFlow`)
    /// — decomposes into N shards, so worker scaling is visible.
    #[default]
    Chained,
    /// One shared capacity-proportional wideband bottleneck — the
    /// delay-cut partition yields at most 2 shards.
    Shared,
    /// A k-ary fat-tree (smallest even `k ≥ 4` with `k³/8 ≥ n_flows`)
    /// generated by [`pels_topo`]: multi-bottleneck, cross-pod video
    /// flows plus TCP herds.
    FatTree,
    /// An ISP-like Waxman random graph (`max(16, min(512, n/8))` routers)
    /// generated by [`pels_topo`].
    Random,
}

impl ScaleTopology {
    /// The row label recorded in the report (`topology` column).
    pub fn label(self) -> &'static str {
        match self {
            ScaleTopology::Chained => "chained",
            ScaleTopology::Shared => "shared",
            ScaleTopology::FatTree => "fattree",
            ScaleTopology::Random => "random",
        }
    }

    /// Whether this family runs on the generated-topology engine.
    fn is_generated(self) -> bool {
        matches!(self, ScaleTopology::FatTree | ScaleTopology::Random)
    }
}

impl std::str::FromStr for ScaleTopology {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "chained" => Ok(ScaleTopology::Chained),
            "shared" => Ok(ScaleTopology::Shared),
            "fattree" => Ok(ScaleTopology::FatTree),
            "random" | "waxman" => Ok(ScaleTopology::Random),
            other => Err(format!("unknown topology `{other}` (chained|shared|fattree|random)")),
        }
    }
}

/// Configuration of one scaling sweep.
#[derive(Debug, Clone)]
pub struct ScaleBenchConfig {
    /// Flow counts to run, one row each per worker count.
    pub counts: Vec<usize>,
    /// Worker-thread counts to sweep; the full `counts` list runs once per
    /// entry, so rows group by workers with n_flows ascending inside each
    /// group.
    pub workers: Vec<usize>,
    /// Topology family (see [`ScaleTopology`]).
    pub topology: ScaleTopology,
    /// Simulated seconds per row.
    pub duration_s: f64,
    /// Target FGS-layer loss for the wideband operating point.
    pub target_fgs_loss: f64,
    /// Telemetry handle; per-phase wall times are recorded under
    /// `bench.scale.n<N>.w<W>.<phase>_s` when enabled.
    pub telemetry: Telemetry,
}

impl Default for ScaleBenchConfig {
    fn default() -> Self {
        ScaleBenchConfig {
            counts: DEFAULT_COUNTS.to_vec(),
            workers: vec![1],
            topology: ScaleTopology::default(),
            duration_s: 10.0,
            target_fgs_loss: 0.10,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Wall-clock seconds spent in each phase of one row.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Building the topology, agents, and partition.
    pub build_s: f64,
    /// Driving the event loop for the simulated duration.
    pub run_s: f64,
    /// Producing the end-of-run report.
    pub report_s: f64,
}

/// One (flow count, worker count) row of the scaling benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBenchRow {
    /// Number of video flows.
    pub n_flows: usize,
    /// Worker threads *requested* for the row.
    pub workers: usize,
    /// Worker threads actually driven: `workers` clamped to the host's
    /// available parallelism and to the shard count. The honest speedup
    /// denominator — a 1-core container can request 8 workers but never
    /// effectively run more than 1.
    pub effective_workers: usize,
    /// Synchronization mode the row ran under: always `deterministic`
    /// (the column is kept so rev-4 documents stay valid).
    pub mode: String,
    /// Topology family the row ran on (`chained` / `shared` / `fattree` /
    /// `random`).
    pub topology: String,
    /// Shards the topology partitioned into.
    pub n_shards: usize,
    /// Simulator events processed (identical across worker counts).
    pub events: u64,
    /// Events per wall-clock second (the headline throughput number).
    pub events_per_sec: f64,
    /// Total wall-clock seconds for the row (all phases).
    pub wall_s: f64,
    /// Wall-clock seconds per simulated second (run phase only).
    pub wall_per_sim_s: f64,
    /// High-water mark of the deepest single shard's event queue.
    pub peak_queue_depth: usize,
    /// Peak resident set size (`VmHWM`) after the row, in bytes; 0 when
    /// the platform does not expose it.
    pub peak_rss_bytes: u64,
    /// Per-phase wall breakdown.
    pub phases: PhaseBreakdown,
    /// Base-layer drops at the bottleneck (must stay 0 on this topology).
    pub green_drops: u64,
    /// Flows starved by the degradation policy (must stay 0 here).
    pub starved_flows: usize,
    /// Mean final rate across flows, kb/s.
    pub mean_rate_kbps: f64,
    /// Lemma 6 stationary rate for the row's topology, kb/s (dumbbell
    /// families only — generated multi-bottleneck families have no single
    /// Lemma 6 rate).
    pub lemma6_kbps: Option<f64>,
    /// Mean Eq. 3 utility across flows.
    pub mean_utility: f64,
    /// Largest per-bottleneck |measured − predicted| deviation against the
    /// max-min + `α/β` reference, percent (generated families only).
    pub max_abs_deviation_pct: Option<f64>,
    /// FNV-1a digest of this row's serialized end-of-run report.
    pub report_digest: String,
    /// Digest of the same configuration run single-threaded in
    /// deterministic mode. Every row must match `report_digest` byte for
    /// byte.
    pub serial_digest: String,
}

/// A full scaling sweep: one row per (workers, flow count) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBenchReport {
    /// Schema tag (`pels-bench-scale/3`).
    pub schema: String,
    /// `available_parallelism` of the machine that produced the report —
    /// rows with `workers` above this number measured oversubscription,
    /// not speedup (the CI container runs at 1).
    pub host_parallelism: usize,
    /// Simulated seconds per row.
    pub duration_s: f64,
    /// Rows in the order run: grouped by (workers, topology), n_flows
    /// ascending inside each group.
    pub rows: Vec<ScaleBenchRow>,
}

/// Runs the sweep, printing one line per row as it completes (rows at
/// N = 1024 take a while; silence reads as a hang).
///
/// Every row carries a `serial_digest`: the digest of the same
/// configuration run single-threaded. Digests are memoized per flow
/// count, so a sweep that includes a `workers = 1` group (the default)
/// pays nothing extra; sweeps that never run a count serially pay one
/// additional serial run for that count.
pub fn run_scale(cfg: &ScaleBenchConfig) -> ScaleBenchReport {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut rows = Vec::with_capacity(cfg.counts.len() * cfg.workers.len());
    let mut serial_digests: HashMap<usize, String> = HashMap::new();
    for &w in &cfg.workers {
        for &n in &cfg.counts {
            let mut row = run_row(n, w, host, cfg);
            row.serial_digest = match serial_digests.get(&n) {
                Some(d) => d.clone(),
                None => {
                    let d = if row.effective_workers == 1 {
                        row.report_digest.clone()
                    } else {
                        serial_digest_run(n, cfg)
                    };
                    serial_digests.insert(n, d.clone());
                    d
                }
            };
            let digest_col = if row.report_digest == row.serial_digest {
                "digest=serial"
            } else {
                "digest MISMATCH"
            };
            println!(
                "  n={:>5} w={:>2} ew={:>2} {:<8} shards={:>5}: {:>9.0} events/s  \
                 {:.3} wall-s/sim-s  peak queue {:>6}  green drops {}  mean rate {:.0} kb/s  {}",
                row.n_flows,
                row.workers,
                row.effective_workers,
                row.topology,
                row.n_shards,
                row.events_per_sec,
                row.wall_per_sim_s,
                row.peak_queue_depth,
                row.green_drops,
                row.mean_rate_kbps,
                digest_col
            );
            rows.push(row);
        }
    }
    ScaleBenchReport {
        schema: SCHEMA.to_string(),
        host_parallelism: host,
        duration_s: cfg.duration_s,
        rows,
    }
}

/// Digest of a single-threaded deterministic run of the row configuration
/// — the reference every parallel row is compared against.
fn serial_digest_run(n: usize, cfg: &ScaleBenchConfig) -> String {
    if cfg.topology.is_generated() {
        let mut s = TopoScenario::build(generated_spec(cfg.topology, n));
        s.run_until(SimTime::from_secs_f64(cfg.duration_s));
        report_digest(&serde_json::to_string(&s.report()).unwrap_or_default())
    } else {
        let scenario_cfg = match cfg.topology {
            ScaleTopology::Chained => wideband_chained_config(n, cfg.target_fgs_loss),
            _ => wideband_scaled_config(n, cfg.target_fgs_loss),
        };
        let mut s = ParallelScenario::build(scenario_cfg);
        s.run_until(SimTime::from_secs_f64(cfg.duration_s));
        report_digest(&serde_json::to_string(&s.report()).unwrap_or_default())
    }
}

/// The [`TopoSpec`] a generated-family row runs: a fat-tree sized so every
/// flow gets a distinct cross-pod slot, or a Waxman graph with roughly one
/// router per 8 flows (capped to keep Dijkstra-per-flow affordable).
fn generated_spec(topology: ScaleTopology, n: usize) -> TopoSpec {
    let generator = match topology {
        ScaleTopology::FatTree => {
            let mut k = 4usize;
            while k * k * k / 8 < n {
                k += 2;
            }
            GeneratorSpec::FatTree { k }
        }
        ScaleTopology::Random => {
            GeneratorSpec::Waxman { routers: (n / 8).clamp(16, 512), alpha: None, beta: None }
        }
        _ => unreachable!("dumbbell families never build a TopoSpec"),
    };
    let mut spec = TopoSpec::new(generator);
    spec.flows = Some(n);
    spec
}

fn run_row(n: usize, workers: usize, host: usize, cfg: &ScaleBenchConfig) -> ScaleBenchRow {
    if cfg.topology.is_generated() {
        return run_generated_row(n, workers, host, cfg);
    }
    let t0 = Instant::now();
    let scenario_cfg = match cfg.topology {
        ScaleTopology::Chained => wideband_chained_config(n, cfg.target_fgs_loss),
        _ => wideband_scaled_config(n, cfg.target_fgs_loss),
    };
    let lemma6 = lemma6_kbps(&scenario_cfg);
    let mut s = ParallelScenario::build(scenario_cfg);
    // Requested workers are recorded verbatim in the row; the simulator is
    // driven at what the host can actually deliver.
    s.set_workers(workers.min(host).max(1));
    let n_shards = s.n_shards();
    let effective_workers = s.sim.effective_workers();
    let build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    s.run_until(SimTime::from_secs_f64(cfg.duration_s));
    let run_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let report = s.report();
    let report_s = t2.elapsed().as_secs_f64();

    let tel = &cfg.telemetry;
    if tel.is_enabled() {
        tel.gauge_set(&format!("bench.scale.n{n}.w{workers}.build_s"), build_s);
        tel.gauge_set(&format!("bench.scale.n{n}.w{workers}.run_s"), run_s);
        tel.gauge_set(&format!("bench.scale.n{n}.w{workers}.report_s"), report_s);
        tel.gauge_set(&format!("bench.scale.n{n}.w{workers}.events"), s.events_processed() as f64);
        tel.flush(cfg.duration_s);
    }

    let events = s.events_processed();
    let mean_rate_kbps = report.flows.iter().map(|f| f.final_rate_kbps).sum::<f64>() / n as f64;
    let mean_utility = report.flows.iter().map(|f| f.utility).sum::<f64>() / n as f64;
    let digest = report_digest(&serde_json::to_string(&report).unwrap_or_default());
    ScaleBenchRow {
        n_flows: n,
        workers,
        effective_workers,
        mode: MODE.to_string(),
        topology: cfg.topology.label().to_string(),
        n_shards,
        events,
        events_per_sec: events as f64 / run_s.max(1e-9),
        wall_s: build_s + run_s + report_s,
        wall_per_sim_s: run_s / cfg.duration_s,
        peak_queue_depth: s.peak_queue_depth(),
        peak_rss_bytes: peak_rss_bytes(),
        phases: PhaseBreakdown { build_s, run_s, report_s },
        green_drops: report.green_drops,
        starved_flows: report.starved_flows,
        mean_rate_kbps,
        lemma6_kbps: lemma6,
        mean_utility,
        max_abs_deviation_pct: None,
        report_digest: digest,
        serial_digest: String::new(),
    }
}

/// The `mode` column value of every row.
const MODE: &str = "deterministic";

/// One row on a generated multi-bottleneck topology ([`pels_topo`]): the
/// same performance columns, plus the per-bottleneck max-min deviation in
/// place of the (undefined) single Lemma 6 rate.
fn run_generated_row(
    n: usize,
    workers: usize,
    host: usize,
    cfg: &ScaleBenchConfig,
) -> ScaleBenchRow {
    let spec = generated_spec(cfg.topology, n);
    let t0 = Instant::now();
    let mut s = TopoScenario::build(spec);
    s.set_workers(workers.min(host).max(1));
    let n_shards = s.n_shards();
    let effective_workers = s.sim.effective_workers();
    let build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    s.run_until(SimTime::from_secs_f64(cfg.duration_s));
    let run_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let report = s.report();
    let report_s = t2.elapsed().as_secs_f64();

    let tel = &cfg.telemetry;
    if tel.is_enabled() {
        tel.gauge_set(&format!("bench.scale.n{n}.w{workers}.build_s"), build_s);
        tel.gauge_set(&format!("bench.scale.n{n}.w{workers}.run_s"), run_s);
        tel.gauge_set(&format!("bench.scale.n{n}.w{workers}.report_s"), report_s);
        tel.gauge_set(&format!("bench.scale.n{n}.w{workers}.events"), report.events as f64);
        tel.flush(cfg.duration_s);
    }

    let digest = report_digest(&serde_json::to_string(&report).unwrap_or_default());
    ScaleBenchRow {
        n_flows: n,
        workers,
        effective_workers,
        mode: MODE.to_string(),
        topology: cfg.topology.label().to_string(),
        n_shards,
        events: report.events,
        events_per_sec: report.events as f64 / run_s.max(1e-9),
        wall_s: build_s + run_s + report_s,
        wall_per_sim_s: run_s / cfg.duration_s,
        peak_queue_depth: s.peak_queue_depth(),
        peak_rss_bytes: peak_rss_bytes(),
        phases: PhaseBreakdown { build_s, run_s, report_s },
        green_drops: s.green_drops(),
        starved_flows: s.starved_flows(),
        mean_rate_kbps: s.mean_rate_kbps(),
        lemma6_kbps: None,
        mean_utility: report.mean_utility,
        max_abs_deviation_pct: Some(report.max_abs_deviation_pct),
        report_digest: digest,
        serial_digest: String::new(),
    }
}

/// Where `BENCH_scale.json` is written: in `dir` when given, otherwise at
/// the workspace root ([`crate::bench_dir_in`]).
pub fn output_path(dir: Option<&Path>) -> PathBuf {
    crate::bench_dir_in(dir).join("BENCH_scale.json")
}

/// Peak resident set size of this process in bytes, from Linux
/// `/proc/self/status` (`VmHWM`). Returns 0 elsewhere — the field is
/// informational and must not fail the bench on other platforms.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

/// Validates a `BENCH_scale.json` document: schema tag (earlier revs are
/// rejected — a typed parse also fails on rows missing rev-4 columns, so
/// reports splicing old and new rows never validate), at least one row,
/// every required key present with finite sane values, a known
/// `topology` label per row, `host_parallelism ≥ 1`, and `n_flows`
/// strictly increasing within each consecutive (workers, topology) group
/// (rows out of order usually mean a hand-edited or truncated report).
///
/// Rev-4 honesty gates, per row:
/// - `effective_workers` is at least 1 and no larger than the requested
///   `workers`, the report's `host_parallelism`, or the row's `n_shards`
///   — a row claiming more effective workers than the host had is the
///   exact lie this schema revision exists to catch;
/// - `mode` is `deterministic`;
/// - both digests are well-formed 16-hex-digit strings, and
///   `report_digest == serial_digest` (byte-identical to the
///   single-threaded run).
///
/// Returns the parsed report for further inspection.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found.
pub fn validate_json(text: &str) -> Result<ScaleBenchReport, String> {
    let report: ScaleBenchReport =
        serde_json::from_str(text).map_err(|e| format!("not a scale-bench report: {e}"))?;
    if report.schema != SCHEMA {
        return Err(format!("schema `{}`, expected `{SCHEMA}`", report.schema));
    }
    if report.rows.is_empty() {
        return Err("report holds no rows".into());
    }
    if report.host_parallelism == 0 {
        return Err("host_parallelism must be at least 1".into());
    }
    if !report.duration_s.is_finite() || report.duration_s <= 0.0 {
        return Err(format!("non-positive duration_s {}", report.duration_s));
    }
    const FAMILIES: [&str; 4] = ["chained", "shared", "fattree", "random"];
    let mut prev: Option<&ScaleBenchRow> = None;
    for row in &report.rows {
        let tag = format!("n={} w={}", row.n_flows, row.workers);
        if row.n_flows == 0 {
            return Err("row with zero flows".into());
        }
        if row.workers == 0 {
            return Err(format!("{tag}: zero workers"));
        }
        if row.effective_workers == 0 {
            return Err(format!("{tag}: zero effective workers"));
        }
        if row.effective_workers > row.workers {
            return Err(format!(
                "{tag}: effective_workers {} exceeds requested workers {}",
                row.effective_workers, row.workers
            ));
        }
        if row.effective_workers > report.host_parallelism {
            return Err(format!(
                "{tag}: claims {} effective workers but the host had only {}",
                row.effective_workers, report.host_parallelism
            ));
        }
        if row.effective_workers > row.n_shards {
            return Err(format!(
                "{tag}: claims {} effective workers across only {} shards",
                row.effective_workers, row.n_shards
            ));
        }
        if row.mode != MODE {
            return Err(format!("{tag}: unknown mode `{}`", row.mode));
        }
        let hex16 = |d: &str| d.len() == 16 && d.bytes().all(|b| b.is_ascii_hexdigit());
        if !hex16(&row.report_digest) || !hex16(&row.serial_digest) {
            return Err(format!("{tag}: malformed report/serial digest"));
        }
        if row.report_digest != row.serial_digest {
            return Err(format!(
                "{tag}: row diverges from the serial run \
                 (report digest {} vs serial {})",
                row.report_digest, row.serial_digest
            ));
        }
        if !FAMILIES.contains(&row.topology.as_str()) {
            return Err(format!("{tag}: unknown topology `{}`", row.topology));
        }
        if row.n_shards == 0 {
            return Err(format!("{tag}: zero shards"));
        }
        if row.events == 0 || !row.events_per_sec.is_finite() || row.events_per_sec <= 0.0 {
            return Err(format!("{tag}: no measured events"));
        }
        let walls = [row.wall_s, row.wall_per_sim_s, row.phases.run_s];
        if walls.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(format!("{tag}: missing or non-finite wall-clock measurements"));
        }
        if row.peak_queue_depth == 0 {
            return Err(format!("{tag}: event-queue depth never sampled"));
        }
        if let Some(p) = prev {
            if p.workers == row.workers && p.topology == row.topology && row.n_flows <= p.n_flows {
                return Err(format!(
                    "{tag}: n_flows not strictly increasing after n={} in the w={} {} group",
                    p.n_flows, p.workers, p.topology
                ));
            }
        }
        prev = Some(row);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_valid_rows() {
        let cfg = ScaleBenchConfig { counts: vec![1, 2], duration_s: 1.0, ..Default::default() };
        let report = run_scale(&cfg);
        assert_eq!(report.rows.len(), 2);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed = validate_json(&json).unwrap();
        assert_eq!(parsed.rows[0].n_flows, 1);
        assert_eq!(parsed.rows[0].workers, 1);
        assert_eq!(parsed.rows[1].n_shards, 2, "chained topology shards per flow");
        assert!(parsed.rows[1].events > parsed.rows[0].events, "more flows, more events");
        assert_eq!(parsed.rows[0].green_drops, 0);
    }

    #[test]
    fn worker_sweep_repeats_counts_per_group_with_identical_events() {
        let cfg = ScaleBenchConfig {
            counts: vec![1, 2],
            workers: vec![1, 2],
            duration_s: 0.5,
            ..Default::default()
        };
        let report = run_scale(&cfg);
        assert_eq!(report.rows.len(), 4);
        let json = serde_json::to_string_pretty(&report).unwrap();
        validate_json(&json).unwrap();
        // The schedule is fixed by the partition, so the event count of a
        // given n must not depend on the worker count.
        assert_eq!(report.rows[0].events, report.rows[2].events);
        assert_eq!(report.rows[1].events, report.rows[3].events);
    }

    #[test]
    fn shared_topology_caps_shards_at_the_delay_cut() {
        let cfg = ScaleBenchConfig {
            counts: vec![3],
            topology: ScaleTopology::Shared,
            duration_s: 0.5,
            ..Default::default()
        };
        let report = run_scale(&cfg);
        assert!(report.rows[0].n_shards <= 2, "shared dumbbell cuts into at most 2 shards");
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_json("not json").is_err());
        assert!(validate_json("{}").is_err());
        // Earlier schema revs (rows lack newer columns) never pass.
        for rev in ["pels-bench-scale/1", "pels-bench-scale/2", "pels-bench-scale/3"] {
            let old = format!(
                "{{\"schema\":\"{rev}\",\"host_parallelism\":1,\"duration_s\":1.0,\"rows\":[]}}"
            );
            assert!(validate_json(&old).unwrap_err().contains("schema"));
        }
        let empty = format!(
            "{{\"schema\":\"{SCHEMA}\",\"host_parallelism\":1,\"duration_s\":1.0,\"rows\":[]}}"
        );
        assert!(validate_json(&empty).unwrap_err().contains("no rows"));
    }

    #[test]
    fn validation_rejects_bad_topology_and_host_parallelism() {
        let cfg = ScaleBenchConfig { counts: vec![1], duration_s: 0.5, ..Default::default() };
        let good = run_scale(&cfg);
        assert!(good.host_parallelism >= 1);
        assert_eq!(good.rows[0].topology, "chained");

        let mut unknown = good.clone();
        unknown.rows[0].topology = "mesh".into();
        let json = serde_json::to_string(&unknown).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("unknown topology"));

        let mut no_host = good;
        no_host.host_parallelism = 0;
        let json = serde_json::to_string(&no_host).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("host_parallelism"));
    }

    #[test]
    fn generated_families_produce_valid_rows_with_deviation() {
        let cfg = ScaleBenchConfig {
            counts: vec![4],
            topology: ScaleTopology::Random,
            duration_s: 1.0,
            ..Default::default()
        };
        let report = run_scale(&cfg);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed = validate_json(&json).unwrap();
        let row = &parsed.rows[0];
        assert_eq!(row.topology, "random");
        assert!(row.lemma6_kbps.is_none(), "no single Lemma 6 rate off the dumbbell");
        assert!(row.max_abs_deviation_pct.is_some(), "generated rows carry the max-min check");
        assert!(row.n_shards >= 1 && row.events > 0);
    }

    #[test]
    fn mixed_topology_groups_validate_per_family() {
        // A report holding chained rows followed by a same-workers fattree
        // row at a lower flow count is still monotone: the monotonicity
        // check groups by (workers, topology).
        let cfg = ScaleBenchConfig { counts: vec![1, 2], duration_s: 0.5, ..Default::default() };
        let mut report = run_scale(&cfg);
        let ft = ScaleBenchConfig {
            counts: vec![2],
            topology: ScaleTopology::FatTree,
            duration_s: 0.5,
            ..Default::default()
        };
        report.rows.extend(run_scale(&ft).rows);
        let json = serde_json::to_string(&report).unwrap();
        validate_json(&json).unwrap();
    }

    #[test]
    fn validation_rejects_out_of_order_and_non_finite_rows() {
        let cfg = ScaleBenchConfig { counts: vec![1, 2], duration_s: 0.5, ..Default::default() };
        let good = run_scale(&cfg);

        let mut swapped = good.clone();
        swapped.rows.swap(0, 1);
        let json = serde_json::to_string(&swapped).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("strictly increasing"));

        // serde_json renders NaN as null, which the typed parse rejects —
        // either way a NaN wall never validates.
        let mut nan_wall = good.clone();
        nan_wall.rows[0].wall_s = f64::NAN;
        let json = serde_json::to_string(&nan_wall).unwrap();
        assert!(validate_json(&json).is_err());

        let mut neg_wall = good.clone();
        neg_wall.rows[0].wall_per_sim_s = -0.25;
        let json = serde_json::to_string(&neg_wall).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("wall-clock"));

        let mut zero_workers = good;
        zero_workers.rows[0].workers = 0;
        let json = serde_json::to_string(&zero_workers).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("zero workers"));
    }

    #[test]
    fn validation_rejects_dishonest_worker_claims() {
        let cfg = ScaleBenchConfig { counts: vec![1], duration_s: 0.5, ..Default::default() };
        let good = run_scale(&cfg);
        assert_eq!(good.rows[0].mode, "deterministic");
        assert_eq!(good.rows[0].report_digest, good.rows[0].serial_digest);

        let mut inflated = good.clone();
        inflated.rows[0].effective_workers = inflated.rows[0].workers + 7;
        let json = serde_json::to_string(&inflated).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("exceeds requested workers"));

        // A row claiming more effective workers than the host had — the
        // headline lie this schema revision exists to reject.
        let mut ghost = good.clone();
        let phantom = good.host_parallelism + 4;
        ghost.rows[0].workers = phantom;
        ghost.rows[0].effective_workers = phantom;
        ghost.rows[0].n_shards = phantom;
        let json = serde_json::to_string(&ghost).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("host had only"));

        let mut over_sharded = good.clone();
        over_sharded.rows[0].n_shards = 1;
        over_sharded.rows[0].workers = good.host_parallelism;
        over_sharded.rows[0].effective_workers = good.host_parallelism;
        let json = serde_json::to_string(&over_sharded).unwrap();
        if good.host_parallelism > 1 {
            assert!(validate_json(&json).unwrap_err().contains("shards"));
        }

        // `relaxed` rows came from an executor that no longer exists.
        for mode in ["optimistic", "relaxed"] {
            let mut bad_mode = good.clone();
            bad_mode.rows[0].mode = mode.into();
            let json = serde_json::to_string(&bad_mode).unwrap();
            assert!(validate_json(&json).unwrap_err().contains("unknown mode"), "{mode}");
        }
    }

    #[test]
    fn validation_rejects_digest_divergence() {
        let cfg = ScaleBenchConfig { counts: vec![1], duration_s: 0.5, ..Default::default() };
        let good = run_scale(&cfg);

        let mut diverged = good.clone();
        let flipped = {
            let d = &diverged.rows[0].serial_digest;
            let head = if d.starts_with('0') { "1" } else { "0" };
            format!("{head}{}", &d[1..])
        };
        diverged.rows[0].serial_digest = flipped;
        let json = serde_json::to_string(&diverged).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("diverges from the serial run"));

        let mut malformed = good;
        malformed.rows[0].report_digest = "nope".into();
        malformed.rows[0].serial_digest = "nope".into();
        let json = serde_json::to_string(&malformed).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("malformed"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
