//! Wire saturation benchmark (`BENCH_wire.json`).
//!
//! Runs `pels serve` and `pels loadgen` as two threads over real loopback
//! UDP and sweeps concurrent flow counts, once per I/O mode: `loop` (one
//! syscall per datagram, the scalar [`pels_wire::UdpTransport`] path) and
//! `batched` (`recvmmsg`/`sendmmsg` through [`pels_wire::BatchedUdp`]).
//! Both modes carry the identical offered load — same flow count, same
//! per-flow controllers, same shared router — so the ratio of delivered
//! datagrams/s is the syscall-amortization headline, not a workload
//! change. On a single-core host the two processes timeshare one CPU in
//! both modes, which keeps the comparison honest rather than flattering.
//!
//! The throughput column is the *loadgen's* steady-window delivery rate:
//! what actually crossed the socket pair, not what the server believes it
//! sent. `p99_pacing_jitter_us` comes from the serve side — timer-wheel
//! event lateness against the scheduled deadline.
//!
//! The output schema is versioned (`pels-bench-wire/1`) and mirrors the
//! `BENCH_scale.json` rev discipline: a `digest` over the serialized rows
//! lets [`validate_json`] reject hand-edited reports, and the recorded
//! `batched_speedup` must match the ratio recomputed from the rows.

use crate::scalebench::{peak_rss_bytes, report_digest};
use pels_netsim::time::{Rate, SimDuration};
use pels_wire::{run_loadgen, run_serve_with, LoadgenConfig, ServeConfig};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Schema tag embedded in every report.
pub const SCHEMA: &str = "pels-bench-wire/1";

/// Flow counts of the full sweep. The last (largest) count is the
/// saturation row the headline ratio is computed at: 4096 flows is past
/// the point where the per-datagram baseline stops sustaining every flow
/// on a single core, while the batched+coalesced path still serves all
/// of them.
pub const DEFAULT_COUNTS: [u32; 3] = [1024, 2048, 4096];

/// Configuration of one wire bench sweep.
#[derive(Debug, Clone)]
pub struct WireBenchConfig {
    /// Concurrent flow counts, one `loop` + one `batched` row each.
    pub counts: Vec<u32>,
    /// Loadgen wall-clock seconds per row.
    pub duration_s: f64,
    /// Seconds excluded from the steady delivery window (ramp + MKC
    /// convergence); clamped to half the duration.
    pub warmup_s: f64,
    /// Shared serve-side router capacity in Mb/s. Deliberately higher
    /// than loopback can carry: the bench measures I/O-path saturation,
    /// so the socket loop must be the binding constraint, not the AQM
    /// budget (at 100 Mb/s both modes plateau at the same
    /// capacity-limited rate and the comparison measures nothing).
    pub capacity_mbps: f64,
    /// Data packet size in bytes.
    pub packet_bytes: u32,
    /// Datagrams per batched I/O call.
    pub batch_size: usize,
}

impl Default for WireBenchConfig {
    fn default() -> Self {
        WireBenchConfig {
            counts: DEFAULT_COUNTS.to_vec(),
            duration_s: 5.0,
            warmup_s: 2.0,
            capacity_mbps: 2000.0,
            packet_bytes: 400,
            batch_size: 64,
        }
    }
}

/// One (flow count, I/O mode) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireBenchRow {
    /// Concurrent flows offered by the loadgen.
    pub flows: u32,
    /// `"loop"` (syscall per datagram) or `"batched"` (mmsg vectors).
    pub mode: String,
    /// Flows still receiving data in the final 500 ms.
    pub flows_sustained: u32,
    /// `flows_sustained` divided by the host's available parallelism.
    pub flows_per_core: f64,
    /// Delivered datagrams/s over the loadgen's steady window — the
    /// headline throughput column.
    pub datagrams_per_sec: f64,
    /// Data datagrams delivered across the whole run.
    pub data_received: u64,
    /// Serve-side p50 timer lateness against the scheduled deadline (µs).
    pub p50_pacing_jitter_us: f64,
    /// Serve-side p99 timer lateness against the scheduled deadline (µs).
    pub p99_pacing_jitter_us: f64,
    /// UDP sends swallowed on `WouldBlock`/refusal, both sides summed.
    pub send_drops: u64,
    /// Undecodable datagrams, both sides summed.
    pub decode_errors: u64,
    /// Server flow-table entries alive at exit — must be 0 after BYEs.
    pub leaked_flows: u64,
    /// Wall-clock seconds the row took end to end.
    pub wall_s: f64,
}

/// A full `BENCH_wire.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireBenchReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// `available_parallelism` of the recording host — a 1-core container
    /// timesharing serve and loadgen is a different claim than two cores.
    pub host_parallelism: usize,
    /// Loadgen seconds per row.
    pub duration_s: f64,
    /// Peak RSS of the recording process in bytes (0 off Linux).
    pub peak_rss_bytes: u64,
    /// Delivered-rate ratio batched/loop at the largest flow count — the
    /// syscall-amortization headline. [`validate_json`] recomputes it.
    pub batched_speedup: f64,
    /// One row per (flow count, mode), flows ascending, `loop` first.
    pub rows: Vec<WireBenchRow>,
    /// FNV-1a digest of the serialized `rows` array ([`report_digest`]);
    /// rejects hand-edited reports.
    pub digest: String,
}

/// Digest input: the rows serialized alone, so the header (which embeds
/// the digest itself) stays out of the hash.
fn rows_digest(rows: &[WireBenchRow]) -> String {
    report_digest(&serde_json::to_string(rows).unwrap_or_default())
}

/// Runs one serve+loadgen pair over loopback and folds both end-of-run
/// reports into a row.
fn run_row(cfg: &WireBenchConfig, flows: u32, batched: bool) -> Result<WireBenchRow, String> {
    let started = Instant::now();
    let duration = SimDuration::from_secs_f64(cfg.duration_s);
    let warmup = SimDuration::from_secs_f64(cfg.warmup_s.min(cfg.duration_s / 2.0));
    let ramp = SimDuration::from_secs_f64((cfg.duration_s / 4.0).min(1.0));

    let mut serve_cfg = ServeConfig::new(std::net::SocketAddr::from(([127, 0, 0, 1], 0)));
    serve_cfg.capacity = Rate::from_mbps(cfg.capacity_mbps);
    serve_cfg.packet_bytes = cfg.packet_bytes;
    serve_cfg.batch = batched;
    serve_cfg.batch_size = cfg.batch_size;
    serve_cfg.max_flows = flows as usize * 2;
    // The stop flag ends the server; the duration is only a hang backstop.
    serve_cfg.duration = duration + SimDuration::from_secs(60);

    let stop = Arc::new(AtomicBool::new(false));
    let stop_srv = Arc::clone(&stop);
    let (addr_tx, addr_rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        run_serve_with(
            serve_cfg,
            move |addr| {
                let _ = addr_tx.send(addr);
            },
            move || stop_srv.load(Ordering::Relaxed),
        )
    });
    let server_addr = match addr_rx.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(a) => a,
        Err(_) => {
            stop.store(true, Ordering::Relaxed);
            let _ = server.join();
            return Err("serve thread never bound its socket".into());
        }
    };

    let mut lg_cfg = LoadgenConfig::new(server_addr);
    lg_cfg.flows = flows;
    lg_cfg.duration = duration;
    lg_cfg.ramp = ramp;
    lg_cfg.warmup = warmup;
    lg_cfg.batch = batched;
    lg_cfg.batch_size = cfg.batch_size;
    let lg = run_loadgen(lg_cfg).map_err(|e| format!("loadgen failed: {e}"))?;

    // Give the server a beat to drain the BYEs before it reports its
    // flow-table size — the leak column measures teardown, not a race.
    // The window deliberately exceeds the 500 ms idle-eviction timeout so
    // a BYE lost under load is still cleaned up by the eviction backstop
    // (the leak gate checks that the table *empties*, by either path).
    std::thread::sleep(std::time::Duration::from_millis(800));
    stop.store(true, Ordering::Relaxed);
    let srv = server
        .join()
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(|e| format!("serve failed: {e}"))?;

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Ok(WireBenchRow {
        flows,
        mode: if batched { "batched" } else { "loop" }.to_string(),
        flows_sustained: lg.flows_sustained,
        flows_per_core: f64::from(lg.flows_sustained) / cores as f64,
        datagrams_per_sec: lg.steady_datagrams_per_sec,
        data_received: lg.data_received,
        p50_pacing_jitter_us: srv.pacing_jitter_p50_us,
        p99_pacing_jitter_us: srv.pacing_jitter_p99_us,
        send_drops: lg.send_drops + srv.send_drops,
        decode_errors: lg.decode_errors + srv.decode_errors,
        leaked_flows: srv.leaked_flows as u64,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Runs the full sweep and assembles the report, printing one line per
/// row to stderr as it goes (rows take `duration_s` wall seconds each).
///
/// # Errors
///
/// Returns a human-readable description of the first row that failed to
/// run (socket setup, thread panic).
pub fn run_wire(cfg: &WireBenchConfig) -> Result<WireBenchReport, String> {
    let mut counts = cfg.counts.clone();
    counts.sort_unstable();
    counts.dedup();
    let mut rows = Vec::with_capacity(counts.len() * 2);
    for &flows in &counts {
        for batched in [false, true] {
            let row = run_row(cfg, flows, batched)?;
            eprintln!(
                "  {:>5} flows {:<7} {:>9.0} dgrams/s  sustained {:>5}  \
                 p99 jitter {:>8.0} us  drops {:>6}  leaked {}",
                row.flows,
                row.mode,
                row.datagrams_per_sec,
                row.flows_sustained,
                row.p99_pacing_jitter_us,
                row.send_drops,
                row.leaked_flows
            );
            rows.push(row);
        }
    }
    let digest = rows_digest(&rows);
    Ok(WireBenchReport {
        schema: SCHEMA.to_string(),
        host_parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        duration_s: cfg.duration_s,
        peak_rss_bytes: peak_rss_bytes(),
        batched_speedup: headline_speedup(&rows).unwrap_or(f64::NAN),
        rows,
        digest,
    })
}

/// The recomputed headline: batched/loop delivered-rate ratio at the
/// largest flow count carrying both modes.
fn headline_speedup(rows: &[WireBenchRow]) -> Option<f64> {
    let max_flows = rows.iter().map(|r| r.flows).max()?;
    let rate_of = |mode: &str| {
        rows.iter().find(|r| r.flows == max_flows && r.mode == mode).map(|r| r.datagrams_per_sec)
    };
    let (looped, batched) = (rate_of("loop")?, rate_of("batched")?);
    if looped > 0.0 {
        Some(batched / looped)
    } else {
        None
    }
}

/// Where `BENCH_wire.json` is written: in `dir` when given, otherwise at
/// the workspace root ([`crate::bench_dir_in`]).
pub fn output_path(dir: Option<&Path>) -> PathBuf {
    crate::bench_dir_in(dir).join("BENCH_wire.json")
}

/// Validates a `BENCH_wire.json` document: schema tag, at least one row,
/// a digest that matches the rows as serialized (hand-edited rows never
/// validate), and per row: a known mode, sane finite columns,
/// `flows_sustained ≤ flows`, zero leaked flow-table entries, and flows
/// ascending with `loop` preceding `batched` inside each count. The
/// recorded `batched_speedup` must equal the ratio recomputed from the
/// largest count's pair of rows.
///
/// Returns the parsed report for further inspection.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found.
pub fn validate_json(text: &str) -> Result<WireBenchReport, String> {
    let report: WireBenchReport =
        serde_json::from_str(text).map_err(|e| format!("not a wire-bench report: {e}"))?;
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
    if report.digest != rows_digest(&report.rows) {
        return Err("digest does not match the rows (report edited?)".into());
    }
    let mut prev: Option<&WireBenchRow> = None;
    for row in &report.rows {
        let tag = format!("n={} {}", row.flows, row.mode);
        if row.flows == 0 {
            return Err("row with zero flows".into());
        }
        if row.mode != "loop" && row.mode != "batched" {
            return Err(format!("{tag}: unknown mode `{}`", row.mode));
        }
        if row.flows_sustained > row.flows {
            return Err(format!(
                "{tag}: sustained {} flows out of {}",
                row.flows_sustained, row.flows
            ));
        }
        if !row.datagrams_per_sec.is_finite() || row.datagrams_per_sec <= 0.0 {
            return Err(format!("{tag}: no measured delivery rate"));
        }
        if !row.flows_per_core.is_finite() || row.flows_per_core < 0.0 {
            return Err(format!("{tag}: bad flows_per_core"));
        }
        for (name, v) in [("p50", row.p50_pacing_jitter_us), ("p99", row.p99_pacing_jitter_us)] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{tag}: bad {name} pacing jitter"));
            }
        }
        if row.leaked_flows != 0 {
            return Err(format!("{tag}: {} flow-table entries leaked", row.leaked_flows));
        }
        if !row.wall_s.is_finite() || row.wall_s <= 0.0 {
            return Err(format!("{tag}: missing wall-clock measurement"));
        }
        match prev {
            Some(p) if p.flows == row.flows && !(p.mode == "loop" && row.mode == "batched") => {
                return Err(format!("{tag}: modes out of order within the count"));
            }
            Some(p) if row.flows < p.flows => {
                return Err(format!("{tag}: flows not ascending after n={}", p.flows));
            }
            _ => {}
        }
        prev = Some(row);
    }
    let Some(expected) = headline_speedup(&report.rows) else {
        return Err("largest flow count lacks a loop/batched pair".into());
    };
    if !report.batched_speedup.is_finite()
        || (report.batched_speedup - expected).abs() > 1e-9 * expected.abs().max(1.0)
    {
        return Err(format!(
            "batched_speedup {} does not match the rows (expected {expected})",
            report.batched_speedup
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> WireBenchReport {
        // A hand-built (but digest-consistent) report: running the real
        // socket pair in unit tests is the CI smoke's job, not this one's.
        let mk = |flows: u32, mode: &str, rate: f64| WireBenchRow {
            flows,
            mode: mode.to_string(),
            flows_sustained: flows,
            flows_per_core: f64::from(flows),
            datagrams_per_sec: rate,
            data_received: (rate * 3.0) as u64,
            p50_pacing_jitter_us: 120.0,
            p99_pacing_jitter_us: 900.0,
            send_drops: 4,
            decode_errors: 0,
            leaked_flows: 0,
            wall_s: 5.2,
        };
        let rows = vec![
            mk(8, "loop", 1000.0),
            mk(8, "batched", 3500.0),
            mk(16, "loop", 900.0),
            mk(16, "batched", 3600.0),
        ];
        let digest = rows_digest(&rows);
        WireBenchReport {
            schema: SCHEMA.to_string(),
            host_parallelism: 1,
            duration_s: 5.0,
            peak_rss_bytes: 0,
            batched_speedup: 4.0,
            rows,
            digest,
        }
    }

    #[test]
    fn consistent_report_validates_and_roundtrips() {
        let report = tiny_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed = validate_json(&json).unwrap();
        assert_eq!(parsed.rows.len(), 4);
        assert_eq!(parsed.batched_speedup, 4.0);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_json("not json").is_err());
        assert!(validate_json("{}").is_err());
        let mut wrong_schema = tiny_report();
        wrong_schema.schema = "pels-bench-wire/0".into();
        let json = serde_json::to_string(&wrong_schema).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("schema"));

        let mut empty = tiny_report();
        empty.rows.clear();
        empty.digest = rows_digest(&empty.rows);
        let json = serde_json::to_string(&empty).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("no rows"));
    }

    #[test]
    fn validation_rejects_edited_rows() {
        let mut report = tiny_report();
        report.rows[1].datagrams_per_sec = 9999.0;
        let json = serde_json::to_string(&report).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("digest"));
    }

    #[test]
    fn validation_rejects_inconsistent_speedup() {
        let mut report = tiny_report();
        report.batched_speedup = 10.0;
        let json = serde_json::to_string(&report).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("batched_speedup"));
    }

    #[test]
    fn validation_rejects_leaks_and_bad_ordering() {
        let mut leaky = tiny_report();
        leaky.rows[3].leaked_flows = 2;
        leaky.digest = rows_digest(&leaky.rows);
        let json = serde_json::to_string(&leaky).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("leaked"));

        let mut reordered = tiny_report();
        reordered.rows.swap(0, 1);
        reordered.digest = rows_digest(&reordered.rows);
        let json = serde_json::to_string(&reordered).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("out of order"));

        let mut descending = tiny_report();
        descending.rows.swap(0, 2);
        descending.rows.swap(1, 3);
        descending.digest = rows_digest(&descending.rows);
        let json = serde_json::to_string(&descending).unwrap();
        assert!(validate_json(&json).unwrap_err().contains("ascending"));
    }

    #[test]
    fn a_real_tiny_sweep_produces_a_valid_report() {
        // The smallest honest row pair: 4 flows for 1.2 s each mode.
        let cfg = WireBenchConfig {
            counts: vec![4],
            duration_s: 1.2,
            warmup_s: 0.4,
            ..Default::default()
        };
        let report = run_wire(&cfg).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed = validate_json(&json).unwrap();
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.rows[0].mode, "loop");
        assert_eq!(parsed.rows[1].mode, "batched");
        for row in &parsed.rows {
            assert_eq!(row.leaked_flows, 0, "BYEs must empty the table");
            assert!(row.data_received > 0, "no data crossed the loopback pair");
        }
    }
}
