//! # pels-cli — command-line driver for PELS simulations
//!
//! The `pels` binary exposes the workspace to non-Rust users:
//!
//! ```text
//! pels run   [--flows N] [--duration SECS] [--mode pels|besteffort|fifo]
//!            [--seed S] [--workers N] [--config FILE.json]
//!            [--topo-spec FILE.json | --topology fattree:k=4,...]
//!            [--telemetry FILE.jsonl] [--json]
//! pels sweep --flows-list 1,2,4,8 [--duration SECS] [--workers N]
//!            [--topology proportional|fixed|wideband|SHORTHAND]
//!            [--topo-spec FILE.json] [--json]
//! pels bench [--counts 1,8,64] [--workers 1,8]
//!            [--topology chained|shared|fattree|random]
//!            [--duration SECS] [--short] [--check FILE]
//! pels model --p LOSS --h PACKETS        # Section 3 closed forms
//! pels gamma --p LOSS [--p-thr T] [--sigma S] [--steps K]
//! pels chaos [--seed S] [--duration SECS] [--wire] [--short]
//!            [--telemetry FILE.jsonl] [--json]
//! pels live  [--duration SECS] [--bottleneck-mbps M] [--share F] [--mem]
//!            [--faults FILE.json] [--telemetry FILE.jsonl] [--json]
//! pels serve [--listen ADDR] [--duration SECS] [--capacity-mbps M]
//!            [--max-flows N] [--packet-bytes B] [--batch-size N] [--no-batch]
//!            [--telemetry FILE.jsonl] [--telemetry-per-flow] [--json]
//! pels loadgen [--server ADDR] [--flows N] [--duration SECS] [--ramp SECS]
//!            [--warmup SECS] [--ack-every K] [--batch-size N] [--no-batch]
//!            [--json]
//! pels bench --wire [--counts 1024,2048,4096] [--duration SECS] [--short]
//!            [--check FILE]               # writes BENCH_wire.json
//! pels metrics FILE.jsonl                 # summarize a telemetry stream
//! pels trace --frames N [--cv CV] [--seed S]   # synthetic trace as CSV
//! pels config-template                    # print a ScenarioConfig JSON
//! ```
//!
//! `run`, `chaos`, and `live` all accept `--telemetry FILE.jsonl`, which
//! streams cumulative [`pels_telemetry`] snapshots to the file as JSON
//! lines; `pels metrics` renders the last snapshot of such a file.
//!
//! This module holds the argument parsing and command logic so it can be
//! unit-tested; `main.rs` is a thin shim.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pels_core::router::QueueMode;
use pels_core::scenario::{pels_flows, to_best_effort, ScenarioConfig};
use pels_core::source::SourceMode;
use pels_netsim::time::SimTime;
use std::collections::HashMap;
use std::path::PathBuf;

/// A parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run a dumbbell scenario and report.
    Run {
        /// Parsed scenario configuration.
        config: Box<ScenarioConfig>,
        /// Simulated seconds.
        duration_s: f64,
        /// Emit the report as JSON instead of text.
        json: bool,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
        /// Worker threads for the parallel engine (results are identical
        /// at every value; this only sizes the thread pool).
        workers: usize,
    },
    /// Run a generated multi-bottleneck topology ([`pels_topo`]) on the
    /// sharded engine and report per-bottleneck max-min validation.
    RunTopo {
        /// Parsed topology spec (from `--topo-spec FILE.json` or a
        /// `--topology family:key=value,...` shorthand).
        spec: Box<pels_topo::spec::TopoSpec>,
        /// Simulated seconds.
        duration_s: f64,
        /// Emit the report as JSON instead of text.
        json: bool,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
        /// Worker threads for the sharded engine (results are identical
        /// at every value; this only sizes the thread pool).
        workers: usize,
    },
    /// Sweep flow counts over one generated topology family.
    SweepTopo {
        /// Flow counts to run.
        counts: Vec<usize>,
        /// The base spec; each count overrides `flows`.
        spec: Box<pels_topo::spec::TopoSpec>,
        /// Simulated seconds per run.
        duration_s: f64,
        /// Emit JSON reports.
        json: bool,
        /// Worker threads for the sharded engine.
        workers: usize,
    },
    /// Evaluate the Section 3 closed forms.
    Model {
        /// Bernoulli loss probability.
        p: f64,
        /// Frame size in packets.
        h: u32,
    },
    /// Iterate the γ controller.
    Gamma {
        /// Stationary loss.
        p: f64,
        /// Target red loss.
        p_thr: f64,
        /// Controller gain.
        sigma: f64,
        /// Steps to iterate.
        steps: usize,
    },
    /// Sweep flow counts in parallel and summarize.
    Sweep {
        /// Flow counts to run.
        counts: Vec<usize>,
        /// Simulated seconds per run.
        duration_s: f64,
        /// Topology family built for each flow count.
        topology: SweepTopology,
        /// Emit JSON reports.
        json: bool,
        /// OS threads running scenarios concurrently.
        workers: usize,
    },
    /// Run the many-flow scaling benchmark and write `BENCH_scale.json`.
    Bench {
        /// Flow counts, one row each per worker count.
        counts: Vec<usize>,
        /// Worker-thread counts to sweep.
        workers: Vec<usize>,
        /// Topology family (`chained` decomposes into one shard per flow).
        topology: pels_bench::scalebench::ScaleTopology,
        /// Simulated seconds per row.
        duration_s: f64,
        /// Validate an existing report instead of running one.
        check: Option<String>,
    },
    /// Run the fault-injection matrix and report invariant verdicts.
    Chaos {
        /// Simulator seed.
        seed: u64,
        /// Simulated seconds per fault case.
        duration_s: f64,
        /// Run the wire recovery matrix (fault-injecting transports around
        /// the real wire agents) instead of the simulator matrix.
        wire: bool,
        /// Use the CI-sized wire preset (10 s cases; implies `--wire`).
        short: bool,
        /// Emit the report as JSON instead of text.
        json: bool,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
    },
    /// Stream one live PELS flow over a real transport and report.
    Live {
        /// Streaming seconds (wall time on the UDP backend).
        duration_s: f64,
        /// Full bottleneck capacity in Mb/s.
        bottleneck_mbps: f64,
        /// Fraction of the bottleneck reserved for PELS.
        share: f64,
        /// Use the deterministic in-memory transport instead of UDP.
        mem: bool,
        /// Path to a JSON fault schedule (`pels_wire::faults::LiveFaults`).
        faults: Option<String>,
        /// Emit the report as JSON instead of text.
        json: bool,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
    },
    /// Run the multi-flow wire server (`pels serve`) over loopback UDP.
    Serve {
        /// Socket to bind (port 0 picks an ephemeral port, announced on
        /// stderr).
        listen: std::net::SocketAddr,
        /// Wall-clock seconds to serve before reporting.
        duration_s: f64,
        /// Shared router capacity across all flows, in Mb/s.
        capacity_mbps: f64,
        /// Flow-table registration cap; HELLOs beyond it are refused.
        max_flows: usize,
        /// Data packet size in bytes.
        packet_bytes: u32,
        /// Datagrams per batched I/O call.
        batch_size: usize,
        /// Use the scalar one-syscall-per-datagram transport instead of
        /// `recvmmsg`/`sendmmsg`.
        no_batch: bool,
        /// Emit per-flow MKC rate series (high cardinality; aggregate
        /// metrics only by default).
        telemetry_per_flow: bool,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
        /// Emit the report as JSON instead of text.
        json: bool,
    },
    /// Ramp concurrent flows against a live `pels serve`.
    Loadgen {
        /// The serve socket to register flows at.
        server: std::net::SocketAddr,
        /// Concurrent flows to ramp up.
        flows: u32,
        /// Wall-clock seconds to run before tearing down with BYEs.
        duration_s: f64,
        /// Seconds the initial HELLOs are staggered over.
        ramp_s: f64,
        /// Seconds excluded from the steady delivered-rate window.
        warmup_s: f64,
        /// ACK every k-th data packet per flow.
        ack_every: u32,
        /// Datagrams per batched I/O call.
        batch_size: usize,
        /// Use the scalar transport instead of `recvmmsg`/`sendmmsg`.
        no_batch: bool,
        /// Emit the report as JSON instead of text.
        json: bool,
    },
    /// Run the wire saturation benchmark and write `BENCH_wire.json`.
    BenchWire {
        /// Flow counts, one `loop` + one `batched` row each.
        counts: Vec<u32>,
        /// Loadgen wall-clock seconds per row.
        duration_s: f64,
        /// Validate an existing report instead of running one.
        check: Option<String>,
    },
    /// Summarize a telemetry snapshot file written by `--telemetry`.
    Metrics {
        /// Path to the JSON-lines snapshot file.
        path: String,
    },
    /// Generate a synthetic frame-size trace as CSV on stdout.
    Trace {
        /// Number of frames.
        frames: usize,
        /// Coefficient of variation of enhancement sizes.
        cv: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Print a JSON config template.
    ConfigTemplate,
    /// Print version plus embedded build provenance (git commit, build
    /// timestamp) — lets scripts prove a `target/release` binary is not
    /// stale before recording results with it.
    Version,
    /// Print usage.
    Help,
}

/// The version line: crate version, the git commit the binary was built
/// from, and the build timestamp (both embedded by `build.rs`).
pub fn version_string() -> String {
    format!(
        "pels {} (commit {}, built {})",
        env!("CARGO_PKG_VERSION"),
        env!("PELS_GIT_COMMIT"),
        env!("PELS_BUILD_UNIX_TIME"),
    )
}

/// Topology family used by `pels sweep` for each flow count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepTopology {
    /// Bottleneck capacity grows with the flow count (800 kb/s per flow),
    /// so Lemma 6 predicts the same per-flow rate at every N. The default:
    /// scaling artifacts show up as deviations, not as capacity math.
    Proportional,
    /// The default fixed dumbbell regardless of flow count — overloaded
    /// rows exercise the degradation policy (DESIGN.md §11).
    Fixed,
    /// The wideband topology scaled to a ~10% FGS-layer operating point,
    /// as used by the scaling benchmark.
    Wideband,
}

impl std::str::FromStr for SweepTopology {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "proportional" => Ok(SweepTopology::Proportional),
            "fixed" => Ok(SweepTopology::Fixed),
            "wideband" => Ok(SweepTopology::Wideband),
            other => Err(format!("unknown topology `{other}` (proportional|fixed|wideband)")),
        }
    }
}

/// Errors produced while parsing arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl std::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

fn flag_map(args: &[String]) -> Result<HashMap<String, String>, ParseArgsError> {
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(ParseArgsError(format!("unexpected argument `{a}`")));
        };
        // Boolean flags take no value.
        if matches!(name, "json" | "mem" | "short" | "wire" | "no-batch" | "telemetry-per-flow") {
            map.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(ParseArgsError(format!("flag --{name} needs a value")));
        };
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

fn get_parsed<T: std::str::FromStr>(
    map: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, ParseArgsError> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|_| ParseArgsError(format!("invalid value for --{key}: `{v}`")))
        }
    }
}

/// Default worker-thread count: the machine's available parallelism.
fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Loads a [`pels_topo::spec::TopoSpec`] from `--topo-spec FILE.json` or a
/// `--topology family:key=value,...` shorthand, applying a `--seed`
/// override when given.
fn parse_topo_spec(
    map: &HashMap<String, String>,
) -> Result<pels_topo::spec::TopoSpec, ParseArgsError> {
    use pels_topo::spec::TopoSpec;
    let mut spec = match (map.get("topo-spec"), map.get("topology")) {
        (Some(_), Some(_)) => {
            return Err(ParseArgsError("--topo-spec and --topology are mutually exclusive".into()))
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ParseArgsError(format!("cannot read {path}: {e}")))?;
            TopoSpec::from_json(&text)
                .map_err(|e| ParseArgsError(format!("bad topo spec {path}: {e}")))?
        }
        (None, Some(s)) => TopoSpec::from_shorthand(s)
            .map_err(|e| ParseArgsError(format!("bad --topology `{s}`: {e}")))?,
        (None, None) => unreachable!("caller checked for one of the flags"),
    };
    if let Some(seed) = map.get("seed") {
        let parsed = seed
            .parse()
            .map_err(|_| ParseArgsError(format!("invalid value for --seed: `{seed}`")))?;
        spec.seed = Some(parsed);
    }
    Ok(spec)
}

/// Parses `run --topo-spec`/`run --topology` into [`Command::RunTopo`].
fn parse_run_topo(map: &HashMap<String, String>) -> Result<Command, ParseArgsError> {
    for bad in ["config", "mode", "flows"] {
        if map.contains_key(bad) {
            return Err(ParseArgsError(format!(
                "--{bad} does not apply to generated topologies (encode flows in the spec)"
            )));
        }
    }
    let spec = parse_topo_spec(map)?;
    let duration_s: f64 = get_parsed(map, "duration", 30.0)?;
    if !duration_s.is_finite() || duration_s <= 0.0 {
        return Err(ParseArgsError("--duration must be positive".into()));
    }
    let workers: usize = get_parsed(map, "workers", default_workers())?;
    if workers == 0 {
        return Err(ParseArgsError("--workers must be at least 1".into()));
    }
    Ok(Command::RunTopo {
        spec: Box::new(spec),
        duration_s,
        json: map.contains_key("json"),
        telemetry: map.get("telemetry").cloned(),
        workers,
    })
}

/// Parses `bench --wire` into [`Command::BenchWire`].
fn parse_bench_wire(map: &HashMap<String, String>) -> Result<Command, ParseArgsError> {
    let (mut counts, mut default_duration) = (pels_bench::wirebench::DEFAULT_COUNTS.to_vec(), 5.0);
    if map.contains_key("short") {
        // CI smoke preset; --counts / --duration still override it.
        counts = vec![64, 128];
        default_duration = 2.0;
    }
    if let Some(list) = map.get("counts") {
        let parsed: Result<Vec<u32>, _> =
            list.split(',').map(|t| t.trim().parse::<u32>()).collect();
        counts = parsed.map_err(|_| ParseArgsError(format!("bad --counts `{list}`")))?;
    }
    if counts.is_empty() || counts.contains(&0) {
        return Err(ParseArgsError("--counts needs positive flow counts".into()));
    }
    let duration_s: f64 = get_parsed(map, "duration", default_duration)?;
    if !duration_s.is_finite() || duration_s <= 0.0 {
        return Err(ParseArgsError("--duration must be positive".into()));
    }
    Ok(Command::BenchWire { counts, duration_s, check: map.get("check").cloned() })
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a [`ParseArgsError`] describing the offending flag or value.
pub fn parse_args(args: &[String]) -> Result<Command, ParseArgsError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "run" => {
            let map = flag_map(rest)?;
            if map.contains_key("topo-spec") || map.contains_key("topology") {
                return parse_run_topo(&map);
            }
            let mut config = if let Some(path) = map.get("config") {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| ParseArgsError(format!("cannot read {path}: {e}")))?;
                serde_json::from_str::<ScenarioConfig>(&text)
                    .map_err(|e| ParseArgsError(format!("bad config {path}: {e}")))?
            } else {
                let n: usize = get_parsed(&map, "flows", 2)?;
                if n == 0 {
                    return Err(ParseArgsError("--flows must be at least 1".into()));
                }
                ScenarioConfig { flows: pels_flows(&vec![0.0; n]), ..Default::default() }
            };
            config.seed = get_parsed(&map, "seed", config.seed)?;
            match map.get("mode").map(String::as_str) {
                None | Some("pels") => {}
                Some("besteffort") => config = to_best_effort(config),
                Some("fifo") => {
                    config.aqm.mode = QueueMode::Fifo;
                    for f in &mut config.flows {
                        f.mode = SourceMode::BestEffort;
                    }
                }
                Some(other) => {
                    return Err(ParseArgsError(format!(
                        "unknown --mode `{other}` (pels|besteffort|fifo)"
                    )))
                }
            }
            let duration_s: f64 = get_parsed(&map, "duration", 30.0)?;
            if !duration_s.is_finite() || duration_s <= 0.0 {
                return Err(ParseArgsError("--duration must be positive".into()));
            }
            let workers: usize = get_parsed(&map, "workers", default_workers())?;
            if workers == 0 {
                return Err(ParseArgsError("--workers must be at least 1".into()));
            }
            Ok(Command::Run {
                config: Box::new(config),
                duration_s,
                json: map.contains_key("json"),
                telemetry: map.get("telemetry").cloned(),
                workers,
            })
        }
        "model" => {
            let map = flag_map(rest)?;
            let p: f64 = get_parsed(&map, "p", 0.1)?;
            let h: u32 = get_parsed(&map, "h", 100)?;
            if !(0.0 < p && p < 1.0) || h == 0 {
                return Err(ParseArgsError("need 0 < p < 1 and h >= 1".into()));
            }
            Ok(Command::Model { p, h })
        }
        "gamma" => {
            let map = flag_map(rest)?;
            Ok(Command::Gamma {
                p: get_parsed(&map, "p", 0.1)?,
                p_thr: get_parsed(&map, "p-thr", 0.75)?,
                sigma: get_parsed(&map, "sigma", 0.5)?,
                steps: get_parsed(&map, "steps", 30)?,
            })
        }
        "sweep" => {
            let map = flag_map(rest)?;
            let list = map.get("flows-list").cloned().unwrap_or_else(|| "1,2,4,8".to_string());
            let counts: Result<Vec<usize>, _> =
                list.split(',').map(|t| t.trim().parse::<usize>()).collect();
            let counts =
                counts.map_err(|_| ParseArgsError(format!("bad --flows-list `{list}`")))?;
            if counts.is_empty() || counts.contains(&0) {
                return Err(ParseArgsError("--flows-list needs positive counts".into()));
            }
            let duration_s: f64 = get_parsed(&map, "duration", 20.0)?;
            if !duration_s.is_finite() || duration_s <= 0.0 {
                return Err(ParseArgsError("--duration must be positive".into()));
            }
            let workers: usize = get_parsed(&map, "workers", default_workers())?;
            if workers == 0 {
                return Err(ParseArgsError("--workers must be at least 1".into()));
            }
            // A generated-topology sweep: `--topo-spec FILE.json`, or a
            // `--topology` value in shorthand form (`family:key=value`).
            let shorthand =
                map.get("topology").is_some_and(|v| pels_topo::spec::TopoSpec::is_shorthand(v));
            if map.contains_key("topo-spec") || shorthand {
                let spec = parse_topo_spec(&map)?;
                return Ok(Command::SweepTopo {
                    counts,
                    spec: Box::new(spec),
                    duration_s,
                    json: map.contains_key("json"),
                    workers,
                });
            }
            let topology = match map.get("topology") {
                None => SweepTopology::Proportional,
                Some(v) => v.parse().map_err(ParseArgsError)?,
            };
            Ok(Command::Sweep {
                counts,
                duration_s,
                topology,
                json: map.contains_key("json"),
                workers,
            })
        }
        "bench" => {
            let map = flag_map(rest)?;
            if map.contains_key("wire") {
                return parse_bench_wire(&map);
            }
            let (mut counts, mut default_duration) =
                (pels_bench::scalebench::DEFAULT_COUNTS.to_vec(), 10.0);
            if map.contains_key("short") {
                // CI smoke preset; --counts / --duration still override it.
                counts = vec![1, 8, 64];
                default_duration = 2.0;
            }
            if let Some(list) = map.get("counts") {
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|t| t.trim().parse::<usize>()).collect();
                counts = parsed.map_err(|_| ParseArgsError(format!("bad --counts `{list}`")))?;
            }
            if counts.is_empty() || counts.contains(&0) {
                return Err(ParseArgsError("--counts needs positive flow counts".into()));
            }
            let duration_s: f64 = get_parsed(&map, "duration", default_duration)?;
            if !duration_s.is_finite() || duration_s <= 0.0 {
                return Err(ParseArgsError("--duration must be positive".into()));
            }
            let workers = match map.get("workers") {
                Some(list) => {
                    let parsed: Result<Vec<usize>, _> =
                        list.split(',').map(|t| t.trim().parse::<usize>()).collect();
                    let w =
                        parsed.map_err(|_| ParseArgsError(format!("bad --workers `{list}`")))?;
                    if w.is_empty() || w.contains(&0) {
                        return Err(ParseArgsError("--workers needs positive counts".into()));
                    }
                    w
                }
                None => {
                    // Default to a serial-vs-parallel comparison when the
                    // machine has more than one core.
                    let p = default_workers();
                    if p > 1 {
                        vec![1, p]
                    } else {
                        vec![1]
                    }
                }
            };
            let topology = match map.get("topology") {
                None => pels_bench::scalebench::ScaleTopology::default(),
                Some(v) => v.parse().map_err(ParseArgsError)?,
            };
            Ok(Command::Bench {
                counts,
                workers,
                topology,
                duration_s,
                check: map.get("check").cloned(),
            })
        }
        "chaos" => {
            let map = flag_map(rest)?;
            let seed: u64 = get_parsed(&map, "seed", 1)?;
            let short = map.contains_key("short");
            // `--short` names the wire CI preset, so it implies `--wire`.
            let wire = map.contains_key("wire") || short;
            // The wire matrix needs its own default: 12 s cases (4.5 s
            // transient + 1.5 s fault + 6 s observed recovery).
            let duration_s: f64 = get_parsed(&map, "duration", if wire { 12.0 } else { 30.0 })?;
            if !duration_s.is_finite() || duration_s < 5.0 {
                return Err(ParseArgsError(
                    "--duration must be at least 5 seconds to measure recovery".into(),
                ));
            }
            Ok(Command::Chaos {
                seed,
                duration_s,
                wire,
                short,
                json: map.contains_key("json"),
                telemetry: map.get("telemetry").cloned(),
            })
        }
        "serve" => {
            let map = flag_map(rest)?;
            let listen =
                get_parsed(&map, "listen", std::net::SocketAddr::from(([127, 0, 0, 1], 9500)))?;
            let duration_s: f64 = get_parsed(&map, "duration", 10.0)?;
            if !duration_s.is_finite() || duration_s <= 0.0 {
                return Err(ParseArgsError("--duration must be positive".into()));
            }
            let capacity_mbps: f64 = get_parsed(&map, "capacity-mbps", 100.0)?;
            if !capacity_mbps.is_finite() || capacity_mbps <= 0.0 {
                return Err(ParseArgsError("--capacity-mbps must be positive".into()));
            }
            let max_flows: usize = get_parsed(&map, "max-flows", 4096)?;
            let packet_bytes: u32 = get_parsed(&map, "packet-bytes", 400)?;
            let batch_size: usize = get_parsed(&map, "batch-size", 64)?;
            if max_flows == 0 || packet_bytes == 0 || batch_size == 0 {
                return Err(ParseArgsError(
                    "--max-flows, --packet-bytes, and --batch-size must be at least 1".into(),
                ));
            }
            Ok(Command::Serve {
                listen,
                duration_s,
                capacity_mbps,
                max_flows,
                packet_bytes,
                batch_size,
                no_batch: map.contains_key("no-batch"),
                telemetry_per_flow: map.contains_key("telemetry-per-flow"),
                telemetry: map.get("telemetry").cloned(),
                json: map.contains_key("json"),
            })
        }
        "loadgen" => {
            let map = flag_map(rest)?;
            let server =
                get_parsed(&map, "server", std::net::SocketAddr::from(([127, 0, 0, 1], 9500)))?;
            let flows: u32 = get_parsed(&map, "flows", 256)?;
            if flows == 0 {
                return Err(ParseArgsError("--flows must be at least 1".into()));
            }
            let duration_s: f64 = get_parsed(&map, "duration", 5.0)?;
            if !duration_s.is_finite() || duration_s <= 0.0 {
                return Err(ParseArgsError("--duration must be positive".into()));
            }
            let ramp_s: f64 = get_parsed(&map, "ramp", (duration_s / 4.0).min(1.0))?;
            let warmup_s: f64 = get_parsed(&map, "warmup", (duration_s / 2.0).min(2.0))?;
            if !ramp_s.is_finite() || ramp_s < 0.0 || !warmup_s.is_finite() || warmup_s < 0.0 {
                return Err(ParseArgsError("--ramp and --warmup must be non-negative".into()));
            }
            if warmup_s >= duration_s {
                return Err(ParseArgsError("--warmup must be shorter than --duration".into()));
            }
            let ack_every: u32 = get_parsed(&map, "ack-every", 1)?;
            let batch_size: usize = get_parsed(&map, "batch-size", 64)?;
            if ack_every == 0 || batch_size == 0 {
                return Err(ParseArgsError(
                    "--ack-every and --batch-size must be at least 1".into(),
                ));
            }
            Ok(Command::Loadgen {
                server,
                flows,
                duration_s,
                ramp_s,
                warmup_s,
                ack_every,
                batch_size,
                no_batch: map.contains_key("no-batch"),
                json: map.contains_key("json"),
            })
        }
        "live" => {
            let map = flag_map(rest)?;
            let duration_s: f64 = get_parsed(&map, "duration", 6.0)?;
            let bottleneck_mbps: f64 = get_parsed(&map, "bottleneck-mbps", 4.0)?;
            let share: f64 = get_parsed(&map, "share", 0.5)?;
            if !duration_s.is_finite() || duration_s <= 0.0 {
                return Err(ParseArgsError("--duration must be positive".into()));
            }
            if !bottleneck_mbps.is_finite() || bottleneck_mbps <= 0.0 {
                return Err(ParseArgsError("--bottleneck-mbps must be positive".into()));
            }
            if !(share > 0.0 && share <= 1.0) {
                return Err(ParseArgsError("--share must be in (0, 1]".into()));
            }
            Ok(Command::Live {
                duration_s,
                bottleneck_mbps,
                share,
                mem: map.contains_key("mem"),
                faults: map.get("faults").cloned(),
                json: map.contains_key("json"),
                telemetry: map.get("telemetry").cloned(),
            })
        }
        "metrics" => {
            let Some(path) = rest.first() else {
                return Err(ParseArgsError("metrics needs a snapshot file path".into()));
            };
            if let Some(extra) = rest.get(1) {
                return Err(ParseArgsError(format!("unexpected argument `{extra}`")));
            }
            Ok(Command::Metrics { path: path.clone() })
        }
        "trace" => {
            let map = flag_map(rest)?;
            let frames: usize = get_parsed(&map, "frames", 300)?;
            let cv: f64 = get_parsed(&map, "cv", 0.15)?;
            let seed: u64 = get_parsed(&map, "seed", 1)?;
            if frames == 0 || !(0.0..1.0).contains(&cv) {
                return Err(ParseArgsError("need frames >= 1 and cv in [0,1)".into()));
            }
            Ok(Command::Trace { frames, cv, seed })
        }
        "config-template" => Ok(Command::ConfigTemplate),
        "version" | "--version" | "-V" => Ok(Command::Version),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseArgsError(format!("unknown command `{other}`"))),
    }
}

/// Opens a telemetry handle for `--telemetry PATH`: disabled when no path
/// was given, otherwise enabled with a JSON-lines sink on the file.
fn open_telemetry(path: Option<&str>) -> Result<pels_telemetry::Telemetry, String> {
    use pels_telemetry::{JsonLinesSink, Telemetry};
    match path {
        None => Ok(Telemetry::disabled()),
        Some(p) => {
            let sink = JsonLinesSink::create(p)
                .map_err(|e| format!("cannot create telemetry file {p}: {e}"))?;
            let tel = Telemetry::new();
            tel.attach_sink(Box::new(sink));
            Ok(tel)
        }
    }
}

/// Where commands write their files. `main` reads it from the environment
/// once; library callers and tests name their own directories, so no
/// command reads the environment itself.
#[derive(Debug, Clone, Default)]
pub struct OutputDirs {
    /// Directory for per-run CSVs (`live.csv`, `topo_*.csv`); `None` is
    /// the workspace `results/` ([`pels_bench::results_dir_in`]).
    pub results: Option<PathBuf>,
    /// Directory for `BENCH_scale.json` and `BENCH_wire.json`; `None` is
    /// the workspace root ([`pels_bench::bench_dir_in`]).
    pub bench: Option<PathBuf>,
}

impl OutputDirs {
    /// `$PELS_RESULTS_DIR` and `$PELS_BENCH_DIR`, each `None` when unset.
    pub fn from_env() -> Self {
        OutputDirs {
            results: std::env::var_os("PELS_RESULTS_DIR").map(PathBuf::from),
            bench: std::env::var_os("PELS_BENCH_DIR").map(PathBuf::from),
        }
    }

    fn write_result(&self, name: &str, content: &str) {
        pels_bench::write_result_in(
            &pels_bench::results_dir_in(self.results.as_deref()),
            name,
            content,
        );
    }
}

/// Executes a parsed command, writing human-readable output to `out` and
/// any files under `dirs`.
///
/// # Errors
///
/// Returns an error string suitable for printing to stderr.
pub fn execute(
    cmd: Command,
    dirs: &OutputDirs,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    let w =
        |out: &mut dyn std::io::Write, s: String| writeln!(out, "{s}").map_err(|e| e.to_string());
    match cmd {
        Command::Version => w(out, version_string()),
        Command::Help => w(out, usage()),
        Command::Trace { frames, cv, seed } => {
            let cfg =
                pels_fgs::trace_gen::TraceGenConfig { n_frames: frames, cv, ..Default::default() };
            let trace = pels_fgs::trace_gen::generate(&cfg, seed);
            w(out, trace.to_csv().trim_end().to_string())
        }
        Command::ConfigTemplate => {
            let cfg = ScenarioConfig::default();
            let json = serde_json::to_string_pretty(&cfg).map_err(|e| e.to_string())?;
            w(out, json)
        }
        Command::Model { p, h } => {
            let ey = pels_analysis::useful::expected_useful_fixed(p, h);
            let u = pels_analysis::useful::best_effort_utility(p, h);
            let opt = pels_analysis::useful::optimal_useful(p, h);
            let bound = pels_analysis::useful::pels_utility_lower_bound(p.min(0.74), 0.75);
            w(
                out,
                format!(
                    "p = {p}, H = {h}\n\
                     best-effort useful packets E[Y]  = {ey:.3}\n\
                     best-effort utility (Eq. 3)      = {u:.4}\n\
                     optimal useful packets H(1-p)    = {opt:.1}\n\
                     PELS utility bound (Eq. 6, 0.75) = {bound:.4}"
                ),
            )
        }
        Command::Gamma { p, p_thr, sigma, steps } => {
            let traj =
                pels_analysis::stability::gamma_trajectory(0.5, sigma, p_thr, 1, steps, |_| p);
            for (k, g) in traj.iter().enumerate() {
                w(out, format!("{k:>4}  {g:.6}"))?;
            }
            w(out, format!("fixed point p/p_thr = {:.6}", p / p_thr))
        }
        Command::Sweep { counts, duration_s, topology, json, workers } => {
            use pels_core::scenario::{proportional_config, wideband_scaled_config};
            let configs: Vec<ScenarioConfig> = counts
                .iter()
                .map(|&n| match topology {
                    SweepTopology::Proportional => proportional_config(n),
                    SweepTopology::Wideband => wideband_scaled_config(n, 0.10),
                    SweepTopology::Fixed => ScenarioConfig {
                        flows: pels_flows(&vec![0.0; n]),
                        keep_series: false,
                        ..Default::default()
                    },
                })
                .collect();
            let reports = pels_core::sweep::run_parallel(configs, duration_s, workers);
            if json {
                let j = serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?;
                return w(out, j);
            }
            for (n, r) in counts.iter().zip(&reports) {
                let mean_rate: f64 =
                    r.flows.iter().map(|f| f.final_rate_kbps).sum::<f64>() / *n as f64;
                let utility: f64 = r.flows.iter().map(|f| f.utility).sum::<f64>() / *n as f64;
                let lemma6 = match r.lemma6_kbps {
                    Some(l) => {
                        format!("Lemma 6 {l:.0} kb/s, dev {:+.1}%", 100.0 * (mean_rate - l) / l)
                    }
                    None => "Lemma 6 n/a".to_string(),
                };
                w(
                    out,
                    format!(
                        "{n:>4} flows: mean rate {mean_rate:>7.0} kb/s  utility {utility:.3}  \
                         green drops {:>4}  admitted {:>4}/{n}  ({lemma6})",
                        r.green_drops, r.admitted_flows
                    ),
                )?;
            }
            Ok(())
        }
        Command::Bench { counts, workers, topology, duration_s, check } => {
            use pels_bench::scalebench::{output_path, run_scale, validate_json, ScaleBenchConfig};
            if let Some(path) = check {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let report = validate_json(&text).map_err(|e| format!("{path}: {e}"))?;
                return w(
                    out,
                    format!("{path}: valid {} report, {} rows", report.schema, report.rows.len()),
                );
            }
            w(
                out,
                format!(
                    "scale bench: counts {counts:?}, workers {workers:?}, {topology:?} \
                     topology, {duration_s} simulated s per row"
                ),
            )?;
            let cfg =
                ScaleBenchConfig { counts, workers, topology, duration_s, ..Default::default() };
            let report = run_scale(&cfg);
            let path = output_path(dirs.bench.as_deref());
            let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
            std::fs::write(&path, &json)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            w(out, format!("[written {}]", path.display()))
        }
        Command::Chaos { seed, duration_s, wire, short, json, telemetry } => {
            use pels_netsim::time::SimDuration;
            let tel = open_telemetry(telemetry.as_deref())?;
            if wire {
                use pels_wire::chaos::{run_wire_matrix_instrumented, WireChaosConfig};
                let cfg = if short {
                    WireChaosConfig { seed, ..WireChaosConfig::short() }
                } else {
                    WireChaosConfig {
                        seed,
                        duration: SimDuration::from_secs_f64(duration_s),
                        ..WireChaosConfig::default()
                    }
                };
                cfg.validate().map_err(|e| format!("bad wire chaos schedule: {e}"))?;
                let report = run_wire_matrix_instrumented(&cfg, &tel).map_err(|e| e.to_string())?;
                if json {
                    let j = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                    return w(out, j);
                }
                w(
                    out,
                    format!("wire chaos matrix: seed {seed}, {:.0} s per case", report.duration_s),
                )?;
                for c in &report.cases {
                    w(
                        out,
                        format!(
                            "  {:<18} rate {:>7.1}/{:.1} kb/s  green {:.4}  recovery {:>6}  \
                             faults {:>4}  {}",
                            c.name,
                            c.final_rate_kbps,
                            c.r_star_kbps,
                            c.green_delivery_post_fault,
                            c.recovery_s.map_or("-".to_string(), |s| format!("{s:.2}s")),
                            c.faults.total(),
                            if c.ok { "ok" } else { "FAIL" }
                        ),
                    )?;
                }
                return if report.all_ok {
                    w(out, "all wire invariants held".to_string())
                } else {
                    Err("wire chaos invariants violated".to_string())
                };
            }
            // Fault window scales with the run: onset at 1/3, lasting 1/20 of
            // the run (the 30 s default reproduces the 10–11.5 s window used
            // by the chaos bench binary).
            let cfg = pels_core::chaos::ChaosConfig {
                seed,
                duration: SimDuration::from_secs_f64(duration_s),
                fault_from: SimDuration::from_secs_f64(duration_s / 3.0),
                fault_to: SimDuration::from_secs_f64(duration_s / 3.0 + duration_s / 20.0),
                ..Default::default()
            };
            let report =
                pels_core::chaos::run_matrix_instrumented(&cfg, &tel).map_err(|e| e.to_string())?;
            if json {
                let j = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                return w(out, j);
            }
            w(out, format!("chaos matrix: seed {seed}, {duration_s} s per case"))?;
            for c in &report.cases {
                w(
                    out,
                    format!(
                        "  {:<18} green {:.4}  recovery {:>4}  decays {:>3}  faults {:>3}  {}",
                        c.name,
                        c.green_delivery,
                        c.recovery_epochs.map_or("-".to_string(), |e| e.to_string()),
                        c.stale_decays,
                        c.faults_applied,
                        if c.ok { "ok" } else { "FAIL" }
                    ),
                )?;
            }
            if report.all_ok {
                w(out, "all invariants held".to_string())
            } else {
                Err("chaos invariants violated".to_string())
            }
        }
        Command::Live { duration_s, bottleneck_mbps, share, mem, faults, json, telemetry } => {
            use pels_netsim::time::{Rate, SimDuration};
            use pels_wire::live::{run_live, to_csv, LiveBackend, LiveConfig};
            use pels_wire::LiveFaults;
            let tel = open_telemetry(telemetry.as_deref())?;
            let fault_spec: Option<LiveFaults> = match &faults {
                None => None,
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    let spec: LiveFaults = serde_json::from_str(&text)
                        .map_err(|e| format!("bad fault schedule {path}: {e}"))?;
                    spec.validate().map_err(|e| format!("bad fault schedule {path}: {e}"))?;
                    Some(spec)
                }
            };
            let cfg = LiveConfig {
                duration: SimDuration::from_secs_f64(duration_s),
                bottleneck: Rate::from_mbps(bottleneck_mbps),
                pels_share: share,
                backend: if mem { LiveBackend::Memory } else { LiveBackend::UdpLoopback },
                faults: fault_spec.clone(),
                telemetry: tel,
                ..LiveConfig::default()
            };
            let outcome = run_live(&cfg).map_err(|e| format!("live run failed: {e}"))?;
            dirs.write_result("live.csv", &to_csv(&outcome));
            if json {
                let j = serde_json::to_string_pretty(&outcome.report).map_err(|e| e.to_string())?;
                return w(out, j);
            }
            let backend = if mem { "in-memory" } else { "loopback UDP" };
            let r = &outcome.report;
            let s = &outcome.stats;
            w(
                out,
                format!(
                    "streamed {duration_s} s over {backend}: router p {:+.4}",
                    r.router_final_loss
                ),
            )?;
            for f in &r.flows {
                let green_ratio = if f.sent_by_color[0] > 0 {
                    f.received_by_color[0] as f64 / f.sent_by_color[0] as f64
                } else {
                    0.0
                };
                w(
                    out,
                    format!(
                        "  flow {}: rate {:>7.0} kb/s  gamma {:.3}  utility {:.3}  \
                         frames {}/{}  green delivery {:.4}\n\
                         \x20          delay G/Y/R {:>4.0}/{:>4.0}/{:>6.0} ms",
                        f.flow,
                        f.final_rate_kbps,
                        f.final_gamma,
                        f.utility,
                        f.frames_seen,
                        f.frames_sent,
                        green_ratio,
                        f.mean_delay_s[0] * 1e3,
                        f.mean_delay_s[1] * 1e3,
                        f.mean_delay_s[2] * 1e3
                    ),
                )?;
            }
            w(
                out,
                format!(
                    "  wire: {} nacks, {} retx, {} recovered, {} abandoned, {} decode errors",
                    s.nacks_sent,
                    s.retransmissions,
                    s.recovered_packets,
                    s.abandoned_packets,
                    s.decode_errors
                ),
            )?;
            // Only faulted runs print this line: the default text output
            // must stay byte-identical to the fault-free binary.
            if fault_spec.is_some() {
                let f = &s.faults;
                w(
                    out,
                    format!(
                        "  faults: {} dropped, {} dup, {} reordered, {} delayed, \
                         {} truncated, {} corrupted, {} blackout, {} udp send drops",
                        f.dropped,
                        f.duplicated,
                        f.reordered,
                        f.delayed,
                        f.truncated,
                        f.corrupted,
                        f.blackout_dropped,
                        s.udp_send_drops
                    ),
                )?;
            }
            Ok(())
        }
        Command::Serve {
            listen,
            duration_s,
            capacity_mbps,
            max_flows,
            packet_bytes,
            batch_size,
            no_batch,
            telemetry_per_flow,
            telemetry,
            json,
        } => {
            use pels_netsim::time::{Rate, SimDuration};
            use pels_wire::{run_serve_with, ServeConfig};
            let tel = open_telemetry(telemetry.as_deref())?;
            let mut cfg = ServeConfig::new(listen);
            cfg.duration = SimDuration::from_secs_f64(duration_s);
            cfg.capacity = Rate::from_mbps(capacity_mbps);
            cfg.max_flows = max_flows;
            cfg.packet_bytes = packet_bytes;
            cfg.batch = !no_batch;
            cfg.batch_size = batch_size;
            cfg.telemetry_per_flow = telemetry_per_flow;
            cfg.telemetry = tel;
            // Announce the bound address on stderr (stdout stays report-only,
            // and with `--listen :0` the port is otherwise unknowable).
            let report =
                run_serve_with(cfg, |addr| eprintln!("pels serve: listening on {addr}"), || false)
                    .map_err(|e| format!("serve failed: {e}"))?;
            if json {
                let j = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                return w(out, j);
            }
            let r = &report;
            w(
                out,
                format!(
                    "served {:.1} s on {} I/O: peak {} flows, {} data datagrams ({:.0}/s)",
                    r.duration_secs,
                    if r.batched { "batched" } else { "scalar" },
                    r.peak_flows,
                    r.data_sent,
                    r.datagrams_per_sec
                ),
            )?;
            w(
                out,
                format!(
                    "  hellos {} (refused {})  byes {}  evictions {}  acks {}  \
                     decode errors {}  leaked flows {}",
                    r.hellos,
                    r.hellos_refused,
                    r.byes,
                    r.evictions,
                    r.acks,
                    r.decode_errors,
                    r.leaked_flows
                ),
            )?;
            w(
                out,
                format!(
                    "  tx G/Y/R {}/{}/{}  queue drops G/Y/R {}/{}/{}  send drops {}",
                    r.tx_by_class[0],
                    r.tx_by_class[1],
                    r.tx_by_class[2],
                    r.queue_drops_by_class[0],
                    r.queue_drops_by_class[1],
                    r.queue_drops_by_class[2],
                    r.send_drops
                ),
            )?;
            w(
                out,
                format!(
                    "  pacing jitter p50/p99 {:.0}/{:.0} us over {} timer events",
                    r.pacing_jitter_p50_us, r.pacing_jitter_p99_us, r.timer_events
                ),
            )
        }
        Command::Loadgen {
            server,
            flows,
            duration_s,
            ramp_s,
            warmup_s,
            ack_every,
            batch_size,
            no_batch,
            json,
        } => {
            use pels_netsim::time::SimDuration;
            use pels_wire::{run_loadgen, LoadgenConfig};
            let mut cfg = LoadgenConfig::new(server);
            cfg.flows = flows;
            cfg.duration = SimDuration::from_secs_f64(duration_s);
            cfg.ramp = SimDuration::from_secs_f64(ramp_s);
            cfg.warmup = SimDuration::from_secs_f64(warmup_s);
            cfg.ack_every = ack_every;
            cfg.batch = !no_batch;
            cfg.batch_size = batch_size;
            let report = run_loadgen(cfg).map_err(|e| format!("loadgen failed: {e}"))?;
            if json {
                let j = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                return w(out, j);
            }
            let r = &report;
            w(
                out,
                format!(
                    "loadgen {} flows against {server} for {:.1} s: \
                     {} data datagrams, steady {:.0}/s",
                    r.flows, r.duration_secs, r.data_received, r.steady_datagrams_per_sec
                ),
            )?;
            w(
                out,
                format!(
                    "  sustained {}/{}  hellos {}  acks {}  byes {}  \
                     decode errors {}  send drops {}",
                    r.flows_sustained,
                    r.flows,
                    r.hellos_sent,
                    r.acks_sent,
                    r.byes_sent,
                    r.decode_errors,
                    r.send_drops
                ),
            )
        }
        Command::BenchWire { counts, duration_s, check } => {
            use pels_bench::wirebench::{output_path, run_wire, validate_json, WireBenchConfig};
            if let Some(path) = check {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let report = validate_json(&text).map_err(|e| format!("{path}: {e}"))?;
                return w(
                    out,
                    format!("{path}: valid {} report, {} rows", report.schema, report.rows.len()),
                );
            }
            w(
                out,
                format!("wire bench: counts {counts:?}, {duration_s} s per row, loop vs batched"),
            )?;
            let cfg = WireBenchConfig { counts, duration_s, ..Default::default() };
            let report = run_wire(&cfg)?;
            let path = output_path(dirs.bench.as_deref());
            let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
            std::fs::write(&path, &json)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            w(out, format!("batched speedup at max flows: {:.2}x", report.batched_speedup))?;
            w(out, format!("[written {}]", path.display()))
        }
        Command::Metrics { path } => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let lines = pels_telemetry::parse_snapshot_lines(&text)
                .map_err(|e| format!("bad telemetry in {path}: {e}"))?;
            let Some(last) = lines.last() else {
                return Err(format!("{path} holds no snapshots"));
            };
            // Snapshots are cumulative, so the last line summarizes the run.
            let s = &last.snapshot;
            w(out, format!("{path}: {} snapshot(s), last at t = {:.3} s", lines.len(), last.t))?;
            if !s.counters.is_empty() {
                w(out, "counters:".to_string())?;
                for (k, v) in &s.counters {
                    w(out, format!("  {k:<36} {v}"))?;
                }
            }
            if !s.gauges.is_empty() {
                w(out, "gauges:".to_string())?;
                for (k, g) in &s.gauges {
                    w(out, format!("  {k:<36} {:<12.4} ({} updates)", g.value, g.updates))?;
                }
            }
            if !s.stats.is_empty() {
                w(out, "distributions:".to_string())?;
                for (k, st) in &s.stats {
                    let su = &st.summary;
                    w(
                        out,
                        format!(
                            "  {k:<36} n {:>7}  mean {:.4}  min {:.4}  max {:.4}  p99 {:.4}",
                            su.count(),
                            su.mean(),
                            su.min().unwrap_or(f64::NAN),
                            su.max().unwrap_or(f64::NAN),
                            st.hist.quantile(0.99).unwrap_or(f64::NAN),
                        ),
                    )?;
                }
            }
            if !s.series.is_empty() {
                w(out, "series:".to_string())?;
                for (k, pts) in &s.series {
                    let last_v = pts.last().map_or(f64::NAN, |p| p.1);
                    w(out, format!("  {k:<36} {:>7} samples  last {last_v:.4}", pts.len()))?;
                }
            }
            Ok(())
        }
        Command::RunTopo { spec, duration_s, json, telemetry, workers } => {
            use pels_topo::scenario::{to_csv, TopoScenario};
            let tel = open_telemetry(telemetry.as_deref())?;
            let mut s = TopoScenario::try_build(*spec).map_err(|e| e.to_string())?;
            s.set_workers(workers);
            if tel.is_enabled() {
                s.attach_telemetry(&tel);
                let mut t = 0.0;
                while t < duration_s {
                    t = (t + 1.0).min(duration_s);
                    s.run_until(SimTime::from_secs_f64(t));
                    s.flush_telemetry(&tel);
                }
            } else {
                s.run_until(SimTime::from_secs_f64(duration_s));
            }
            let report = s.report();
            dirs.write_result(&format!("topo_{}.csv", report.family), &to_csv(&report));
            if json {
                let j = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                return w(out, j);
            }
            w(
                out,
                format!(
                    "{} topology (seed {}): {} routers ({} AQM), {} hosts, \
                     {} video flows, {} tcp",
                    report.family,
                    report.seed,
                    report.n_routers,
                    report.n_aqm,
                    report.n_hosts,
                    report.n_flows,
                    report.n_tcp
                ),
            )?;
            w(
                out,
                format!(
                    "partition: {} shards, lookahead {} us, {} cut links",
                    report.n_shards, report.lookahead_us, report.cut_links
                ),
            )?;
            w(
                out,
                format!(
                    "ran {duration_s} s: {} events, mean utility {:.4}, offset a/b {:.0} kb/s",
                    report.events, report.mean_utility, report.offset_kbps
                ),
            )?;
            for b in &report.bottlenecks {
                w(
                    out,
                    format!(
                        "  bottleneck {:>3}->{:<3} cap {:>7.0} kb/s  cbr {:>5.0}  \
                         flows {:>3} (bound {:>3})  predicted {:>6.0}  measured {:>6.0}  \
                         dev {:>5.1}%",
                        b.router,
                        b.next_hop,
                        b.pels_capacity_kbps,
                        b.cbr_load_kbps,
                        b.n_video,
                        b.n_bound,
                        b.predicted_kbps,
                        b.measured_kbps,
                        b.deviation_pct
                    ),
                )?;
            }
            w(
                out,
                format!("max |deviation| across bottlenecks: {:.1}%", report.max_abs_deviation_pct),
            )
        }
        Command::SweepTopo { counts, spec, duration_s, json, workers } => {
            use pels_topo::scenario::TopoScenario;
            let mut reports = Vec::with_capacity(counts.len());
            for &n in &counts {
                let mut s = spec.clone();
                s.flows = Some(n);
                let mut sc = TopoScenario::try_build(*s).map_err(|e| e.to_string())?;
                sc.set_workers(workers);
                sc.run_until(SimTime::from_secs_f64(duration_s));
                reports.push(sc.report());
            }
            if json {
                let j = serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?;
                return w(out, j);
            }
            for (n, r) in counts.iter().zip(&reports) {
                w(
                    out,
                    format!(
                        "{n:>4} flows on {}: {} routers, {} shards, utility {:.3}, \
                         max bottleneck dev {:.1}%",
                        r.family, r.n_routers, r.n_shards, r.mean_utility, r.max_abs_deviation_pct
                    ),
                )?;
            }
            Ok(())
        }
        Command::Run { config, duration_s, json, telemetry, workers } => {
            let tel = open_telemetry(telemetry.as_deref())?;
            // The parallel engine: the partition is fixed by the topology,
            // so --workers only changes wall clock, never the report.
            let mut s = pels_core::parallel::ParallelScenario::build(*config);
            s.set_workers(workers);
            if tel.is_enabled() {
                s.attach_telemetry(&tel);
                // Flush a cumulative snapshot roughly once per simulated
                // second so the stream shows the run's progression, not
                // just its end state.
                let mut t = 0.0;
                while t < duration_s {
                    t = (t + 1.0).min(duration_s);
                    s.run_until(SimTime::from_secs_f64(t));
                    s.flush_telemetry(&tel);
                }
            } else {
                s.run_until(SimTime::from_secs_f64(duration_s));
            }
            let report = s.report();
            if json {
                let j = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                w(out, j)
            } else {
                let u = s.total_utility();
                w(
                    out,
                    format!(
                        "ran {duration_s} s: {} flows, utility {:.4}, router p {:+.4}",
                        report.flows.len(),
                        u.utility(),
                        report.router_final_loss
                    ),
                )?;
                for f in &report.flows {
                    w(
                        out,
                        format!(
                            "  flow {}: rate {:>7.0} kb/s  gamma {:.3}  utility {:.3}  \
                             delay G/Y/R {:>4.0}/{:>4.0}/{:>6.0} ms",
                            f.flow,
                            f.final_rate_kbps,
                            f.final_gamma,
                            f.utility,
                            f.mean_delay_s[0] * 1e3,
                            f.mean_delay_s[1] * 1e3,
                            f.mean_delay_s[2] * 1e3
                        ),
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// The usage text.
pub fn usage() -> String {
    "pels — PELS (ICDCS 2004) reproduction driver\n\
     \n\
     USAGE:\n\
       pels run   [--flows N] [--duration SECS] [--mode pels|besteffort|fifo]\n\
                  [--seed S] [--workers N] [--config FILE.json]\n\
                  [--topo-spec FILE.json | --topology fattree:k=4,flows=16]\n\
                  [--telemetry FILE.jsonl] [--json]\n\
       pels sweep [--flows-list 1,2,4,8] [--duration SECS] [--workers N]\n\
                  [--topology proportional|fixed|wideband|SHORTHAND]\n\
                  [--topo-spec FILE.json] [--json]\n\
       pels bench [--counts 1,8,64,256,512,1024] [--workers 1,8]\n\
                  [--topology chained|shared|fattree|random]\n\
                  [--duration SECS] [--short]\n\
                  [--check FILE]              # writes BENCH_scale.json\n\
       pels model --p LOSS --h PACKETS\n\
       pels gamma --p LOSS [--p-thr T] [--sigma S] [--steps K]\n\
       pels chaos [--seed S] [--duration SECS] [--wire] [--short]\n\
                  [--telemetry FILE.jsonl] [--json]\n\
       pels live  [--duration SECS] [--bottleneck-mbps M] [--share F] [--mem]\n\
                  [--faults FILE.json] [--telemetry FILE.jsonl] [--json]\n\
       pels serve [--listen ADDR] [--duration SECS] [--capacity-mbps M]\n\
                  [--max-flows N] [--packet-bytes B] [--batch-size N]\n\
                  [--no-batch] [--telemetry FILE.jsonl] [--telemetry-per-flow]\n\
                  [--json]                   # multi-flow UDP server\n\
       pels loadgen [--server ADDR] [--flows N] [--duration SECS]\n\
                  [--ramp SECS] [--warmup SECS] [--ack-every K]\n\
                  [--batch-size N] [--no-batch] [--json]\n\
       pels bench --wire [--counts 1024,2048,4096] [--duration SECS] [--short]\n\
                  [--check FILE]              # writes BENCH_wire.json\n\
       pels metrics FILE.jsonl                  # summarize a telemetry stream\n\
       pels trace [--frames N] [--cv CV] [--seed S]\n\
       pels config-template\n\
       pels version                             # embedded commit + build time\n\
       pels help\n\
     \n\
     --workers N defaults to the machine's available parallelism (nproc)\n\
     and is clamped to min(nproc, shards) at run time; for `bench` the\n\
     default sweep is `1,<nproc>` (just `1` on one core).\n\
     Topology shorthands: parkinglot:segments=3,cross=1  fattree:k=4\n\
     waxman:routers=16  — common keys flows, seed, tcp, budget (kb/s)."
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Every output directory set to `dir`.
    fn dirs_in(dir: &std::path::Path) -> OutputDirs {
        OutputDirs { results: Some(dir.to_path_buf()), bench: Some(dir.to_path_buf()) }
    }

    /// Runs `cmd` with its outputs under the system temp dir, so a test
    /// never writes into the workspace.
    fn exec(cmd: Command, out: &mut Vec<u8>) -> Result<(), String> {
        execute(cmd, &dirs_in(&std::env::temp_dir().join("pels_cli_test_outputs")), out)
    }

    #[test]
    fn parses_run_defaults() {
        let cmd = parse_args(&args("run")).unwrap();
        match cmd {
            Command::Run { config, duration_s, json, telemetry, workers } => {
                assert_eq!(config.flows.len(), 2);
                assert_eq!(duration_s, 30.0);
                assert!(!json);
                assert!(telemetry.is_none());
                assert!(workers >= 1);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&args("run --workers 3")).unwrap();
        assert!(matches!(cmd, Command::Run { workers: 3, .. }));
        assert!(parse_args(&args("run --workers 0")).is_err());
    }

    #[test]
    fn parses_run_flags() {
        let cmd =
            parse_args(&args("run --flows 4 --duration 10 --mode besteffort --json --seed 7"))
                .unwrap();
        match cmd {
            Command::Run { config, duration_s, json, .. } => {
                assert_eq!(config.flows.len(), 4);
                assert_eq!(config.seed, 7);
                assert_eq!(duration_s, 10.0);
                assert!(json);
                assert_eq!(config.aqm.mode, QueueMode::BestEffortUniform);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("run --flows 0")).is_err());
        assert!(parse_args(&args("run --duration -3")).is_err());
        assert!(parse_args(&args("run --mode nonsense")).is_err());
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("run --flows")).is_err());
        assert!(parse_args(&args("model --p 1.5")).is_err());
    }

    #[test]
    fn empty_args_show_help() {
        assert!(matches!(parse_args(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn model_command_prints_closed_forms() {
        let cmd = parse_args(&args("model --p 0.1 --h 100")).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // E[Y](0.1, 100) = 8.9998 -> "9.000"; U = 0.09999 -> "0.1000".
        assert!(text.contains("9.000"), "{text}");
        assert!(text.contains("0.1000"), "{text}");
        assert!(text.contains("90.0"), "{text}");
    }

    #[test]
    fn gamma_command_converges() {
        let cmd = parse_args(&args("gamma --p 0.3 --steps 60")).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.trim_end().ends_with("0.400000"), "{text}");
    }

    #[test]
    fn sweep_parses_and_runs() {
        let cmd = parse_args(&args("sweep --flows-list 1,2 --duration 2")).unwrap();
        assert!(matches!(cmd, Command::Sweep { topology: SweepTopology::Proportional, .. }));
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("1 flows"), "{text}");
        assert!(text.contains("2 flows"), "{text}");
        assert!(text.contains("green drops"), "{text}");
        assert!(text.contains("Lemma 6"), "{text}");
        assert!(text.contains("admitted"), "{text}");
        assert!(parse_args(&args("sweep --flows-list 0,2")).is_err());
        assert!(parse_args(&args("sweep --flows-list x")).is_err());
    }

    #[test]
    fn sweep_topology_flag_selects_the_family() {
        let cmd = parse_args(&args("sweep --flows-list 2 --topology fixed")).unwrap();
        assert!(matches!(cmd, Command::Sweep { topology: SweepTopology::Fixed, .. }));
        let cmd = parse_args(&args("sweep --flows-list 2 --topology wideband")).unwrap();
        assert!(matches!(cmd, Command::Sweep { topology: SweepTopology::Wideband, .. }));
        assert!(parse_args(&args("sweep --flows-list 2 --topology mesh")).is_err());
    }

    #[test]
    fn parses_bench_flags() {
        let cmd = parse_args(&args("bench")).unwrap();
        match cmd {
            Command::Bench { counts, workers, topology, duration_s, check } => {
                assert_eq!(counts, pels_bench::scalebench::DEFAULT_COUNTS);
                assert_eq!(duration_s, 10.0);
                assert!(check.is_none());
                assert_eq!(workers[0], 1, "first workers group is the serial baseline");
                assert_eq!(topology, pels_bench::scalebench::ScaleTopology::Chained);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&args("bench --workers 1,4 --topology shared")).unwrap();
        match cmd {
            Command::Bench { workers, topology, .. } => {
                assert_eq!(workers, vec![1, 4]);
                assert_eq!(topology, pels_bench::scalebench::ScaleTopology::Shared);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("bench --workers 0,2")).is_err());
        assert!(parse_args(&args("bench --workers x")).is_err());
        assert!(parse_args(&args("bench --topology mesh")).is_err());
        let cmd = parse_args(&args("bench --short")).unwrap();
        match cmd {
            Command::Bench { counts, duration_s, .. } => {
                assert_eq!(counts, vec![1, 8, 64]);
                assert_eq!(duration_s, 2.0);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&args("bench --short --counts 3,5 --duration 1.5")).unwrap();
        match cmd {
            Command::Bench { counts, duration_s, .. } => {
                assert_eq!(counts, vec![3, 5]);
                assert_eq!(duration_s, 1.5);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("bench --counts 0,2")).is_err());
        assert!(parse_args(&args("bench --counts x")).is_err());
        assert!(parse_args(&args("bench --duration -1")).is_err());
    }

    #[test]
    fn bench_command_writes_and_checks_a_report() {
        let dir = std::env::temp_dir().join("pels_cli_bench_test");
        let dirs = dirs_in(&dir);
        let cmd = parse_args(&args("bench --counts 1 --duration 0.5")).unwrap();
        let mut buf = Vec::new();
        let res = execute(cmd, &dirs, &mut buf);
        res.unwrap();
        let path = dir.join("BENCH_scale.json");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("BENCH_scale.json"), "{text}");
        pels_bench::scalebench::validate_json(&std::fs::read_to_string(&path).unwrap()).unwrap();

        let cmd = parse_args(&args(&format!("bench --check {}", path.display()))).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("valid pels-bench-scale/4 report"), "{text}");

        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{}").unwrap();
        let cmd = parse_args(&args(&format!("bench --check {}", bad.display()))).unwrap();
        assert!(exec(cmd, &mut Vec::new()).is_err());
        let cmd = Command::Bench {
            counts: vec![1],
            workers: vec![1],
            topology: pels_bench::scalebench::ScaleTopology::Chained,
            duration_s: 1.0,
            check: Some("/nonexistent".into()),
        };
        assert!(exec(cmd, &mut Vec::new()).is_err());
    }

    #[test]
    fn trace_command_emits_loadable_csv() {
        let cmd = parse_args(&args("trace --frames 10 --cv 0.2 --seed 3")).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let trace = pels_fgs::frame::VideoTrace::from_csv(&text).unwrap();
        assert_eq!(trace.len(), 10);
        assert!(parse_args(&args("trace --frames 0")).is_err());
    }

    #[test]
    fn version_command_reports_embedded_provenance() {
        for spelling in ["version", "--version", "-V"] {
            assert!(matches!(parse_args(&args(spelling)).unwrap(), Command::Version));
        }
        let mut buf = Vec::new();
        exec(Command::Version, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(env!("CARGO_PKG_VERSION")), "{text}");
        assert!(text.contains("commit "), "{text}");
        // In a git checkout the commit is a 40-hex id; outside one it is
        // the literal `unknown` — either way it must not be empty.
        let commit = env!("PELS_GIT_COMMIT");
        assert!(commit == "unknown" || commit.len() == 40, "{commit}");
    }

    #[test]
    fn config_template_roundtrips() {
        let mut buf = Vec::new();
        exec(Command::ConfigTemplate, &mut buf).unwrap();
        let cfg: ScenarioConfig = serde_json::from_slice(&buf).unwrap();
        assert_eq!(cfg.flows.len(), 2);
    }

    #[test]
    fn run_command_executes_small_scenario() {
        let cmd = parse_args(&args("run --flows 1 --duration 2 --json")).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["flows"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn parses_chaos_flags() {
        let cmd = parse_args(&args("chaos --seed 9 --duration 12 --json")).unwrap();
        match cmd {
            Command::Chaos { seed, duration_s, wire, short, json, telemetry } => {
                assert_eq!(seed, 9);
                assert_eq!(duration_s, 12.0);
                assert!(!wire);
                assert!(!short);
                assert!(json);
                assert!(telemetry.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("chaos --duration 2")).is_err());
        assert!(parse_args(&args("chaos --seed x")).is_err());
    }

    #[test]
    fn parses_wire_chaos_flags() {
        // `--wire` picks the 12 s wire default; `--short` implies `--wire`.
        assert!(matches!(
            parse_args(&args("chaos --wire")).unwrap(),
            Command::Chaos { wire: true, short: false, duration_s, .. } if duration_s == 12.0
        ));
        assert!(matches!(
            parse_args(&args("chaos --short")).unwrap(),
            Command::Chaos { wire: true, short: true, .. }
        ));
        // An explicit duration too small for the wire schedule is caught at
        // execution, not parse (parse only enforces the shared 5 s floor).
        let cmd = parse_args(&args("chaos --wire --duration 6")).unwrap();
        let err = exec(cmd, &mut Vec::new()).unwrap_err();
        assert!(err.contains("bad wire chaos schedule"), "{err}");
    }

    #[test]
    fn chaos_command_runs_matrix() {
        let cmd = parse_args(&args("chaos --seed 3 --duration 12 --json")).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["cases"].as_array().unwrap().len(), 6);
        assert_eq!(v["all_ok"], serde_json::Value::Bool(true));
    }

    #[test]
    fn parses_live_flags() {
        let cmd =
            parse_args(&args("live --duration 2 --bottleneck-mbps 8 --share 0.25 --mem --json"))
                .unwrap();
        match cmd {
            Command::Live { duration_s, bottleneck_mbps, share, mem, faults, json, telemetry } => {
                assert_eq!(duration_s, 2.0);
                assert_eq!(bottleneck_mbps, 8.0);
                assert_eq!(share, 0.25);
                assert!(mem);
                assert!(faults.is_none());
                assert!(json);
                assert!(telemetry.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_args(&args("live")).unwrap(),
            Command::Live { mem: false, json: false, .. }
        ));
        assert!(matches!(
            parse_args(&args("live --faults sched.json")).unwrap(),
            Command::Live { faults: Some(p), .. } if p == "sched.json"
        ));
        assert!(parse_args(&args("live --share 0")).is_err());
        assert!(parse_args(&args("live --share 1.5")).is_err());
        assert!(parse_args(&args("live --duration -1")).is_err());
        assert!(parse_args(&args("live --bottleneck-mbps 0")).is_err());
    }

    #[test]
    fn wire_chaos_command_runs_matrix() {
        let cmd = parse_args(&args("chaos --short --json")).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["cases"].as_array().unwrap().len(), 6);
        assert_eq!(v["all_ok"], serde_json::Value::Bool(true));
        assert_eq!(v["duration_s"].as_f64(), Some(10.0), "--short is the 10 s preset");
    }

    #[test]
    fn live_command_reads_a_fault_schedule() {
        let dir = std::env::temp_dir().join("pels_cli_faults_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sched.json");
        let mut spec = pels_wire::LiveFaults::default();
        spec.source.tx.drop = 0.2;
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        let dirs = dirs_in(&dir);
        let cmd =
            parse_args(&args(&format!("live --duration 2 --mem --faults {}", path.display())))
                .unwrap();
        let mut buf = Vec::new();
        let res = execute(cmd, &dirs, &mut buf);
        res.unwrap();
        let text = String::from_utf8(buf).unwrap();
        let fault_line = text.lines().find(|l| l.trim_start().starts_with("faults:"));
        let Some(fault_line) = fault_line else { panic!("no faults line in:\n{text}") };
        assert!(!fault_line.contains(" 0 dropped"), "20% tx drop must fire: {fault_line}");

        // An invalid schedule is rejected before the run starts.
        spec.source.tx.drop = 1.5;
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        let cmd =
            parse_args(&args(&format!("live --duration 2 --mem --faults {}", path.display())))
                .unwrap();
        let err = exec(cmd, &mut Vec::new()).unwrap_err();
        assert!(err.contains("bad fault schedule"), "{err}");
    }

    #[test]
    fn live_command_streams_in_memory_and_writes_csv() {
        let dir = std::env::temp_dir().join("pels_cli_live_test");
        let dirs = dirs_in(&dir);
        let cmd = parse_args(&args("live --duration 1 --mem --json")).unwrap();
        let mut buf = Vec::new();
        let res = execute(cmd, &dirs, &mut buf);
        res.unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        let flows = v["flows"].as_array().unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0]["frames_sent"].as_u64(), Some(20), "1 s at 20 fps");
        let csv = std::fs::read_to_string(dir.join("live.csv")).unwrap();
        assert!(csv.lines().any(|l| l.starts_with("flow,1,")), "{csv}");
    }

    #[test]
    fn run_with_telemetry_writes_parseable_snapshots_and_metrics_reads_them() {
        let dir = std::env::temp_dir().join("pels_cli_tel_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let cmd = parse_args(&args(&format!(
            "run --flows 1 --duration 3 --json --telemetry {}",
            path.display()
        )))
        .unwrap();
        match &cmd {
            Command::Run { telemetry: Some(p), .. } => assert!(p.ends_with("run.jsonl")),
            other => panic!("{other:?}"),
        }
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = pels_telemetry::parse_snapshot_lines(&text).unwrap();
        assert_eq!(lines.len(), 3, "one cumulative snapshot per simulated second");
        let last = &lines.last().unwrap().snapshot;
        assert!(last.counters["sim.flow0.feedback_epochs"] > 0);
        assert!(last.series.contains_key("sim.flow0.rate_kbps"));
        assert!(last.gauges.contains_key("sim.events"));

        let cmd = parse_args(&args(&format!("metrics {}", path.display()))).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("3 snapshot(s)"), "{text}");
        assert!(text.contains("counters:"), "{text}");
        assert!(text.contains("sim.flow0.feedback_epochs"), "{text}");
        assert!(text.contains("sim.flow0.rate_kbps"), "{text}");
    }

    #[test]
    fn live_with_telemetry_streams_snapshots() {
        let dir = std::env::temp_dir().join("pels_cli_tel_live");
        std::fs::create_dir_all(&dir).unwrap();
        let dirs = dirs_in(&dir);
        let path = dir.join("live.jsonl");
        let cmd = parse_args(&args(&format!(
            "live --duration 1 --mem --json --telemetry {}",
            path.display()
        )))
        .unwrap();
        let mut buf = Vec::new();
        let res = execute(cmd, &dirs, &mut buf);
        res.unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = pels_telemetry::parse_snapshot_lines(&text).unwrap();
        let last = &lines.last().unwrap().snapshot;
        assert!(last.counters["wire.src.feedback_epochs"] > 0);
        assert!(last.counters.contains_key("wire.router.tx.green"));
    }

    #[test]
    fn metrics_rejects_missing_and_bad_files() {
        assert!(parse_args(&args("metrics")).is_err());
        assert!(parse_args(&args("metrics a.jsonl b.jsonl")).is_err());
        let cmd = Command::Metrics { path: "/nonexistent/pels.jsonl".into() };
        assert!(exec(cmd, &mut Vec::new()).is_err());
        let dir = std::env::temp_dir().join("pels_cli_tel_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        let cmd = parse_args(&args(&format!("metrics {}", bad.display()))).unwrap();
        assert!(exec(cmd, &mut Vec::new()).is_err());
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let cmd = parse_args(&args(&format!("metrics {}", empty.display()))).unwrap();
        assert!(exec(cmd, &mut Vec::new()).is_err());
    }

    #[test]
    fn parses_topo_run_flags() {
        let cmd = parse_args(&args("run --topology fattree:k=4,flows=8 --duration 5")).unwrap();
        match cmd {
            Command::RunTopo { spec, duration_s, json, .. } => {
                assert_eq!(spec.generator.family(), "fattree");
                assert_eq!(spec.flows(), 8);
                assert_eq!(duration_s, 5.0);
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
        // --seed overrides the shorthand's (absent) seed.
        let cmd = parse_args(&args("run --topology waxman:routers=12 --seed 9")).unwrap();
        assert!(matches!(cmd, Command::RunTopo { ref spec, .. } if spec.seed() == 9));
        // Dumbbell-only flags are rejected with the topo flags.
        assert!(parse_args(&args("run --topology fattree:k=4 --flows 2")).is_err());
        assert!(parse_args(&args("run --topology fattree:k=4 --mode fifo")).is_err());
        assert!(parse_args(&args("run --topology nonsense:x=1")).is_err());
        // Generator invariants (odd fat-tree arity) surface at build time.
        let cmd = parse_args(&args("run --topology fattree:k=3 --duration 1")).unwrap();
        assert!(exec(cmd, &mut Vec::new()).is_err());
        assert!(parse_args(&args("run --topo-spec /nonexistent.json")).is_err());
    }

    #[test]
    fn topo_spec_file_parses_and_conflicts_with_shorthand() {
        let dir = std::env::temp_dir().join("pels_cli_topo_spec");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        std::fs::write(&path, r#"{"generator": {"FatTree": {"k": 4}}, "flows": 6}"#).unwrap();
        let cmd = parse_args(&args(&format!("run --topo-spec {}", path.display()))).unwrap();
        match cmd {
            Command::RunTopo { spec, .. } => {
                assert_eq!(spec.generator.family(), "fattree");
                assert_eq!(spec.flows(), 6);
            }
            other => panic!("{other:?}"),
        }
        let err = parse_args(&args(&format!(
            "run --topo-spec {} --topology fattree:k=4",
            path.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn topo_run_executes_and_writes_the_results_csv() {
        let dir = std::env::temp_dir().join("pels_cli_topo_run");
        let dirs = dirs_in(&dir);
        let cmd = parse_args(&args(
            "run --topology parkinglot:segments=2,cross=1,flows=3 --duration 2 --json",
        ))
        .unwrap();
        let mut buf = Vec::new();
        let res = execute(cmd, &dirs, &mut buf);
        res.unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["family"].as_str(), Some("parkinglot"));
        assert_eq!(v["bottlenecks"].as_array().unwrap().len(), 2);
        let csv = std::fs::read_to_string(dir.join("topo_parkinglot.csv")).unwrap();
        assert!(csv.lines().count() >= 3, "header + one line per bottleneck: {csv}");
        assert!(csv.starts_with("family,seed,"), "{csv}");
    }

    #[test]
    fn topo_sweep_parses_and_runs() {
        let cmd =
            parse_args(&args("sweep --flows-list 1,2 --topology waxman:routers=8 --duration 1"))
                .unwrap();
        assert!(matches!(cmd, Command::SweepTopo { ref counts, .. } if counts == &vec![1, 2]));
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("1 flows on waxman"), "{text}");
        assert!(text.contains("2 flows on waxman"), "{text}");
        assert!(text.contains("max bottleneck dev"), "{text}");
    }

    #[test]
    fn bench_accepts_generated_families() {
        let cmd = parse_args(&args("bench --topology fattree --counts 2")).unwrap();
        assert!(matches!(
            cmd,
            Command::Bench { topology: pels_bench::scalebench::ScaleTopology::FatTree, .. }
        ));
        let cmd = parse_args(&args("bench --topology random --counts 2")).unwrap();
        assert!(matches!(
            cmd,
            Command::Bench { topology: pels_bench::scalebench::ScaleTopology::Random, .. }
        ));
    }

    #[test]
    fn parses_serve_flags() {
        let cmd = parse_args(&args("serve")).unwrap();
        match cmd {
            Command::Serve {
                listen,
                duration_s,
                capacity_mbps,
                max_flows,
                packet_bytes,
                batch_size,
                no_batch,
                telemetry_per_flow,
                telemetry,
                json,
            } => {
                assert_eq!(listen, std::net::SocketAddr::from(([127, 0, 0, 1], 9500)));
                assert_eq!(duration_s, 10.0);
                assert_eq!(capacity_mbps, 100.0);
                assert_eq!(max_flows, 4096);
                assert_eq!(packet_bytes, 400);
                assert_eq!(batch_size, 64);
                assert!(!no_batch, "batched I/O is the default");
                assert!(!telemetry_per_flow, "per-flow series are opt-in");
                assert!(telemetry.is_none());
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&args(
            "serve --listen 127.0.0.1:0 --duration 2 --no-batch --telemetry-per-flow --json",
        ))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve { no_batch: true, telemetry_per_flow: true, json: true, .. }
        ));
        assert!(parse_args(&args("serve --listen nonsense")).is_err());
        assert!(parse_args(&args("serve --duration 0")).is_err());
        assert!(parse_args(&args("serve --capacity-mbps -1")).is_err());
        assert!(parse_args(&args("serve --batch-size 0")).is_err());
        assert!(parse_args(&args("serve --max-flows 0")).is_err());
    }

    #[test]
    fn parses_loadgen_flags() {
        let cmd = parse_args(&args("loadgen")).unwrap();
        match cmd {
            Command::Loadgen { server, flows, duration_s, ramp_s, warmup_s, ack_every, .. } => {
                assert_eq!(server, std::net::SocketAddr::from(([127, 0, 0, 1], 9500)));
                assert_eq!(flows, 256);
                assert_eq!(duration_s, 5.0);
                assert_eq!(ramp_s, 1.0);
                assert_eq!(warmup_s, 2.0);
                assert_eq!(ack_every, 1);
            }
            other => panic!("{other:?}"),
        }
        // Short runs shrink the derived ramp/warmup defaults.
        let cmd = parse_args(&args("loadgen --duration 2")).unwrap();
        assert!(matches!(
            cmd,
            Command::Loadgen { ramp_s, warmup_s, .. } if ramp_s == 0.5 && warmup_s == 1.0
        ));
        assert!(parse_args(&args("loadgen --flows 0")).is_err());
        assert!(parse_args(&args("loadgen --warmup 5 --duration 4")).is_err());
        assert!(parse_args(&args("loadgen --ack-every 0")).is_err());
        assert!(parse_args(&args("loadgen --server nowhere")).is_err());
    }

    #[test]
    fn parses_bench_wire_flags() {
        let cmd = parse_args(&args("bench --wire")).unwrap();
        match cmd {
            Command::BenchWire { counts, duration_s, check } => {
                assert_eq!(counts, pels_bench::wirebench::DEFAULT_COUNTS);
                assert_eq!(duration_s, 5.0);
                assert!(check.is_none());
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&args("bench --wire --short")).unwrap();
        assert!(matches!(
            cmd,
            Command::BenchWire { ref counts, duration_s, .. }
                if counts == &vec![64, 128] && duration_s == 2.0
        ));
        let cmd = parse_args(&args("bench --wire --counts 8,16 --duration 1.5")).unwrap();
        assert!(matches!(
            cmd,
            Command::BenchWire { ref counts, duration_s, .. }
                if counts == &vec![8, 16] && duration_s == 1.5
        ));
        assert!(matches!(
            parse_args(&args("bench --wire --check BENCH_wire.json")).unwrap(),
            Command::BenchWire { check: Some(_), .. }
        ));
        assert!(parse_args(&args("bench --wire --counts 0,8")).is_err());
        assert!(parse_args(&args("bench --wire --duration -1")).is_err());
        // Without --wire the bench arm still parses scale-bench flags.
        assert!(matches!(parse_args(&args("bench --short")).unwrap(), Command::Bench { .. }));
    }

    #[test]
    fn serve_command_executes_an_idle_server() {
        let cmd = parse_args(&args("serve --listen 127.0.0.1:0 --duration 0.3 --json")).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["peak_flows"].as_u64(), Some(0), "no clients registered");
        assert_eq!(v["leaked_flows"].as_u64(), Some(0));
        assert_eq!(v["batched"].as_bool(), Some(true));
    }

    #[test]
    fn loadgen_command_survives_an_absent_server() {
        // UDP is connectionless: HELLOs into a dead port either vanish or
        // bounce as ICMP refusals (counted as send drops), never an error.
        let cmd = parse_args(&args(
            "loadgen --server 127.0.0.1:9 --flows 2 --duration 0.3 --warmup 0.1 --json",
        ))
        .unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["flows_sustained"].as_u64(), Some(0), "{v}");
        assert_eq!(v["data_received"].as_u64(), Some(0), "{v}");
    }

    #[test]
    fn bench_wire_command_writes_and_checks_a_report() {
        let dir = std::env::temp_dir().join("pels_cli_bench_wire_test");
        let dirs = dirs_in(&dir);
        let cmd = parse_args(&args("bench --wire --counts 2 --duration 1")).unwrap();
        let mut buf = Vec::new();
        let res = execute(cmd, &dirs, &mut buf);
        res.unwrap();
        let path = dir.join("BENCH_wire.json");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("BENCH_wire.json"), "{text}");
        assert!(text.contains("batched speedup"), "{text}");
        pels_bench::wirebench::validate_json(&std::fs::read_to_string(&path).unwrap()).unwrap();

        let cmd = parse_args(&args(&format!("bench --wire --check {}", path.display()))).unwrap();
        let mut buf = Vec::new();
        exec(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("valid pels-bench-wire/1 report"), "{text}");

        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{}").unwrap();
        let cmd = parse_args(&args(&format!("bench --wire --check {}", bad.display()))).unwrap();
        assert!(exec(cmd, &mut Vec::new()).is_err());
    }

    #[test]
    fn config_file_roundtrip_via_disk() {
        let dir = std::env::temp_dir().join("pels_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cfg.json");
        let cfg = ScenarioConfig::default();
        std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
        let cmd =
            parse_args(&args(&format!("run --config {} --duration 1", path.display()))).unwrap();
        match cmd {
            Command::Run { config, .. } => assert_eq!(config.flows.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
