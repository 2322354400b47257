//! Bit-stable parallel execution (DESIGN.md §12).
//!
//! The sharded engine's contract is determinism by construction: the
//! partition — and therefore the per-shard event schedule — is a pure
//! function of the topology, and the worker count only sizes the thread
//! pool. These tests pin that contract end to end, at the level a user
//! observes it: the serialized `ScenarioReport` must be byte-identical
//! across worker counts, across repeated runs, and (for component
//! partitions, which never exchange events) against the serial engine.
//! The pooled-executor tests run the same checks with every window forced
//! onto worker threads, so the code path that serves multi-worker runs is
//! the one under test.

use pels_core::parallel::ParallelScenario;
use pels_core::scenario::{chained_proportional_config, pels_flows, Scenario, ScenarioConfig};
use pels_netsim::time::SimTime;
use pels_topo::scenario::TopoScenario;
use pels_topo::spec::TopoSpec;

const N: usize = 32;
const HORIZON_S: f64 = 5.0;

fn report_json(cfg: ScenarioConfig, workers: usize) -> String {
    let mut s = ParallelScenario::build(cfg);
    s.set_workers(workers);
    s.run_until(SimTime::from_secs_f64(HORIZON_S));
    serde_json::to_string(&s.report()).expect("report serializes")
}

/// The report at `workers` with every window sent to the worker pool,
/// and the threads that took.
fn pooled_report_json(cfg: ScenarioConfig, workers: usize) -> (String, u64) {
    let mut s = ParallelScenario::build(cfg);
    s.set_workers(workers);
    s.sim.set_fanout_min_events(0);
    s.run_until(SimTime::from_secs_f64(HORIZON_S));
    (serde_json::to_string(&s.report()).expect("report serializes"), s.sim.threads_spawned())
}

/// A generated topology's report at `workers`, every window pooled when
/// `pooled`, and the threads that took.
fn topo_report_json(shorthand: &str, workers: usize, pooled: bool) -> (String, u64) {
    let spec = TopoSpec::from_shorthand(shorthand).expect("valid shorthand");
    let mut s = TopoScenario::try_build(spec).expect("topology builds");
    s.set_workers(workers);
    if pooled {
        s.sim.set_fanout_min_events(0);
    }
    s.run_until(SimTime::from_secs_f64(HORIZON_S));
    (serde_json::to_string(&s.report()).expect("report serializes"), s.sim.threads_spawned())
}

/// The fixed shared dumbbell: one bottleneck, so the partitioner falls
/// back to the delay-cut (2 shards) and the conservative windowed
/// executor runs with barriers. Reports must not depend on the worker
/// count.
#[test]
fn fixed_dumbbell_reports_are_worker_invariant() {
    let cfg = || ScenarioConfig {
        flows: pels_flows(&[0.0; N]),
        keep_series: false,
        ..Default::default()
    };
    let baseline = report_json(cfg(), 1);
    for workers in [2, 8] {
        let r = report_json(cfg(), workers);
        assert_eq!(baseline, r, "fixed dumbbell: workers=1 vs workers={workers}");
    }
}

/// The chained proportional topology decomposes into N components, one
/// shard each — the maximally parallel shape. Still byte-identical at
/// every worker count.
#[test]
fn chained_topology_reports_are_worker_invariant() {
    let baseline = report_json(chained_proportional_config(N), 1);
    for workers in [2, 8] {
        let r = report_json(chained_proportional_config(N), workers);
        assert_eq!(baseline, r, "chained: workers=1 vs workers={workers}");
    }
}

/// Running the same config twice at the same worker count must also be
/// stable — no wall-clock, thread-id, or iteration-order leakage into
/// results.
#[test]
fn repeated_runs_are_bit_stable() {
    assert_eq!(
        report_json(chained_proportional_config(N), 8),
        report_json(chained_proportional_config(N), 8),
        "chained repeat at workers=8"
    );
    let cfg = || ScenarioConfig {
        flows: pels_flows(&[0.0; 4]),
        keep_series: false,
        ..Default::default()
    };
    assert_eq!(report_json(cfg(), 2), report_json(cfg(), 2), "dumbbell repeat at workers=2");
}

/// Component partitions never exchange cross-shard events, so each shard
/// replays exactly the schedule the serial engine would give that
/// component — the parallel report must match the serial `Scenario`
/// byte for byte.
#[test]
fn chained_parallel_matches_serial_engine() {
    let mut serial = Scenario::build(chained_proportional_config(N));
    serial.run_until(SimTime::from_secs_f64(HORIZON_S));
    let serial_json = serde_json::to_string(&serial.report()).expect("report serializes");
    assert_eq!(serial_json, report_json(chained_proportional_config(N), 8));
}

/// The shared dumbbell exercises the windowed executor's batched drain
/// and cross-shard merge. Deterministic mode must still reproduce the
/// serial engine byte for byte at every worker count — the merge order
/// `(time, src_shard, seq)` is what makes the thread that ran a shard
/// irrelevant.
#[test]
fn shared_dumbbell_parallel_matches_serial_engine() {
    let cfg = || ScenarioConfig {
        flows: pels_flows(&[0.0; N]),
        keep_series: false,
        ..Default::default()
    };
    let mut serial = Scenario::build(cfg());
    serial.run_until(SimTime::from_secs_f64(HORIZON_S));
    let serial_json = serde_json::to_string(&serial.report()).expect("report serializes");
    for workers in [1, 2, 8] {
        assert_eq!(
            serial_json,
            report_json(cfg(), workers),
            "shared dumbbell: serial vs workers={workers}"
        );
    }
}

/// The pooled executor on real threads: every window of a chained
/// (component), shared-dumbbell (delay cut), fat-tree and Waxman run at two
/// workers goes to the pool, and each report must equal the
/// single-worker report byte for byte.
#[test]
fn pooled_executor_matches_serial_on_every_family() {
    let shared = || ScenarioConfig {
        flows: pels_flows(&[0.0; 8]),
        keep_series: false,
        ..Default::default()
    };
    for (name, cfg) in [("chained", chained_proportional_config(N)), ("shared", shared())] {
        let serial = report_json(cfg.clone(), 1);
        let (pooled, spawned) = pooled_report_json(cfg, 2);
        assert!(spawned > 0, "{name}: the pool never ran");
        assert_eq!(serial, pooled, "{name}: pooled at 2 workers vs 1 worker");
    }
    for shorthand in ["fattree:k=4,flows=8", "waxman:routers=16,flows=8"] {
        let (serial, _) = topo_report_json(shorthand, 1, false);
        let (pooled, spawned) = topo_report_json(shorthand, 2, true);
        assert!(spawned > 0, "{shorthand}: the pool never ran");
        assert_eq!(serial, pooled, "{shorthand}: pooled at 2 workers vs 1 worker");
    }
}

/// The `pels run` dumbbell at its default two workers: the cost model must
/// keep its ~60-event windows in the calling thread, so the run spawns at
/// most `workers` threads per `run_until` call (not two per 5 ms window),
/// runs the same windows and events, and reports exactly what one worker
/// reports.
#[test]
fn default_dumbbell_at_two_workers_matches_serial_without_per_window_spawns() {
    let cfg = || ScenarioConfig { flows: pels_flows(&[0.0; 8]), ..Default::default() };
    let calls = 10u64;
    let run = |workers: usize| {
        let mut s = ParallelScenario::build(cfg());
        s.set_workers(workers);
        for t in 1..=calls {
            s.run_until(SimTime::from_secs_f64(t as f64));
        }
        let json = serde_json::to_string(&s.report()).expect("report serializes");
        (json, s.sim.barriers(), s.events_processed(), s.sim.threads_spawned())
    };
    let (serial, windows, events, _) = run(1);
    let (report, pooled_windows, pooled_events, spawned) = run(2);
    assert_eq!(serial, report, "dumbbell: 2 workers vs 1 worker");
    assert_eq!(windows, pooled_windows, "window schedule changed");
    assert_eq!(events, pooled_events, "event count changed");
    assert!(windows > 1000, "{windows} windows: not a cut partition");
    assert!(spawned <= 2 * calls, "{spawned} threads for {calls} run_until calls");
}
