//! Window-dispatch microbenchmark for the sharded executor.
//!
//! A cut pair (two agents joined by one 1 ms link: two shards stepping in
//! 1 ms lookahead windows) processes a fixed number of events per window,
//! each costing about what a simulator event does (~150 ns on a 2-vCPU
//! x86-64 host). Each window is dispatched three ways:
//!
//! * `in-thread`: `set_workers(1)`, both shards in the calling thread;
//! * `pooled`: two workers with every window sent to the pool
//!   (`set_fanout_min_events(0)`) in one `run_until`, so the two helper
//!   threads are spawned once and park between windows;
//! * `spawn`: the same with one `run_until` per window, so every window
//!   pays a `thread::scope` and two spawns and joins, as the executor did
//!   before it had a pool.
//!
//! It prints wall and process-CPU microseconds per window (median of
//! [`REPS`] runs) and the smallest size at which the pool beats the
//! calling thread on wall time: the crossover `FANOUT_MIN_EVENTS` cites.
//!
//! Run with `cargo bench -p pels-bench --bench shard_window`.

use pels_netsim::packet::{AgentId, Packet};
use pels_netsim::shard::{Partition, ShardedSimulator, TopologyGraph, FANOUT_MIN_EVENTS};
use pels_netsim::sim::{Agent, Context};
use pels_netsim::time::{SimDuration, SimTime};
use std::any::Any;
use std::hint::black_box;
use std::time::Instant;

const WINDOW: SimDuration = SimDuration::from_millis(1);
/// Events per window, both shards together.
const SIZES: [u64; 13] =
    [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16_384, 32_768, 65_536];
/// Events per measured run, over at most 20,000 windows.
const EVENTS_PER_RUN: u64 = 4_000_000;
const REPS: usize = 3;
/// Arithmetic rounds per event, sized to a simulator event's cost.
const WORK: u32 = 50;

/// Keeps `timers` periodic timers armed, each firing once per window.
struct Burner {
    timers: u64,
    acc: u64,
}

impl Agent for Burner {
    fn start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.timers {
            ctx.schedule_timer(SimDuration::from_nanos(WINDOW.as_nanos() * i / self.timers), i);
        }
    }
    fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let mut x = self.acc ^ token;
        for _ in 0..WORK {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.acc = black_box(x);
        ctx.schedule_timer(WINDOW, token);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Process CPU seconds, all threads, from `/proc/self/stat` (10 ms ticks).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    // utime and stime: the 12th and 13th fields after the command name.
    rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum::<f64>()
        / 100.0
}

/// Wall and CPU microseconds per window at `workers`, one `run_until` per
/// window when `per_window`.
fn run(events_per_window: u64, workers: usize, per_window: bool) -> (f64, f64) {
    let mut g = TopologyGraph::new(2);
    g.add_link(AgentId(0), AgentId(1), WINDOW);
    let timers = events_per_window / 2;
    let agents: Vec<Box<dyn Agent>> =
        (0..2).map(|_| Box::new(Burner { timers, acc: 1 }) as Box<dyn Agent>).collect();
    let mut sim = ShardedSimulator::new(1, &Partition::cut(&g), agents);
    sim.set_workers(workers);
    sim.set_fanout_min_events(0);
    // One untimed window starts the agents and warms the caches.
    sim.run_until(SimTime::ZERO + WINDOW);
    let windows = (EVENTS_PER_RUN / events_per_window).clamp(20, 20_000);
    let end = sim.now() + WINDOW * windows;
    let (t, cpu) = (Instant::now(), process_cpu_s());
    while sim.now() < end {
        let next = if per_window { sim.now() + WINDOW } else { end };
        sim.run_until(next);
    }
    let per = |s: f64| 1e6 * s / windows as f64;
    (per(t.elapsed().as_secs_f64()), per(process_cpu_s() - cpu))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    println!("cut pair, 1 ms windows, us per window, median of {REPS} runs");
    println!(
        "{:>9} {:>10} {:>9} {:>9} {:>13} {:>9} {:>9} {:>9}",
        "ev/window", "in-thread", "pooled", "spawn", "cpu in-thr", "pooled", "spawn", "ns/event"
    );
    let mut crossover = None;
    for &e in &SIZES {
        let (mut wall, mut cpu) = ([0.0; 3], [0.0; 3]);
        for (i, (workers, per_window)) in
            [(1, false), (2, false), (2, true)].into_iter().enumerate()
        {
            let runs: Vec<(f64, f64)> = (0..REPS).map(|_| run(e, workers, per_window)).collect();
            wall[i] = median(runs.iter().map(|r| r.0).collect());
            cpu[i] = median(runs.iter().map(|r| r.1).collect());
        }
        let [w0, w1, w2] = wall;
        let [c0, c1, c2] = cpu;
        println!(
            "{e:>9} {w0:>10.2} {w1:>9.2} {w2:>9.2} {c0:>13.2} {c1:>9.2} {c2:>9.2} {:>9.1}",
            1e3 * w0 / e as f64
        );
        if crossover.is_none() && w1 < w0 {
            crossover = Some(e);
        }
    }
    match crossover {
        Some(e) => {
            println!("crossover: the pool first beats the calling thread at {e} events/window")
        }
        None => println!("crossover: the pool never beat the calling thread"),
    }
    println!("FANOUT_MIN_EVENTS = {FANOUT_MIN_EVENTS} events off the calling thread's path");
}
