//! Parallel deterministic execution: topology partitioning and the
//! conservative windowed [`ShardedSimulator`].
//!
//! The engine follows classic conservative parallel discrete-event
//! simulation (PDES): the agent/link graph is split into *shards*, each
//! shard owns its own event queue, RNG stream, and packet-id space, and
//! shards only interact through link-delayed packet deliveries. Two
//! partition shapes arise in practice:
//!
//! * **Connected components** ([`Partition::components`]): the
//!   capacity-proportional and wideband chain topologies decompose into N
//!   independent source→router→receiver chains. Components never exchange
//!   events, so each runs to the deadline with zero synchronization.
//! * **Delay cuts** ([`Partition::cut`]): a shared-bottleneck dumbbell is
//!   one component, but cutting the highest-propagation-delay link tier
//!   (the 5 ms bottleneck vs 1 ms access links) yields shards whose only
//!   interaction is at least `lookahead = min cross-shard link delay` in
//!   the future. Shards then advance in lock-step windows of `lookahead`
//!   simulated time, exchanging cross-shard packet arrivals at window
//!   barriers.
//!
//! # Determinism
//!
//! A sharded run is a pure function of (topology, partition, seed):
//!
//! * The partition itself is a pure function of the topology — the worker
//!   thread count only sizes the thread pool and **never** changes the
//!   shard layout, so `--workers 1` and `--workers 8` execute the exact
//!   same per-shard event schedules and produce byte-identical results.
//! * Each shard's RNG stream is derived from the run seed and the shard
//!   index via SplitMix64 ([`stream_seed`]), and each shard allocates
//!   packet ids from a disjoint base, so no shard ever observes another
//!   shard's draws or allocations.
//! * Cross-shard events are exchanged only at window barriers and merged
//!   in `(fire time, source shard, source sequence)` order
//!   ([`sort_cross_events`]) before being scheduled into the destination
//!   queue — an order independent of thread scheduling.
//! * A single-shard partition degenerates to the plain serial
//!   [`Simulator`] byte-for-byte: same seed, same packet ids, same global
//!   event queue.
//!
//! The conservative window is safe because every cross-shard delivery made
//! at local time `τ < window_end` fires at `τ + link_delay ≥ τ + lookahead
//! ≥ window_end`: no event received at a barrier can be in a shard's past.

use crate::error::SimError;
use crate::event::Event;
use crate::faults::{FaultSchedule, GLOBAL};
use crate::packet::AgentId;
use crate::sim::{Agent, AgentLookup, Simulator};
use crate::time::{SimDuration, SimTime};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default [`ShardedSimulator::set_fanout_min_events`]: a window is sent to
/// the worker pool only if the pool is expected to take at least this many
/// events off the window's critical path (the events of every group but
/// the busiest); otherwise it runs in the calling thread.
///
/// `crates/bench/benches/shard_window.rs` measures the crossover on a
/// balanced cut pair, where half of a window's events are off the critical
/// path, at ~150 ns per event on a 2-vCPU x86-64 host. Handing a window to
/// the pool costs ~19 µs of wall time, so the pool first beats the calling
/// thread at 512 events per window (256 off the path). At 2048 per window
/// (1024 off the path) it cuts a window's wall time by a third, the
/// hand-off being ~6% of the window's work. The threshold sits 4× above
/// break-even so that windows near it, where one slow wake-up on a busy
/// host turns the gain into a loss, stay in the calling thread.
pub const FANOUT_MIN_EVENTS: u64 = 1024;

/// Derives the RNG seed for stream `index` from the run seed via
/// SplitMix64 — the standard stream-splitting construction: statistically
/// independent streams, and `stream_seed(seed, i)` never equals `seed`
/// itself in practice, so shard streams do not collide with the serial
/// stream.
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The agent/link graph of a scenario, used only for partitioning.
///
/// Links are undirected for partitioning purposes: a full-duplex link is
/// one edge, annotated with its one-way propagation delay (the smaller of
/// the two directions if they differ — callers add one edge per direction
/// in that case and the partitioner uses the minimum crossing delay as the
/// lookahead, which is conservative).
#[derive(Debug, Clone)]
pub struct TopologyGraph {
    n_agents: usize,
    edges: Vec<(AgentId, AgentId, SimDuration)>,
}

impl TopologyGraph {
    /// Creates a graph over `n_agents` agents with no links yet.
    pub fn new(n_agents: usize) -> Self {
        TopologyGraph { n_agents, edges: Vec::new() }
    }

    /// Adds a full-duplex link between `a` and `b` with one-way
    /// propagation delay `delay`.
    pub fn add_link(&mut self, a: AgentId, b: AgentId, delay: SimDuration) {
        debug_assert!((a.0 as usize) < self.n_agents && (b.0 as usize) < self.n_agents);
        self.edges.push((a, b, delay));
    }

    /// Number of agents in the graph.
    pub fn n_agents(&self) -> usize {
        self.n_agents
    }

    /// The links added so far.
    pub fn edges(&self) -> &[(AgentId, AgentId, SimDuration)] {
        &self.edges
    }
}

/// An assignment of every agent to a shard, plus the synchronization
/// window (`lookahead`) multi-shard executions must respect.
///
/// Shard indices are contiguous, start at 0, and are numbered in order of
/// the smallest agent id they contain — a pure function of the topology,
/// never of thread scheduling.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Shard index of each agent, indexed by `AgentId`.
    pub shard_of: Vec<u32>,
    /// Number of shards.
    pub n_shards: usize,
    /// Minimum propagation delay of any cross-shard link: the conservative
    /// synchronization window. `None` when no link crosses shards (fully
    /// independent components, or a single shard).
    pub lookahead: Option<SimDuration>,
}

impl Partition {
    /// The trivial partition: everything in one shard. A
    /// [`ShardedSimulator`] built from it runs the plain serial event loop.
    pub fn serial(n_agents: usize) -> Self {
        Partition { shard_of: vec![0; n_agents], n_shards: 1, lookahead: None }
    }

    /// Connected components of the graph. Components never exchange
    /// events, so `lookahead` is `None` and shards run without barriers.
    pub fn components(g: &TopologyGraph) -> Self {
        let mut uf = UnionFind::new(g.n_agents);
        for &(a, b, _) in g.edges() {
            uf.union(a.0 as usize, b.0 as usize);
        }
        let (shard_of, n_shards) = uf.into_shards();
        Partition { shard_of, n_shards, lookahead: None }
    }

    /// Splits a connected graph by removing link-delay tiers from the
    /// largest delay downward until the remainder disconnects. The removed
    /// links that end up crossing shards define the lookahead (their
    /// minimum delay). Falls back to [`Partition::serial`] when the graph
    /// cannot be split with a positive lookahead.
    pub fn cut(g: &TopologyGraph) -> Self {
        let mut tiers: Vec<SimDuration> = g.edges().iter().map(|&(_, _, d)| d).collect();
        tiers.sort_unstable();
        tiers.dedup();
        // Remove tiers from the top down; stop at the first cut that
        // disconnects the graph.
        while let Some(&cut_below) = tiers.last() {
            let mut uf = UnionFind::new(g.n_agents);
            for &(a, b, d) in g.edges() {
                if d < cut_below {
                    uf.union(a.0 as usize, b.0 as usize);
                }
            }
            let (shard_of, n_shards) = uf.into_shards();
            if n_shards > 1 {
                let lookahead = g
                    .edges()
                    .iter()
                    .filter(|&&(a, b, _)| shard_of[a.0 as usize] != shard_of[b.0 as usize])
                    .map(|&(_, _, d)| d)
                    .min();
                match lookahead {
                    Some(d) if !d.is_zero() => {
                        return Partition { shard_of, n_shards, lookahead: Some(d) }
                    }
                    // A zero-delay cross link admits no conservative
                    // window: run serial.
                    Some(_) => return Partition::serial(g.n_agents()),
                    None => return Partition { shard_of, n_shards, lookahead: None },
                }
            }
            tiers.pop();
        }
        Partition::serial(g.n_agents())
    }

    /// The default strategy: independent components when the graph has
    /// them (zero-synchronization parallelism), otherwise a delay cut of
    /// the single component, otherwise serial.
    pub fn auto(g: &TopologyGraph) -> Self {
        let p = Self::components(g);
        if p.n_shards > 1 {
            return p;
        }
        Self::cut(g)
    }
}

/// Union-find with deterministic shard numbering.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = i;
        while cur != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Lower root wins: keeps numbering a function of the graph alone.
        let (lo, hi) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo as u32;
    }

    /// Consumes the structure, numbering components 0.. in order of their
    /// smallest member.
    fn into_shards(mut self) -> (Vec<u32>, usize) {
        let n = self.parent.len();
        let mut shard_of = vec![u32::MAX; n];
        let mut next = 0u32;
        for i in 0..n {
            let root = self.find(i);
            if shard_of[root] == u32::MAX {
                shard_of[root] = next;
                next += 1;
            }
            shard_of[i] = shard_of[root];
        }
        (shard_of, next as usize)
    }
}

/// Maps global agent ids to (shard, local slab slot). Shared read-only by
/// every shard.
#[derive(Debug)]
pub struct ShardMap {
    /// Shard index per agent, indexed by `AgentId`.
    pub shard_of: Vec<u32>,
    /// Local slab index per agent within its owning shard.
    pub local_of: Vec<u32>,
}

/// A packet delivery crossing a shard boundary, buffered in the source
/// shard's outbox until the next window barrier.
#[derive(Debug, Clone)]
pub struct CrossEvent {
    /// Absolute fire time (`emission time + link delay`).
    pub time: SimTime,
    /// Destination shard.
    pub dst_shard: u32,
    /// Source shard — part of the deterministic merge key.
    pub src_shard: u32,
    /// Emission sequence within the source shard's window.
    pub seq: u64,
    /// The event to schedule at the destination.
    pub event: Event,
}

/// Sorts a barrier batch into the canonical deterministic merge order:
/// `(fire time, source shard, source sequence)`. The order is a pure
/// function of the per-shard histories, so the destination queue assigns
/// the same FIFO tie-break sequence numbers regardless of how many worker
/// threads produced the batch.
pub fn sort_cross_events(batch: &mut [CrossEvent]) {
    batch.sort_by_key(|e| (e.time, e.src_shard, e.seq));
}

/// A simulator split into shards that execute in parallel with
/// bit-reproducible results. See the module docs for the execution model.
///
/// # Examples
///
/// Two disconnected ping-pong pairs run as two shards:
///
/// ```
/// use pels_netsim::packet::AgentId;
/// use pels_netsim::shard::{Partition, ShardedSimulator, TopologyGraph};
/// use pels_netsim::time::{SimDuration, SimTime};
/// # use pels_netsim::sim::{Agent, Context};
/// # use pels_netsim::packet::{FlowId, Packet};
/// # use std::any::Any;
/// # struct Echo { peer: Option<AgentId>, got: u32 }
/// # impl Agent for Echo {
/// #     fn start(&mut self, ctx: &mut Context<'_>) {
/// #         if let Some(peer) = self.peer {
/// #             let id = ctx.alloc_packet_id();
/// #             let pkt = Packet::data(FlowId(0), ctx.self_id, peer, 500).with_id(id);
/// #             ctx.deliver(peer, SimDuration::from_millis(5), pkt);
/// #         }
/// #     }
/// #     fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) { self.got += 1; }
/// #     fn as_any(&self) -> &dyn Any { self }
/// #     fn as_any_mut(&mut self) -> &mut dyn Any { self }
/// # }
/// let mut graph = TopologyGraph::new(4);
/// graph.add_link(AgentId(0), AgentId(1), SimDuration::from_millis(5));
/// graph.add_link(AgentId(2), AgentId(3), SimDuration::from_millis(5));
/// let partition = Partition::auto(&graph);
/// assert_eq!(partition.n_shards, 2);
///
/// let agents: Vec<Box<dyn Agent>> = vec![
///     Box::new(Echo { peer: Some(AgentId(1)), got: 0 }),
///     Box::new(Echo { peer: None, got: 0 }),
///     Box::new(Echo { peer: Some(AgentId(3)), got: 0 }),
///     Box::new(Echo { peer: None, got: 0 }),
/// ];
/// let mut sim = ShardedSimulator::new(42, &partition, agents);
/// sim.set_workers(2);
/// sim.run_until(SimTime::from_secs_f64(1.0));
/// assert_eq!(sim.agent::<Echo>(AgentId(1)).got, 1);
/// assert_eq!(sim.agent::<Echo>(AgentId(3)).got, 1);
/// ```
#[derive(Debug)]
pub struct ShardedSimulator {
    shards: Vec<Simulator>,
    map: Arc<ShardMap>,
    lookahead: Option<SimDuration>,
    now: SimTime,
    workers: usize,
    cost: CostModel,
    barriers: u64,
    cross_events: u64,
    threads_spawned: u64,
}

/// The executor's per-window cost model. Its only input is the last
/// positive-length window: its length and the events its groups
/// processed. Both are functions of the partition and the seed, never of
/// wall time, so the in-thread/pool decision, and with it
/// [`ShardedSimulator::threads_spawned`], is the same on every run.
#[derive(Debug, Clone, Copy)]
struct CostModel {
    min_events: u64,
    /// `(events off the critical path, length in ns)` of the last
    /// positive-length window.
    last: Option<(u64, u64)>,
}

impl CostModel {
    /// Whether a window of `len` goes to the pool: whether the events the
    /// pool is expected to take off its critical path, the last window's
    /// off-path event rate times `len`, reach the threshold. Before the
    /// first window there is no rate. A lookahead-bounded window
    /// (`bounded`) then expects none, so it runs in the calling thread and
    /// its successors have a rate; a component partition's window spans
    /// the whole `run_until` call, so it is expected to pay for the pool.
    fn fan_out(&self, len: SimDuration, bounded: bool) -> bool {
        let expected = match self.last {
            Some((events, last_len)) => {
                u128::from(events) * u128::from(len.as_nanos()) / u128::from(last_len)
            }
            None if bounded => 0,
            None => u128::MAX,
        };
        expected >= u128::from(self.min_events)
    }

    /// Records a window of `len` whose groups went from `before[g]` to
    /// `after[g]` processed events. Its events off the critical path are
    /// those of every group but the busiest.
    fn record(&mut self, before: &[u64], after: &[u64], len: SimDuration) {
        if !len.is_zero() {
            let window = before.iter().zip(after).map(|(b, a)| a - b);
            let off_path = window.clone().sum::<u64>() - window.max().unwrap_or(0);
            self.last = Some((off_path, len.as_nanos()));
        }
    }
}

impl ShardedSimulator {
    /// Builds a sharded simulator over `agents` (indexed by global
    /// `AgentId` in order) using `partition`.
    ///
    /// With a single-shard partition this is exactly the serial
    /// [`Simulator`]: same seed, same packet-id space, one global queue.
    /// With more shards, shard `s` draws from the SplitMix-derived stream
    /// [`stream_seed`]`(seed, s)` and allocates packet ids from base
    /// `s << 40`.
    ///
    /// # Panics
    ///
    /// Panics if `partition.shard_of.len() != agents.len()`.
    pub fn new(seed: u64, partition: &Partition, agents: Vec<Box<dyn Agent>>) -> Self {
        assert_eq!(
            partition.shard_of.len(),
            agents.len(),
            "partition covers {} agents, got {}",
            partition.shard_of.len(),
            agents.len()
        );
        let n_shards = partition.n_shards.max(1);
        let mut counters = vec![0u32; n_shards];
        let mut local_of = vec![0u32; agents.len()];
        for (g, &s) in partition.shard_of.iter().enumerate() {
            local_of[g] = counters[s as usize];
            counters[s as usize] += 1;
        }
        let map = Arc::new(ShardMap { shard_of: partition.shard_of.clone(), local_of });

        let shards = if n_shards == 1 {
            let mut sim = Simulator::new(seed);
            for a in agents {
                sim.add_agent(a);
            }
            vec![sim]
        } else {
            let mut shards: Vec<Simulator> = (0..n_shards)
                .map(|s| Simulator::new_shard(stream_seed(seed, s as u64), s as u32, map.clone()))
                .collect();
            for (g, a) in agents.into_iter().enumerate() {
                shards[map.shard_of[g] as usize].add_shard_agent(AgentId(g as u32), a);
            }
            shards
        };
        ShardedSimulator {
            shards,
            map,
            lookahead: partition.lookahead,
            now: SimTime::ZERO,
            workers: 1,
            cost: CostModel { min_events: FANOUT_MIN_EVENTS, last: None },
            barriers: 0,
            cross_events: 0,
            threads_spawned: 0,
        }
    }

    /// Sets the number of worker threads used for multi-shard windows.
    /// This affects wall-clock time only: the event schedule is fixed by
    /// the partition, so results are byte-identical at every worker count.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The configured worker thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker threads a window execution will actually use: the
    /// configured count clamped to the shard count (a shard is the unit
    /// of parallelism; extra threads would have nothing to run).
    pub fn effective_workers(&self) -> usize {
        self.workers.min(self.shards.len()).max(1)
    }

    /// Sets the cost-model threshold: a window runs on the worker pool only
    /// if the pool is expected to take at least `events` events off its
    /// critical path, and in the calling thread otherwise (default
    /// [`FANOUT_MIN_EVENTS`]). `0` sends every window to the pool. Results
    /// do not depend on it.
    pub fn set_fanout_min_events(&mut self, events: u64) {
        self.cost.min_events = events;
    }

    /// Total worker threads spawned so far: at most `effective_workers()`
    /// per [`ShardedSimulator::run_until`] call, and none while every
    /// window runs in the calling thread (one effective worker, or windows
    /// below the cost-model threshold).
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned
    }

    /// Number of shards in the partition.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The synchronization window, when shards exchange events.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Window barriers executed so far.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Cross-shard events exchanged so far.
    pub fn cross_events(&self) -> u64 {
        self.cross_events
    }

    /// Current simulation time (the committed horizon all shards reached).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(Simulator::events_processed).sum()
    }

    /// Deepest single-shard event-queue high-water mark. (Shards peak at
    /// different instants, so the sum would overstate the simultaneous
    /// working set.)
    pub fn peak_queue_depth(&self) -> usize {
        self.shards.iter().map(Simulator::peak_queue_depth).max().unwrap_or(0)
    }

    /// Typed access to an agent by global id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the agent is not a `T`.
    pub fn agent<T: Agent>(&self, id: AgentId) -> &T {
        self.try_agent(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed access to an agent by global id.
    pub fn try_agent<T: Agent>(&self, id: AgentId) -> Result<&T, SimError> {
        self.owning_shard(id)?.try_agent(id)
    }

    /// Typed mutable access to an agent by global id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the agent is not a `T`.
    pub fn agent_mut<T: Agent>(&mut self, id: AgentId) -> &mut T {
        self.try_agent_mut(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed mutable access to an agent by global id.
    pub fn try_agent_mut<T: Agent>(&mut self, id: AgentId) -> Result<&mut T, SimError> {
        let s = self.shard_index(id)?;
        self.shards[s].try_agent_mut(id)
    }

    fn shard_index(&self, id: AgentId) -> Result<usize, SimError> {
        self.map.shard_of.get(id.0 as usize).map(|&s| s as usize).ok_or(SimError::UnknownAgent(id))
    }

    fn owning_shard(&self, id: AgentId) -> Result<&Simulator, SimError> {
        Ok(&self.shards[self.shard_index(id)?])
    }

    /// Schedules every fault in `schedule` into the owning shard's queue;
    /// simulator-global actions (control-fault policies) are broadcast to
    /// every shard, each of which applies them against its own RNG stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] (before anything is scheduled)
    /// if any action is invalid.
    pub fn try_install_faults(&mut self, schedule: &FaultSchedule) -> Result<(), SimError> {
        for ev in schedule.events() {
            crate::sim::validate_fault_action(&ev.action)?;
        }
        for ev in schedule.events() {
            let event = Event::Fault { agent: ev.agent, action: ev.action };
            if ev.agent == GLOBAL {
                for shard in &mut self.shards {
                    shard.inject(ev.at, event.clone());
                }
            } else {
                let s = self.shard_index(ev.agent)?;
                self.shards[s].inject(ev.at, event);
            }
        }
        Ok(())
    }

    /// Runs until simulated time reaches `deadline` (events at exactly
    /// `deadline` are processed), advancing shards in conservative windows
    /// and exchanging cross-shard events at each barrier.
    ///
    /// Shards are split into `effective_workers()` contiguous groups. Before
    /// each window the cost model picks where it runs: below the threshold,
    /// every group in the calling thread; otherwise one helper thread per
    /// group, spawned at the call's first pooled window, parked between
    /// windows and ended when the call returns. Which thread runs a shard
    /// never changes what it computes.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.shards.len() == 1 {
            self.shards[0].run_until(deadline);
            self.now = deadline.max(self.now);
            return;
        }
        let window = self.lookahead.unwrap_or(SimDuration::ZERO);
        let chunk = self.shards.len().div_ceil(self.effective_workers());
        let groups: Vec<Group<'_>> = self.shards.chunks_mut(chunk).map(Mutex::new).collect();
        // Events processed per group: at the last barrier, and at this one.
        let mut before: Vec<u64> = groups
            .iter()
            .map(|g| lock_group(g).iter().map(Simulator::events_processed).sum())
            .collect();
        let mut after = before.clone();
        std::thread::scope(|scope| {
            // Dropped on return and on unwind alike, and with it the
            // helpers' only source of work, so they exit before the scope
            // joins them.
            let mut pool = Pool::default();
            loop {
                // Independent components (no lookahead) take one window to
                // the deadline; cut partitions step by the lookahead.
                let target = if window.is_zero() {
                    deadline
                } else {
                    deadline.min(self.now.saturating_add(window))
                };
                let last = target == deadline;
                let len = target.duration_since(self.now);
                if groups.len() > 1 && self.cost.fan_out(len, !window.is_zero()) {
                    self.threads_spawned += pool.run_window(scope, &groups, target, last);
                } else {
                    for group in &groups {
                        run_group(group, target, last);
                    }
                }
                let moved = exchange(&groups, chunk, target, &mut after);
                self.cost.record(&before, &after, len);
                before.copy_from_slice(&after);
                self.cross_events += moved;
                self.now = target;
                self.barriers += 1;
                if last && moved == 0 {
                    break;
                }
            }
        });
        drop(groups);
        for shard in &mut self.shards {
            shard.advance_clock_to(deadline);
        }
    }

    /// Runs for `d` of simulated time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }
}

/// A contiguous run of shards executed by one thread during a window.
type Group<'s> = Mutex<&'s mut [Simulator]>;

fn lock_group<'g, 's>(group: &'g Group<'s>) -> MutexGuard<'g, &'s mut [Simulator]> {
    group.lock().expect("a shard panicked during a window")
}

/// Advances every shard of `group` to `end`: exclusive while windows are
/// interior (events at exactly `end` belong to the next window, after the
/// barrier merge), inclusive on the final deadline window.
fn run_group(group: &Group<'_>, end: SimTime, inclusive: bool) {
    for shard in lock_group(group).iter_mut() {
        shard.run_window(end, inclusive);
    }
}

/// Drains every shard's outbox and schedules the events into their
/// destination queues in canonical merge order. Returns the events moved,
/// and sets `processed[g]` to the events group `g` has processed so far.
fn exchange(groups: &[Group<'_>], chunk: usize, barrier: SimTime, processed: &mut [u64]) -> u64 {
    let mut shards: Vec<_> = groups.iter().map(lock_group).collect();
    let mut batch: Vec<CrossEvent> = Vec::new();
    for (group, count) in shards.iter_mut().zip(processed.iter_mut()) {
        *count = 0;
        for shard in group.iter_mut() {
            batch.append(&mut shard.drain_outbox());
            *count += shard.events_processed();
        }
    }
    sort_cross_events(&mut batch);
    let moved = batch.len() as u64;
    for ev in batch {
        debug_assert!(
            ev.time >= barrier,
            "lookahead violation: cross-shard event at {:?} before barrier {:?}",
            ev.time,
            barrier
        );
        let dst = ev.dst_shard as usize;
        shards[dst / chunk][dst % chunk].inject(ev.time, ev.event);
    }
    moved
}

/// The helper threads of one `run_until` call, one per group, spawned at
/// the call's first pooled window. Between windows a helper parks in a
/// blocking channel receive, so a parked pool costs no CPU; it exits when
/// the pool is dropped. The calling thread only waits: shard work that
/// ran on it would leave its heap holding the run's allocations, and
/// scenario builds after a run measured 20–35% slower that way.
#[derive(Default)]
struct Pool {
    helpers: Vec<Helper>,
}

/// A helper's channels: its windows `(end, inclusive)` go out on the
/// sender, and a `()` comes back on the receiver when it finishes each.
type Helper = (Sender<(SimTime, bool)>, Receiver<()>);

impl Pool {
    /// Runs one window on every group and returns the helper threads this
    /// call spawned.
    fn run_window<'scope>(
        &mut self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        groups: &'scope [Group<'_>],
        end: SimTime,
        inclusive: bool,
    ) -> u64 {
        let mut spawned = 0;
        if self.helpers.is_empty() {
            for group in groups {
                let (window_tx, window_rx) = channel();
                let (done_tx, done_rx) = channel();
                scope.spawn(move || {
                    for (end, inclusive) in window_rx {
                        run_group(group, end, inclusive);
                        // A panic drops `done_tx` unsent instead, which
                        // fails the calling thread's `recv`.
                        let _ = done_tx.send(());
                    }
                });
                self.helpers.push((window_tx, done_rx));
                spawned += 1;
            }
        }
        for (window, _) in &self.helpers {
            // A helper that is gone has panicked; its `recv` reports it.
            let _ = window.send((end, inclusive));
        }
        for (_, done) in &self.helpers {
            done.recv().expect("a shard panicked during a window");
        }
        spawned
    }
}

impl AgentLookup for ShardedSimulator {
    fn agent_dyn(&self, id: AgentId) -> Result<&dyn Agent, SimError> {
        self.owning_shard(id)?.agent_dyn(id)
    }

    fn now(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use crate::sim::Context;
    use std::any::Any;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// Sends `n` packets to `peer` at start, replies to everything it
    /// receives, and records arrival times.
    struct Chatter {
        peer: AgentId,
        n: u32,
        delay: SimDuration,
        got: Vec<(SimTime, u64)>,
    }

    impl Agent for Chatter {
        fn start(&mut self, ctx: &mut Context<'_>) {
            for seq in 0..self.n as u64 {
                let pkt = Packet::data(FlowId(0), ctx.self_id, self.peer, 500)
                    .with_seq(seq)
                    .with_id(ctx.alloc_packet_id());
                ctx.deliver(self.peer, self.delay, pkt);
            }
        }
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            self.got.push((ctx.now, p.seq));
            if p.kind == crate::packet::PacketKind::Data {
                let ack = Packet::ack_for(&p, 40).with_id(ctx.alloc_packet_id());
                ctx.deliver(ack.dst, self.delay, ack);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pair(n: u32, delay: SimDuration) -> Vec<Box<dyn Agent>> {
        vec![
            Box::new(Chatter { peer: AgentId(1), n, delay, got: vec![] }),
            Box::new(Chatter { peer: AgentId(0), n: 0, delay, got: vec![] }),
        ]
    }

    #[test]
    fn stream_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 42, u64::MAX] {
            seen.insert(seed);
            for i in 0..64 {
                assert!(seen.insert(stream_seed(seed, i)), "collision at seed={seed} i={i}");
            }
        }
    }

    #[test]
    fn components_partition_disconnected_graph() {
        let mut g = TopologyGraph::new(6);
        g.add_link(AgentId(0), AgentId(1), ms(1));
        g.add_link(AgentId(1), AgentId(2), ms(1));
        g.add_link(AgentId(3), AgentId(4), ms(1));
        let p = Partition::components(&g);
        // {0,1,2}, {3,4}, {5}: three components, numbered by smallest id.
        assert_eq!(p.n_shards, 3);
        assert_eq!(p.shard_of, vec![0, 0, 0, 1, 1, 2]);
        assert_eq!(p.lookahead, None);
    }

    #[test]
    fn cut_splits_dumbbell_at_bottleneck() {
        // src0, src1 - R1 ==5ms== R2 - dst0, dst1 (access links 1 ms).
        let mut g = TopologyGraph::new(6);
        let (r1, r2) = (AgentId(0), AgentId(1));
        g.add_link(r1, r2, ms(5));
        g.add_link(AgentId(2), r1, ms(1));
        g.add_link(AgentId(3), r1, ms(1));
        g.add_link(r2, AgentId(4), ms(1));
        g.add_link(r2, AgentId(5), ms(1));
        let p = Partition::auto(&g);
        assert_eq!(p.n_shards, 2);
        assert_eq!(p.lookahead, Some(ms(5)));
        assert_eq!(p.shard_of[r1.0 as usize], p.shard_of[2]);
        assert_eq!(p.shard_of[r2.0 as usize], p.shard_of[4]);
        assert_ne!(p.shard_of[r1.0 as usize], p.shard_of[r2.0 as usize]);
    }

    #[test]
    fn cut_refuses_zero_delay_graphs() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), SimDuration::ZERO);
        let p = Partition::cut(&g);
        assert_eq!(p.n_shards, 1);
    }

    #[test]
    fn single_shard_matches_serial_simulator_exactly() {
        let agents = || pair(5, ms(3));
        let mut serial = Simulator::new(7);
        for a in agents() {
            serial.add_agent(a);
        }
        serial.run_until(SimTime::from_secs_f64(1.0));

        let p = Partition::serial(2);
        let mut sharded = ShardedSimulator::new(7, &p, agents());
        sharded.run_until(SimTime::from_secs_f64(1.0));

        assert_eq!(sharded.n_shards(), 1);
        assert_eq!(sharded.events_processed(), serial.events_processed());
        assert_eq!(
            sharded.agent::<Chatter>(AgentId(1)).got,
            serial.agent::<Chatter>(AgentId(1)).got
        );
        assert_eq!(
            sharded.agent::<Chatter>(AgentId(0)).got,
            serial.agent::<Chatter>(AgentId(0)).got
        );
    }

    #[test]
    fn windowed_execution_is_worker_invariant() {
        // One cut pair: agents 0 and 1 in different shards, 4 ms lookahead.
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        assert_eq!(p.n_shards, 2);
        assert_eq!(p.lookahead, Some(ms(4)));

        let run = |workers: usize| {
            let mut sim = ShardedSimulator::new(11, &p, pair(20, ms(4)));
            sim.set_workers(workers);
            sim.run_until(SimTime::from_secs_f64(2.0));
            (
                sim.agent::<Chatter>(AgentId(0)).got.clone(),
                sim.agent::<Chatter>(AgentId(1)).got.clone(),
                sim.events_processed(),
            )
        };
        let base = run(1);
        assert_eq!(base, run(2));
        assert_eq!(base, run(8));
        // Every data packet arrived and was acked.
        assert_eq!(base.1.len(), 20);
        assert_eq!(base.0.len(), 20);
    }

    #[test]
    fn windowed_execution_moves_cross_events_and_counts_barriers() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        let mut sim = ShardedSimulator::new(3, &p, pair(4, ms(4)));
        sim.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(sim.cross_events(), 8, "4 data + 4 acks cross the cut");
        assert!(sim.barriers() >= 25, "0.1 s / 4 ms lookahead");
        assert_eq!(sim.now(), SimTime::from_secs_f64(0.1));
    }

    #[test]
    fn component_shards_match_serial_per_agent_history() {
        // Two disconnected pairs; serial and component-sharded runs must
        // agree on every per-agent observation (each pair is causally
        // independent, and no agent draws the global RNG).
        let agents = || -> Vec<Box<dyn Agent>> {
            vec![
                Box::new(Chatter { peer: AgentId(1), n: 3, delay: ms(2), got: vec![] }),
                Box::new(Chatter { peer: AgentId(0), n: 0, delay: ms(2), got: vec![] }),
                Box::new(Chatter { peer: AgentId(3), n: 5, delay: ms(7), got: vec![] }),
                Box::new(Chatter { peer: AgentId(2), n: 0, delay: ms(7), got: vec![] }),
            ]
        };
        let mut serial = Simulator::new(9);
        for a in agents() {
            serial.add_agent(a);
        }
        serial.run_until(SimTime::from_secs_f64(1.0));

        let mut g = TopologyGraph::new(4);
        g.add_link(AgentId(0), AgentId(1), ms(2));
        g.add_link(AgentId(2), AgentId(3), ms(7));
        let p = Partition::auto(&g);
        assert_eq!(p.n_shards, 2);
        let mut sharded = ShardedSimulator::new(9, &p, agents());
        sharded.set_workers(2);
        sharded.run_until(SimTime::from_secs_f64(1.0));

        for i in 0..4u32 {
            assert_eq!(
                sharded.agent::<Chatter>(AgentId(i)).got,
                serial.agent::<Chatter>(AgentId(i)).got,
                "agent {i} history differs"
            );
        }
        assert_eq!(sharded.events_processed(), serial.events_processed());
    }

    #[test]
    fn single_worker_windows_spawn_no_threads() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        let mut sim = ShardedSimulator::new(11, &p, pair(5, ms(4)));
        sim.set_workers(1);
        sim.set_fanout_min_events(0);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.threads_spawned(), 0, "one worker must run in-thread");
        assert_eq!(sim.effective_workers(), 1);
    }

    /// Per-agent histories and counters of one run, for comparing dispatch
    /// choices.
    type Outcome = (Vec<Vec<(SimTime, u64)>>, u64, u64, u64);

    fn outcome(sim: &ShardedSimulator, n_agents: u32) -> Outcome {
        (
            (0..n_agents).map(|i| sim.agent::<Chatter>(AgentId(i)).got.clone()).collect(),
            sim.events_processed(),
            sim.barriers(),
            sim.cross_events(),
        )
    }

    #[test]
    fn light_cut_windows_run_in_thread_at_two_workers() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        let run = |workers: usize| {
            let mut sim = ShardedSimulator::new(11, &p, pair(5, ms(4)));
            sim.set_workers(workers);
            sim.run_until(SimTime::from_secs_f64(1.0));
            (outcome(&sim, 2), sim.threads_spawned())
        };
        let (serial, _) = run(1);
        let (pooled, spawned) = run(2);
        assert_eq!(spawned, 0, "a handful of events per window never pays for the pool");
        assert_eq!(serial, pooled);
        assert_eq!(serial.0[1].len(), 5);
    }

    #[test]
    fn heavy_component_windows_use_the_pool() {
        // Four independent pairs, each chattering 3000 packets: every
        // window is far above the cost-model threshold.
        let mut g = TopologyGraph::new(8);
        for i in 0..4u32 {
            g.add_link(AgentId(i * 2), AgentId(i * 2 + 1), ms(3));
        }
        let p = Partition::components(&g);
        assert_eq!(p.n_shards, 4);
        let agents = || -> Vec<Box<dyn Agent>> {
            (0..4u32)
                .flat_map(|i| -> [Box<dyn Agent>; 2] {
                    [
                        Box::new(Chatter {
                            peer: AgentId(i * 2 + 1),
                            n: 3000,
                            delay: ms(3),
                            got: vec![],
                        }),
                        Box::new(Chatter { peer: AgentId(i * 2), n: 0, delay: ms(3), got: vec![] }),
                    ]
                })
                .collect()
        };
        let calls = 4;
        let run = |workers: usize| {
            let mut sim = ShardedSimulator::new(5, &p, agents());
            sim.set_workers(workers);
            for c in 1..=calls {
                sim.run_until(SimTime::from_secs_f64(0.25 * c as f64));
            }
            (outcome(&sim, 8), sim.threads_spawned())
        };
        let (serial, none) = run(1);
        assert_eq!(none, 0);
        for workers in [2, 3] {
            let (pooled, spawned) = run(workers);
            assert!(spawned > 0, "workers={workers}: heavy windows must use the pool");
            assert!(
                spawned <= (workers * calls) as u64,
                "workers={workers}: {spawned} threads for {calls} calls"
            );
            assert_eq!(serial, pooled, "workers={workers}");
        }
        assert_eq!(serial.0[1].len(), 3000);
    }

    /// Panics on its first packet.
    struct Bomb;

    impl Agent for Bomb {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {
            panic!("shard bug");
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_panic_on_a_pool_thread_propagates_instead_of_hanging() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        let agents: Vec<Box<dyn Agent>> = vec![pair(1, ms(4)).remove(0), Box::new(Bomb)];
        let mut sim = ShardedSimulator::new(1, &p, agents);
        sim.set_workers(2);
        sim.set_fanout_min_events(0);
        let run = std::panic::AssertUnwindSafe(|| sim.run_until(SimTime::from_secs_f64(1.0)));
        assert!(std::panic::catch_unwind(run).is_err());
    }

    #[test]
    fn faults_route_to_owning_shards() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        let mut sim = ShardedSimulator::new(3, &p, pair(2, ms(4)));
        let mut faults = FaultSchedule::new();
        faults.control_fault_window(
            crate::faults::ControlFaultPolicy::drop_fraction(1.0),
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
        );
        sim.try_install_faults(&faults).expect("valid schedule");
        sim.run_until(SimTime::from_secs_f64(2.0));
        // Data still arrives at 1, but every ACK back to 0 is dropped by
        // shard 0's control policy.
        assert_eq!(sim.agent::<Chatter>(AgentId(1)).got.len(), 2);
        assert_eq!(sim.agent::<Chatter>(AgentId(0)).got.len(), 0);
    }
}
