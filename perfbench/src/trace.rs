//! In-memory spans recorded by the benchmark around calls into each layer.
//!
//! Spans nest on one thread's stack. Every closed span adds to its name's
//! aggregate (count, total time, self time), so the per-layer numbers
//! cover the whole run; the first [`Tracer::KEEP`] spans are also kept
//! whole and written out when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. `parent` is `0` for a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within its tracer, starting at 1.
    pub id: u64,
    /// Id of the enclosing span, or 0.
    pub parent: u64,
    /// Layer boundary the span measures.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Aggregate of every closed span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Records spans for one thread. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<Open>,
    stats: BTreeMap<&'static str, SpanStat>,
    kept: Vec<Span>,
    next_id: u64,
}

impl Tracer {
    /// Spans kept whole per tracer; later spans only feed the aggregates.
    pub const KEEP: usize = 20_000;

    /// A recording tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            enabled: true,
            origin,
            open: Vec::new(),
            stats: BTreeMap::new(),
            kept: Vec::new(),
            next_id: 1,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Self::new(Instant::now()) }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` now.
    pub fn begin(&mut self, name: &'static str) {
        if self.enabled {
            let t = self.now_ns();
            self.begin_at(name, t);
        }
    }

    /// Closes the innermost open span now and returns its duration.
    pub fn end(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let t = self.now_ns();
        self.end_at(t)
    }

    /// Opens a span at an explicit time.
    pub fn begin_at(&mut self, name: &'static str, t_ns: u64) {
        let parent = self.open.last().map_or(0, |o| o.id);
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open { id, parent, name, start_ns: t_ns, child_ns: 0 });
    }

    /// Closes the innermost open span at an explicit time and returns its
    /// duration.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: begin/end calls must pair.
    pub fn end_at(&mut self, t_ns: u64) -> u64 {
        let o = self.open.pop().expect("end_at without a matching begin_at");
        let dur = t_ns.saturating_sub(o.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let s = self.stats.entry(o.name).or_default();
        s.count += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(o.child_ns);
        if self.kept.len() < Self::KEEP {
            self.kept.push(Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                start_ns: o.start_ns,
                end_ns: t_ns,
            });
        }
        dur
    }

    /// Aggregate for `name` (zero when no such span closed).
    pub fn stat(&self, name: &str) -> SpanStat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// Every aggregate, by name.
    pub fn stats(&self) -> &BTreeMap<&'static str, SpanStat> {
        &self.stats
    }

    /// The spans kept whole, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }

    /// Appends the kept spans and the aggregates as JSON lines tagged with
    /// `thread`.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, thread: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.kept {
            writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, s) in &self.stats {
            writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"aggregate\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                s.count, s.total_ns, s.self_ns
            )?;
        }
        Ok(())
    }
}
