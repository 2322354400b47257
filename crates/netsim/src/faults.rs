//! Deterministic fault injection: scripted link failures, bandwidth
//! degradation, control-plane packet loss, and router queue flushes.
//!
//! A [`FaultSchedule`] is a list of `(time, target, action)` triples. It is
//! installed into a [`crate::sim::Simulator`] *before or during* a run;
//! each entry becomes an [`crate::event::Event::Fault`] in the ordinary
//! event queue, so faults interleave with traffic in the same deterministic
//! `(time, seq)` order as every other event. A run with a fault schedule
//! is still a pure function of (topology, seed, schedule).
//!
//! Two kinds of action exist:
//!
//! * **Agent-targeted** ([`FaultAction::LinkDown`], [`FaultAction::LinkUp`],
//!   [`FaultAction::DegradeLink`], [`FaultAction::FlushQueues`]) — dispatched
//!   to the target agent's [`crate::sim::Agent::on_fault`] hook, which
//!   manipulates its own ports ([`apply_port_fault`] does the heavy lifting
//!   for any port-owning agent).
//! * **Simulator-global** ([`FaultAction::SetControlPolicy`],
//!   [`FaultAction::ClearControlPolicy`]) — absorbed by the simulator
//!   itself: while a [`ControlFaultPolicy`] is active, arriving *control*
//!   packets (ACK/NACK kinds) are dropped, duplicated, or delayed
//!   (reordered) using the simulation RNG.
//!
//! Link-down semantics: a downed port stops serializing; offered packets
//! still pass through the queue discipline (and may be tail-dropped there),
//! so nothing leaks from the conservation accounting. On link-up the port
//! resumes draining its backlog. A queue flush counts every discarded packet
//! in the port's drop statistics for the same reason.

use crate::packet::AgentId;
use crate::port::Port;
use crate::sim::Context;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Target id used for simulator-global fault actions; never dispatched to an
/// agent, so any value works — this one makes intent obvious in schedules.
pub const GLOBAL: AgentId = AgentId(u32::MAX);

/// Probabilistic mangling applied to arriving control packets (ACK/NACK)
/// while the policy is installed.
///
/// Each arriving control packet draws one uniform sample; the `drop`,
/// `duplicate`, and `reorder` fractions partition `[0, 1)` cumulatively,
/// so their sum must be at most 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlFaultPolicy {
    /// Fraction of control packets silently discarded.
    pub drop: f64,
    /// Fraction delivered twice (the copy arrives `reorder_delay` later).
    pub duplicate: f64,
    /// Fraction delayed by `reorder_delay`, letting later packets overtake.
    pub reorder: f64,
    /// Extra delay applied to duplicated and reordered control packets.
    pub reorder_delay: SimDuration,
}

impl ControlFaultPolicy {
    /// A policy that only drops control packets.
    pub fn drop_fraction(drop: f64) -> Self {
        ControlFaultPolicy {
            drop,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_delay: SimDuration::from_millis(10),
        }
    }

    /// Validates the fractions: each in `[0, 1]`, sum at most 1.
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        let ok_frac = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
        if !(ok_frac(self.drop) && ok_frac(self.duplicate) && ok_frac(self.reorder)) {
            return Err(crate::error::invalid_config("control fault fractions must be in [0,1]"));
        }
        if self.drop + self.duplicate + self.reorder > 1.0 + 1e-12 {
            return Err(crate::error::invalid_config(
                "control fault fractions must sum to at most 1",
            ));
        }
        Ok(())
    }
}

/// One fault, applied at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Cut a link: the port stops serializing (its queue keeps filling).
    LinkDown {
        /// Port index within the target agent.
        port: usize,
    },
    /// Restore a link; the port resumes draining its backlog.
    LinkUp {
        /// Port index within the target agent.
        port: usize,
    },
    /// Scale a link's *nominal* rate by `factor` (1.0 restores it).
    DegradeLink {
        /// Port index within the target agent.
        port: usize,
        /// Multiplier applied to the rate the port was built with.
        factor: f64,
    },
    /// Discard every queued packet on all of the agent's ports (a router
    /// reboot). Flushed packets count as drops in port statistics.
    FlushQueues,
    /// Install a simulator-global control-packet mangling policy.
    SetControlPolicy(ControlFaultPolicy),
    /// Remove the control-packet policy.
    ClearControlPolicy,
}

/// A `(time, target, action)` triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// The agent whose ports it manipulates ([`GLOBAL`] for policy actions).
    pub agent: AgentId,
    /// What happens.
    pub action: FaultAction,
}

/// An ordered script of faults. Build one with the fluent helpers, then
/// install it with [`crate::sim::Simulator::install_faults`].
///
/// # Examples
///
/// ```
/// use pels_netsim::faults::FaultSchedule;
/// use pels_netsim::packet::AgentId;
/// use pels_netsim::time::SimTime;
///
/// let mut faults = FaultSchedule::new();
/// faults.link_outage(
///     AgentId(0),
///     0,
///     SimTime::from_secs_f64(5.0),
///     SimTime::from_secs_f64(7.0),
/// );
/// assert_eq!(faults.len(), 2); // down + up
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one fault.
    pub fn push(&mut self, at: SimTime, agent: AgentId, action: FaultAction) -> &mut Self {
        self.events.push(FaultEvent { at, agent, action });
        self
    }

    /// Cut `agent`'s port `port` at `from` and restore it at `to`.
    pub fn link_outage(
        &mut self,
        agent: AgentId,
        port: usize,
        from: SimTime,
        to: SimTime,
    ) -> &mut Self {
        assert!(from < to, "outage must end after it starts");
        self.push(from, agent, FaultAction::LinkDown { port });
        self.push(to, agent, FaultAction::LinkUp { port })
    }

    /// Degrade `agent`'s port `port` to `factor` of nominal rate during
    /// `[from, to)`, restoring full rate at `to`.
    pub fn degraded_window(
        &mut self,
        agent: AgentId,
        port: usize,
        factor: f64,
        from: SimTime,
        to: SimTime,
    ) -> &mut Self {
        assert!(from < to, "degradation window must end after it starts");
        self.push(from, agent, FaultAction::DegradeLink { port, factor });
        self.push(to, agent, FaultAction::DegradeLink { port, factor: 1.0 })
    }

    /// Mangle control packets per `policy` during `[from, to)`.
    pub fn control_fault_window(
        &mut self,
        policy: ControlFaultPolicy,
        from: SimTime,
        to: SimTime,
    ) -> &mut Self {
        assert!(from < to, "control fault window must end after it starts");
        self.push(from, GLOBAL, FaultAction::SetControlPolicy(policy));
        self.push(to, GLOBAL, FaultAction::ClearControlPolicy)
    }

    /// Reboot `agent` (flush every queue) at `at`.
    pub fn flush_at(&mut self, agent: AgentId, at: SimTime) -> &mut Self {
        self.push(at, agent, FaultAction::FlushQueues)
    }

    /// Generates `flaps` random link outages of `agent`'s port `port` inside
    /// `window`, each lasting up to `max_outage`, using `rng`. Deterministic
    /// for a given RNG state, so property tests can derive arbitrary but
    /// reproducible schedules from the simulation seed.
    pub fn random_link_flaps(
        rng: &mut StdRng,
        agent: AgentId,
        port: usize,
        window: (SimTime, SimTime),
        flaps: usize,
        max_outage: SimDuration,
    ) -> Self {
        assert!(window.0 < window.1, "flap window must be non-empty");
        assert!(!max_outage.is_zero(), "max outage must be positive");
        let span_ns = window.1.duration_since(window.0).as_secs_f64() * 1e9;
        let mut s = FaultSchedule::new();
        for _ in 0..flaps {
            let start_off: f64 = rng.gen::<f64>() * span_ns;
            let len_ns: f64 = rng.gen::<f64>() * (max_outage.as_secs_f64() * 1e9);
            let from = window.0 + SimDuration::from_nanos(start_off as u64);
            let to = from + SimDuration::from_nanos((len_ns as u64).max(1));
            s.link_outage(agent, port, from, to);
        }
        s
    }

    /// The scripted faults, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Counters kept by the simulator for control-plane faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events dispatched (agent-targeted and global).
    pub faults_applied: u64,
    /// Control packets discarded by the active policy.
    pub control_dropped: u64,
    /// Control packets duplicated by the active policy.
    pub control_duplicated: u64,
    /// Control packets delayed (reordered) by the active policy.
    pub control_reordered: u64,
}

/// Applies an agent-targeted fault to a slice of ports. Any port-owning
/// agent can implement [`crate::sim::Agent::on_fault`] with a one-line call
/// to this. Global policy actions are no-ops here (the simulator absorbs
/// them before dispatch).
pub fn apply_port_fault(ports: &mut [Port], action: &FaultAction, ctx: &mut Context<'_>) {
    match *action {
        FaultAction::LinkDown { port } => {
            if let Some(p) = ports.get_mut(port) {
                p.set_link_up(false, ctx);
            }
        }
        FaultAction::LinkUp { port } => {
            if let Some(p) = ports.get_mut(port) {
                p.set_link_up(true, ctx);
                p.restart(ctx);
            }
        }
        FaultAction::DegradeLink { port, factor } => {
            if let Some(p) = ports.get_mut(port) {
                p.set_rate_factor(factor);
            }
        }
        FaultAction::FlushQueues => {
            for p in ports.iter_mut() {
                p.flush(ctx);
            }
        }
        FaultAction::SetControlPolicy(_) | FaultAction::ClearControlPolicy => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn schedule_builders_order_and_count() {
        let mut s = FaultSchedule::new();
        s.link_outage(AgentId(1), 0, SimTime::from_nanos(10), SimTime::from_nanos(20))
            .flush_at(AgentId(2), SimTime::from_nanos(15))
            .control_fault_window(
                ControlFaultPolicy::drop_fraction(0.5),
                SimTime::from_nanos(5),
                SimTime::from_nanos(25),
            );
        assert_eq!(s.len(), 5);
        assert!(matches!(s.events()[0].action, FaultAction::LinkDown { port: 0 }));
        assert_eq!(s.events()[2].agent, AgentId(2));
        assert_eq!(s.events()[3].agent, GLOBAL);
    }

    #[test]
    fn random_flaps_are_deterministic_per_seed() {
        let window = (SimTime::ZERO, SimTime::from_secs_f64(10.0));
        let mk = || {
            let mut rng = StdRng::seed_from_u64(7);
            FaultSchedule::random_link_flaps(
                &mut rng,
                AgentId(0),
                0,
                window,
                4,
                SimDuration::from_millis(500),
            )
        };
        assert_eq!(mk(), mk());
        assert_eq!(mk().len(), 8);
    }

    #[test]
    fn policy_validation() {
        assert!(ControlFaultPolicy::drop_fraction(0.3).validate().is_ok());
        assert!(ControlFaultPolicy::drop_fraction(1.5).validate().is_err());
        let p = ControlFaultPolicy {
            drop: 0.6,
            duplicate: 0.3,
            reorder: 0.3,
            reorder_delay: SimDuration::from_millis(1),
        };
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "outage must end after it starts")]
    fn rejects_inverted_outage() {
        FaultSchedule::new().link_outage(
            AgentId(0),
            0,
            SimTime::from_nanos(20),
            SimTime::from_nanos(10),
        );
    }
}
