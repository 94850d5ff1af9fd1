//! Lockstep tracker groups: one simulation driving several mechanisms.
//!
//! Cells that share a workload placement (and a runner) simulate the same
//! cores over the same DRAM, so until a mechanism first *acts* their runs
//! are the same command stream. A lockstep group simulates that stream once:
//! every channel's controller is handed a `LockstepMitigation` that
//! forwards each call to every live member tracker and compares what each
//! member returns against the *leader* (the first member) at the moment the
//! controller reads it. The controller observes a tracker only through three
//! outputs (see [`RowHammerMitigation`]):
//!
//! * the [`on_activation`](RowHammerMitigation::on_activation) response,
//! * [`act_latency_penalty`](RowHammerMitigation::act_latency_penalty), and
//! * [`next_tick_deadline`](RowHammerMitigation::next_tick_deadline),
//!   compared clamped to the run's last cycle (every bound at or past the end
//!   of the run ends it the same way).
//!
//! The controller acts on the leader's answers, so the shared run *is* the
//! leader's solo run; a member that gives the same answer at every read
//! would have driven its solo run through exactly the same controller
//! decisions, which makes the shared run its solo run too — bit-exact by
//! construction, not by comparison of results. A member that disagrees is
//! evicted on the spot (its tracker dropped) and reported as
//! [`Evicted`](LockstepOutcome::Evicted); the caller reruns it from scratch,
//! as a lockstep group of the evicted members
//! ([`run_grouped`](crate::experiments::run_grouped)).
//!
//! Each surviving member gets the shared [`RunResult`] with its own name, its
//! own [`MitigationStats`] warmup delta and its own structure gauges.

use crate::metrics::{EngineTelemetry, RunResult};
use crate::runner::RunnerError;
use crate::system::{LoopMode, SimConfig, System};
use comet_dram::{Cycle, DramAddr};
use comet_mitigations::{MitigationFactory, MitigationResponse, MitigationStats, RowHammerMitigation};
use comet_trace::TraceSource;
use std::cell::RefCell;

/// Which controller-observable output a member disagreed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionReason {
    /// A different [`MitigationResponse`] to an activation.
    Response,
    /// A different activation latency penalty.
    Penalty,
    /// A different next tick deadline (before the end of the run).
    Deadline,
}

impl EvictionReason {
    /// Every reason, in a stable order.
    pub const ALL: [EvictionReason; 3] =
        [EvictionReason::Response, EvictionReason::Penalty, EvictionReason::Deadline];

    /// Stable short name (the telemetry label value).
    pub fn name(&self) -> &'static str {
        match self {
            EvictionReason::Response => "response",
            EvictionReason::Penalty => "penalty",
            EvictionReason::Deadline => "deadline",
        }
    }
}

/// One member's outcome of a lockstep group run.
#[derive(Debug, Clone)]
pub enum LockstepOutcome {
    /// The member's result — bit-identical to its solo run.
    Completed(Box<RunResult>),
    /// The member could not be built or run (the error its solo run returns).
    Failed(RunnerError),
    /// The member disagreed with its group's leader; rerun it.
    Evicted(EvictionReason),
}

/// One tracker's structure gauges (`RowHammerMitigation::telemetry_gauges`).
type Gauges = Vec<(&'static str, f64)>;

struct Member {
    id: usize,
    tracker: Box<dyn RowHammerMitigation>,
}

struct GroupState {
    /// Live members in member order; `live[0]` is the leader, whose answers
    /// the controller acts on (it never disagrees with itself, so it is never
    /// evicted).
    live: Vec<Member>,
    evicted: Vec<(usize, EvictionReason)>,
}

impl GroupState {
    /// Asks every follower `agrees`; evicts (and drops) those answering no.
    fn retain_agreeing(
        &mut self,
        reason: EvictionReason,
        mut agrees: impl FnMut(&mut dyn RowHammerMitigation) -> bool,
    ) {
        let mut index = 1;
        while index < self.live.len() {
            if agrees(self.live[index].tracker.as_mut()) {
                index += 1;
            } else {
                let member = self.live.remove(index);
                self.evicted.push((member.id, reason));
            }
        }
    }
}

/// The per-channel mechanism of a lockstep group (see the module docs).
///
/// The read-only trait queries evict too, so the member set sits behind a
/// `RefCell`; the simulation loop is single-threaded, and nothing here is
/// shared across channels.
pub(crate) struct LockstepMitigation {
    leader_name: String,
    members: usize,
    /// The run's last cycle (`SimConfig::total_cycles`): deadlines at or past
    /// it are equivalent.
    end: Cycle,
    state: RefCell<GroupState>,
}

impl LockstepMitigation {
    fn new(trackers: Vec<Box<dyn RowHammerMitigation>>, end: Cycle) -> Self {
        assert!(!trackers.is_empty(), "a lockstep group needs a leader");
        let leader_name = trackers[0].name().to_string();
        let members = trackers.len();
        let live = trackers.into_iter().enumerate().map(|(id, tracker)| Member { id, tracker }).collect();
        LockstepMitigation {
            leader_name,
            members,
            end,
            state: RefCell::new(GroupState { live, evicted: Vec::new() }),
        }
    }

    fn duplicate(&self) -> Self {
        let state = self.state.borrow();
        LockstepMitigation {
            leader_name: self.leader_name.clone(),
            members: self.members,
            end: self.end,
            state: RefCell::new(GroupState {
                live: state
                    .live
                    .iter()
                    .map(|m| Member { id: m.id, tracker: m.tracker.checkpoint() })
                    .collect(),
                evicted: state.evicted.clone(),
            }),
        }
    }

    /// Applies `f` to every live member, indexed by member id (`None` for
    /// evicted members).
    fn per_member<T>(&self, f: impl Fn(&dyn RowHammerMitigation) -> T) -> Vec<Option<T>> {
        let mut out: Vec<Option<T>> = (0..self.members).map(|_| None).collect();
        for member in &self.state.borrow().live {
            out[member.id] = Some(f(member.tracker.as_ref()));
        }
        out
    }

    fn evictions(&self) -> Vec<(usize, EvictionReason)> {
        self.state.borrow().evicted.clone()
    }
}

impl RowHammerMitigation for LockstepMitigation {
    fn name(&self) -> &str {
        &self.leader_name
    }

    fn on_activation(&mut self, addr: &DramAddr, now: Cycle, weight: u64) -> MitigationResponse {
        let state = self.state.get_mut();
        let response = state.live[0].tracker.on_activation(addr, now, weight);
        state.retain_agreeing(EvictionReason::Response, |t| t.on_activation(addr, now, weight) == response);
        response
    }

    fn on_periodic_refresh(&mut self, rank: usize, now: Cycle) {
        for member in &mut self.state.get_mut().live {
            member.tracker.on_periodic_refresh(rank, now);
        }
    }

    fn on_tick(&mut self, now: Cycle) {
        for member in &mut self.state.get_mut().live {
            member.tracker.on_tick(now);
        }
    }

    fn next_tick_deadline(&self) -> Cycle {
        let mut state = self.state.borrow_mut();
        let deadline = state.live[0].tracker.next_tick_deadline();
        let clamped = deadline.min(self.end);
        state.retain_agreeing(EvictionReason::Deadline, |t| t.next_tick_deadline().min(self.end) == clamped);
        deadline
    }

    fn on_rank_refreshed(&mut self, rank: usize, now: Cycle) {
        for member in &mut self.state.get_mut().live {
            member.tracker.on_rank_refreshed(rank, now);
        }
    }

    fn act_latency_penalty(&self) -> Cycle {
        let mut state = self.state.borrow_mut();
        let penalty = state.live[0].tracker.act_latency_penalty();
        state.retain_agreeing(EvictionReason::Penalty, |t| t.act_latency_penalty() == penalty);
        penalty
    }

    fn stats(&self) -> MitigationStats {
        self.state.borrow().live[0].tracker.stats()
    }

    fn reset_stats(&mut self) {
        for member in &mut self.state.get_mut().live {
            member.tracker.reset_stats();
        }
    }

    fn storage_bits(&self) -> u64 {
        self.state.borrow().live[0].tracker.storage_bits()
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        self.state.borrow().live[0].tracker.telemetry_gauges()
    }

    // `quiescent_activations` keeps the opt-out default: lockstep groups run
    // on the serial loop, which never defers activations.

    fn checkpoint(&self) -> Box<dyn RowHammerMitigation> {
        Box::new(self.duplicate())
    }

    fn restore(&mut self, checkpoint: &dyn RowHammerMitigation) {
        let snapshot = checkpoint
            .as_any()
            .downcast_ref::<LockstepMitigation>()
            .expect("checkpoint is not a lockstep group");
        *self = snapshot.duplicate();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Builds one [`LockstepMitigation`] per channel from the member factories.
struct LockstepFactory<'a> {
    members: &'a [&'a dyn MitigationFactory],
    end: Cycle,
}

impl MitigationFactory for LockstepFactory<'_> {
    fn name(&self) -> &str {
        self.members[0].name()
    }

    fn build(&self, channel: usize) -> Box<dyn RowHammerMitigation> {
        let trackers = self.members.iter().map(|factory| factory.build(channel)).collect();
        Box::new(LockstepMitigation::new(trackers, self.end))
    }
}

/// Per-member mitigation statistics of a lockstep system, summed over
/// channels and indexed by member id (`None` once a member was evicted on
/// any channel). Empty when `system` does not run a lockstep group.
pub(crate) fn member_stats(system: &System) -> Vec<Option<MitigationStats>> {
    let groups = groups(system);
    let Some(first) = groups.first() else { return Vec::new() };
    let mut totals: Vec<Option<MitigationStats>> = vec![Some(MitigationStats::default()); first.members];
    for group in &groups {
        for (total, stats) in totals.iter_mut().zip(group.per_member(|t| t.stats())) {
            *total = match (total.take(), stats) {
                (Some(total), Some(stats)) => Some(total.merged(&stats)),
                _ => None,
            };
        }
    }
    totals
}

/// The lockstep mechanism of every channel shard (empty for a plain system).
fn groups(system: &System) -> Vec<&LockstepMitigation> {
    let memory = system.memory();
    (0..memory.channels())
        .filter_map(|channel| {
            memory.shard(channel).mitigation().as_any().downcast_ref::<LockstepMitigation>()
        })
        .collect()
}

/// Simulates `traces` once with one lockstep group per channel —
/// `members[0]` leads — on the serial event-driven loop, and returns one
/// outcome per member, in member order (never `Failed`; the leader always
/// completes). Publishes every completed member's run telemetry and the
/// group's `comet_sim_lockstep_*` counters. Same preconditions as
/// [`System::new`].
pub(crate) fn run_group(
    config: SimConfig,
    traces: Vec<Box<dyn TraceSource>>,
    members: &[&dyn MitigationFactory],
    label: String,
) -> Vec<LockstepOutcome> {
    let _span = comet_telemetry::span("sim.run");
    let end = config.total_cycles();
    let mut system = System::new(config, traces, &LockstepFactory { members, end });
    let warm = system.simulate(LoopMode::EventDriven);
    let base = system.measure(label, &warm, EngineTelemetry::default());
    let groups = groups(&system);

    // A member evicted on any channel is evicted from the group, with the
    // reason of the lowest channel that evicted it.
    let mut evicted: Vec<Option<EvictionReason>> = vec![None; members.len()];
    for group in &groups {
        for (id, reason) in group.evictions() {
            evicted[id].get_or_insert(reason);
        }
    }
    let names = groups[0].per_member(|t| t.name().to_string());
    let gauges: Vec<Vec<Option<Gauges>>> =
        groups.iter().map(|group| group.per_member(|t| t.telemetry_gauges())).collect();
    let stats_now = member_stats(&system);

    let outcomes: Vec<LockstepOutcome> = (0..members.len())
        .map(|id| {
            if let Some(reason) = evicted[id] {
                return LockstepOutcome::Evicted(reason);
            }
            let (Some(name), Some(now), Some(Some(at_warmup))) =
                (&names[id], &stats_now[id], warm.members.get(id))
            else {
                unreachable!("a member live on every channel has a name and stats");
            };
            let mut result = base.clone();
            result.mechanism = name.clone();
            result.mitigation = now.delta_since(at_warmup);
            result.engine.tracker_gauges =
                gauges.iter().map(|channel| channel[id].clone().unwrap_or_default()).collect();
            crate::telemetry::publish_run(&result, comet_telemetry::global());
            LockstepOutcome::Completed(Box::new(result))
        })
        .collect();
    let reasons: Vec<EvictionReason> = evicted.iter().flatten().copied().collect();
    crate::telemetry::publish_lockstep(members.len(), &reasons, comet_telemetry::global());
    outcomes
}
