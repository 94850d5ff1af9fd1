//! Publishes one run's engine and tracker telemetry into a metrics registry.
//!
//! Publication happens once per completed run, from `System::assemble` into
//! [`comet_telemetry::global`] — the simulated path itself carries no
//! registry handles and touches no atomics. Counter families accumulate
//! across runs (a sweep's scrape shows fleet-wide totals); gauge families
//! hold the most recent run's snapshot for their label set.
//!
//! Lockstep tracker groups publish each completed member as its own run
//! (so `comet_engine_runs_total` counts results, as a solo run of every cell
//! would) plus the group's `comet_sim_lockstep_*` counters.
//!
//! All names are prefixed `comet_engine_` / `comet_tracker_` /
//! `comet_sim_`, disjoint from
//! the `service_` / `fleet_` / `worker_` families the experiment service
//! keeps in its own registry, so rendering both into one scrape body can
//! never collide.

use crate::lockstep::EvictionReason;
use crate::metrics::{RunResult, SPEC_DEPTH_BOUNDS, WINDOW_CYCLES_BOUNDS};
use comet_telemetry::Registry;

/// Publishes `result`'s telemetry into `registry`. Tracker counters are
/// labeled by mechanism; per-channel structure gauges by mechanism and
/// channel.
pub fn publish_run(result: &RunResult, registry: &Registry) {
    let mech = result.mechanism.as_str();
    let by_mech = [("mech", mech)];

    registry.counter_with("comet_engine_runs_total", "Simulation runs completed.", &by_mech).inc();
    registry
        .counter_with(
            "comet_engine_dram_cycles_total",
            "Measured (post-warmup) DRAM cycles simulated.",
            &by_mech,
        )
        .add(result.dram_cycles);
    registry
        .counter_with("comet_engine_activations_total", "Row activations issued to DRAM.", &by_mech)
        .add(result.activations);

    // The windowed loop's tallies fold into one histogram publish; the
    // serial loop reports no windows and skips the family entirely.
    let engine = &result.engine;
    if engine.windows > 0 {
        registry
            .histogram(
                "comet_engine_window_cycles",
                "Length in DRAM cycles of each core-visible event window of the sharded loop.",
                &WINDOW_CYCLES_BOUNDS,
            )
            .add_counts(&engine.window_bucket_counts, engine.window_cycles_sum as f64, engine.windows);
        registry
            .gauge_with(
                "comet_engine_window_cycles_max",
                "Longest window of the most recent sharded run.",
                &by_mech,
            )
            .set(engine.window_cycles_max as f64);
    }

    // Optimistic-engine tallies — folded from plain locals at run end, like
    // the window histogram; absent entirely unless speculation ran.
    if engine.speculation_regions > 0 {
        registry
            .counter_with(
                "comet_engine_speculation_commits_total",
                "Shard speculations committed (validated at the region barrier).",
                &by_mech,
            )
            .add(engine.speculation_commits);
        registry
            .counter_with(
                "comet_engine_speculation_rollbacks_total",
                "Shard speculations rolled back and replayed conservatively.",
                &by_mech,
            )
            .add(engine.speculation_rollbacks);
        registry
            .histogram(
                "comet_engine_speculation_depth",
                "Barrier windows covered by each speculative region.",
                &SPEC_DEPTH_BOUNDS,
            )
            .add_counts(
                &engine.speculation_depth_bucket_counts,
                engine.speculation_depth_sum as f64,
                engine.speculation_regions,
            );
    }

    for (channel, pressure) in engine.scheduler.iter().enumerate() {
        let channel_label = channel.to_string();
        let labels = [("channel", channel_label.as_str())];
        registry
            .counter_with(
                "comet_engine_demand_ticks_total",
                "Demand-scheduling arbitration ticks performed.",
                &labels,
            )
            .add(pressure.demand_ticks);
        registry
            .counter_with(
                "comet_engine_ready_lanes_total",
                "Matured-candidate evaluations summed over all demand ticks.",
                &labels,
            )
            .add(pressure.ready_lanes_sum);
        registry
            .gauge_with(
                "comet_engine_ready_lanes_max",
                "Most matured-candidate evaluations in one demand tick (last run).",
                &labels,
            )
            .set(pressure.ready_lanes_max as f64);
        registry
            .gauge_with(
                "comet_engine_pending_lanes_max",
                "Largest number of banks with queued demand at one time (last run).",
                &labels,
            )
            .set(pressure.pending_lanes_max as f64);
    }
    for (channel, &peak) in engine.bank_depth_peak.iter().enumerate() {
        let channel_label = channel.to_string();
        registry
            .gauge_with(
                "comet_engine_bank_depth_peak",
                "Highest combined per-bank queue occupancy reached (last run).",
                &[("channel", channel_label.as_str())],
            )
            .set(peak as f64);
    }

    // Tracker counters come from the run's MitigationStats — the same struct
    // the serialized result reports, so the scrape can never disagree with a
    // saved result. Zero-valued families still register (the catalog is
    // stable), which costs nothing on the hot path.
    for (name, value) in result.mitigation.named_counts() {
        registry
            .counter_with(
                &format!("comet_tracker_{name}_total"),
                "Mitigation counter accumulated across completed runs.",
                &by_mech,
            )
            .add(value);
    }
    for (channel, gauges) in engine.tracker_gauges.iter().enumerate() {
        let channel_label = channel.to_string();
        for &(name, value) in gauges {
            registry
                .gauge_with(
                    &format!("comet_tracker_{name}"),
                    "Mechanism structure gauge at run end.",
                    &[("channel", channel_label.as_str()), ("mech", mech)],
                )
                .set(value);
        }
    }
}

/// Runs, members and evictions of lockstep tracker groups, as published by
/// [`publish_lockstep`]. Cells simulated through lockstep groups are
/// `members - evictions` (every evicted member reruns in a later run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockstepTotals {
    /// Shared simulations run (one per group, single-member groups included).
    pub runs: u64,
    /// Members that entered a group run.
    pub members: u64,
    /// Members evicted from a group run (and rerun later).
    pub evictions: u64,
}

const LOCKSTEP_RUNS: (&str, &str) =
    ("comet_sim_lockstep_runs_total", "Lockstep group simulations run (single-member groups included).");
const LOCKSTEP_MEMBERS: (&str, &str) =
    ("comet_sim_lockstep_members_total", "Cells that entered a lockstep group simulation.");
const LOCKSTEP_EVICTIONS: (&str, &str) = (
    "comet_sim_lockstep_evictions_total",
    "Lockstep members evicted for disagreeing with their leader, by the output they disagreed on.",
);

/// Publishes one lockstep group run: `members` cells shared it and the
/// members that disagreed with the leader were evicted for `evictions`.
/// Called once per run, at run end.
pub fn publish_lockstep(members: usize, evictions: &[EvictionReason], registry: &Registry) {
    registry.counter(LOCKSTEP_RUNS.0, LOCKSTEP_RUNS.1).inc();
    registry.counter(LOCKSTEP_MEMBERS.0, LOCKSTEP_MEMBERS.1).add(members as u64);
    for reason in EvictionReason::ALL {
        let count = evictions.iter().filter(|&&r| r == reason).count() as u64;
        registry
            .counter_with(LOCKSTEP_EVICTIONS.0, LOCKSTEP_EVICTIONS.1, &[("reason", reason.name())])
            .add(count);
    }
}

/// Reads the lockstep counters back out of `registry`.
pub fn lockstep_totals(registry: &Registry) -> LockstepTotals {
    LockstepTotals {
        runs: registry.counter(LOCKSTEP_RUNS.0, LOCKSTEP_RUNS.1).get(),
        members: registry.counter(LOCKSTEP_MEMBERS.0, LOCKSTEP_MEMBERS.1).get(),
        evictions: EvictionReason::ALL
            .iter()
            .map(|reason| {
                registry
                    .counter_with(LOCKSTEP_EVICTIONS.0, LOCKSTEP_EVICTIONS.1, &[("reason", reason.name())])
                    .get()
            })
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::MechanismKind;
    use crate::system::SimConfig;
    use crate::Runner;

    #[test]
    fn a_seeded_run_publishes_engine_and_tracker_families() {
        let registry = Registry::new();
        let runner = Runner::new(SimConfig::quick_test());
        let result = runner.run_single_core("429.mcf", MechanismKind::Comet, 1000).unwrap();
        publish_run(&result, &registry);
        let text = registry.render();
        assert!(text.contains("comet_engine_runs_total{mech=\"CoMeT\"} 1"), "scrape:\n{text}");
        assert!(text.contains("comet_tracker_activations_observed_total{mech=\"CoMeT\"}"));
        assert!(text.contains("comet_tracker_cms_saturation{channel=\"0\",mech=\"CoMeT\"}"));
        assert!(text.contains("comet_engine_demand_ticks_total{channel=\"0\"}"));

        // Counters accumulate across runs.
        publish_run(&result, &registry);
        assert!(registry.render().contains("comet_engine_runs_total{mech=\"CoMeT\"} 2"));
    }

    #[test]
    fn lockstep_counters_accumulate_and_read_back() {
        let registry = Registry::new();
        assert_eq!(lockstep_totals(&registry), LockstepTotals::default());
        publish_lockstep(5, &[EvictionReason::Penalty, EvictionReason::Response], &registry);
        publish_lockstep(2, &[EvictionReason::Penalty], &registry);
        publish_lockstep(1, &[], &registry);
        assert_eq!(lockstep_totals(&registry), LockstepTotals { runs: 3, members: 8, evictions: 3 });
        let text = registry.render();
        assert!(text.contains("comet_sim_lockstep_evictions_total{reason=\"penalty\"} 2"), "{text}");
        assert!(text.contains("comet_sim_lockstep_evictions_total{reason=\"deadline\"} 0"), "{text}");
    }
}
