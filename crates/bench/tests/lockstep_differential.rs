//! Lockstep differential suite: every member of a lockstep tracker group
//! must come out bit-identical to its solo run.
//!
//! The grid covers every workload placement (single, attacked under two
//! attack kinds, a 2-core homogeneous mix, a heterogeneous mix, plus
//! 2-channel and 2-rank configurations) × every `MechanismKind` (with
//! several `CometCustom` variants) × nRH ∈ {125, 1000}, and a duplicate
//! spec in the batch. Each member's `RunResult` is compared with its solo
//! `CellSpec::run` as a struct, as serde JSON and by `stats_checksum`. The
//! grid must evict at least one member for each reason — a different
//! activation response, latency penalty and tick deadline — so all three
//! comparisons are exercised.
//!
//! A service-level check runs the served experiment targets on a fresh
//! cache at 1 and 2 executor threads and requires byte-identical JSON.

use comet_bench::hotpath::stats_checksum;
use comet_service::targets::{run_target, KNOWN_TARGETS};
use comet_service::ExperimentService;
use comet_sim::experiments::{
    run_grouped, CellBackend, CellSpec, ExperimentScope, ParallelExecutor, WorkloadSpec,
};
use comet_sim::{EvictionReason, LockstepOutcome, MechanismKind, RunResult, Runner, SimConfig};
use comet_trace::AttackKind;
use std::collections::HashSet;

/// A short window keeps the debug-build suite fast while still spanning
/// several periodic-refresh intervals and a CoMeT reset at `k = 16`.
fn config() -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.warmup_cycles = 8_000;
    config.sim_cycles = 100_000;
    config
}

fn mechanisms() -> Vec<MechanismKind> {
    let custom = |n_hash, n_counters, rat_entries, reset_divisor, history_length, eprt_percent| {
        MechanismKind::CometCustom {
            n_hash,
            n_counters,
            rat_entries,
            reset_divisor,
            history_length,
            eprt_percent,
        }
    };
    vec![
        MechanismKind::Baseline,
        MechanismKind::Comet,
        custom(4, 512, 128, 3, 256, 25),
        custom(2, 256, 0, 3, 256, 100),
        custom(4, 512, 8, 16, 64, 50),
        MechanismKind::Graphene,
        MechanismKind::Hydra,
        MechanismKind::Rega,
        MechanismKind::Para,
        MechanismKind::BlockHammer,
        MechanismKind::PerRow,
    ]
}

/// Every (runner, placement) pair of the grid.
fn placements() -> Vec<(Runner, WorkloadSpec)> {
    let single = |workload: &str| WorkloadSpec::Single { workload: workload.to_string() };
    let runner = Runner::new(config());
    vec![
        (runner.clone(), single("429.mcf")),
        (
            runner.clone(),
            WorkloadSpec::Attacked {
                workload: "473.astar".to_string(),
                attack: AttackKind::Traditional { rows_per_bank: 4 },
            },
        ),
        (
            runner.clone(),
            WorkloadSpec::Attacked {
                workload: "541.leela".to_string(),
                attack: AttackKind::CometTargeted { rows_per_bank: 160 },
            },
        ),
        (runner.clone(), WorkloadSpec::Homogeneous { workload: "450.soplex".to_string(), cores: 2 }),
        (
            runner,
            WorkloadSpec::Mix {
                name: "mix-test".to_string(),
                workloads: vec!["bfs_ny".to_string(), "462.libquantum".to_string()],
            },
        ),
        (Runner::new(config().with_channels(2)), single("429.mcf")),
        (Runner::new(config().with_ranks(2)), single("bfs_ny")),
    ]
}

fn cells(workload: &WorkloadSpec) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for nrh in [1000, 125] {
        for mechanism in mechanisms() {
            cells.push(CellSpec { workload: workload.clone(), mechanism, nrh });
        }
    }
    cells
}

fn assert_bit_identical(grouped: &RunResult, solo: &RunResult, context: &str) {
    assert_eq!(
        serde_json::to_string(grouped).unwrap(),
        serde_json::to_string(solo).unwrap(),
        "{context}: serialized results differ"
    );
    assert_eq!(stats_checksum(grouped), stats_checksum(solo), "{context}: stats checksums differ");
    assert!(grouped == solo, "{context}: results differ\n grouped: {grouped:?}\n solo: {solo:?}");
}

/// Runs `cells` as lockstep groups the way `run_grouped` does — evicted
/// members rerun as a new group until every member completes — recording
/// every eviction reason on the way.
fn run_recursively(
    runner: &Runner,
    cells: &[CellSpec],
    reasons: &mut HashSet<EvictionReason>,
) -> Vec<RunResult> {
    let mut results: Vec<Option<RunResult>> = vec![None; cells.len()];
    let mut pending: Vec<usize> = (0..cells.len()).collect();
    let mut runs = 0;
    while !pending.is_empty() {
        runs += 1;
        let group: Vec<&CellSpec> = pending.iter().map(|&i| &cells[i]).collect();
        let mut evicted = Vec::new();
        for (index, outcome) in pending.iter().zip(CellSpec::run_lockstep(runner, &group)) {
            match outcome {
                LockstepOutcome::Completed(result) => results[*index] = Some(*result),
                LockstepOutcome::Evicted(reason) => {
                    reasons.insert(reason);
                    evicted.push(*index);
                }
                LockstepOutcome::Failed(error) => panic!("{}: {error}", cells[*index].label()),
            }
        }
        assert!(evicted.len() < pending.len(), "the leader of every group completes");
        pending = evicted;
    }
    assert!(runs < cells.len(), "some members must share a run ({runs} runs for {} cells)", cells.len());
    results.into_iter().map(|result| result.expect("every member completes")).collect()
}

#[test]
fn every_lockstep_member_equals_its_solo_run() {
    let mut reasons = HashSet::new();
    for (runner, workload) in placements() {
        let cells = cells(&workload);
        let grouped = run_recursively(&runner, &cells, &mut reasons);
        for (cell, grouped) in cells.iter().zip(&grouped) {
            let solo = cell.run(&runner).unwrap();
            let context = format!("{} ({} channel(s))", cell.label(), runner.config().channels());
            assert_bit_identical(grouped, &solo, &context);
        }
    }
    for reason in EvictionReason::ALL {
        assert!(
            reasons.contains(&reason),
            "the grid never evicted a member for a different {}",
            reason.name()
        );
    }
}

/// The executor path: `run_cells` dedupes the duplicate spec, groups the
/// rest by placement across several placements in one batch, and schedules
/// reruns on any worker — results must match solo runs cell for cell.
#[test]
fn grouped_executor_batches_match_solo_runs() {
    let runner = Runner::new(config());
    let mut batch: Vec<CellSpec> = placements()
        .into_iter()
        .take(3)
        .flat_map(|(_, workload)| {
            cells(&workload)
                .into_iter()
                .filter(|cell| cell.nrh == 125 || cell.mechanism == MechanismKind::Baseline)
        })
        .collect();
    let duplicate = batch[3].clone();
    batch.insert(1, duplicate);
    let solo: Vec<RunResult> = batch.iter().map(|cell| cell.run(&runner).unwrap()).collect();

    for threads in [1, 2] {
        let results = ParallelExecutor::with_threads(threads).run_cells(&runner, &batch).unwrap();
        assert_eq!(results.len(), batch.len());
        for ((cell, grouped), solo) in batch.iter().zip(&results).zip(&solo) {
            assert_bit_identical(grouped, solo, &format!("{} at {threads} thread(s)", cell.label()));
        }
    }

    // `run_grouped` reports per-cell errors without failing its siblings.
    let mut with_bad = vec![CellSpec::single("no-such-workload", MechanismKind::Comet, 125)];
    with_bad.push(batch[0].clone());
    let refs: Vec<&CellSpec> = with_bad.iter().collect();
    let outcomes = run_grouped(&ParallelExecutor::with_threads(2), &runner, &refs);
    assert!(outcomes[0].is_err());
    assert_bit_identical(outcomes[1].as_ref().unwrap(), &solo[0], "sibling of a bad cell");
}

/// Served targets are byte-identical at 1 and 2 executor threads on a fresh
/// cache. Release builds (CI) serve every target; debug builds, where a
/// smoke cell simulates ~20x slower, serve the three cheapest simulated
/// targets (the grid above covers every placement kind in debug builds).
#[test]
fn served_targets_are_identical_at_one_and_two_threads() {
    let targets: &[&str] = if cfg!(debug_assertions) { &["fig3", "fig9", "fig18"] } else { KNOWN_TARGETS };
    let serve = |threads: usize| -> Vec<String> {
        let service = ExperimentService::new(ParallelExecutor::with_threads(threads));
        targets
            .iter()
            .map(|target| {
                run_target(target, ExperimentScope::Smoke, &service)
                    .unwrap_or_else(|error| panic!("{target}: {error}"))
                    .expect("known target")
            })
            .collect()
    };
    let one = serve(1);
    let two = serve(2);
    for ((target, one), two) in targets.iter().zip(&one).zip(&two) {
        assert!(one == two, "{target}: JSON differs between 1 and 2 executor threads");
    }
}
