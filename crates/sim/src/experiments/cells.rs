//! Experiment cells as data.
//!
//! A *cell* is one full simulation — a workload placement, a mitigation
//! mechanism, and a RowHammer threshold. Every experiment family enumerates
//! its grid as [`CellSpec`] values and assembles its figure/table data from
//! the per-cell [`RunResult`]s, instead of closing over an executor. That
//! split is what lets the experiment service (crate `comet-service`) schedule,
//! deduplicate, and memoize cells: a cell's full identity — spec plus the
//! [`Runner`]'s configuration, seed, and loop mode — is a content-addressable
//! cache key, and anything that can run cells can serve any experiment.
//!
//! [`CellBackend`] is the execution seam. [`ParallelExecutor`] implements it
//! directly (fan out, run everything); the service implements it with a
//! result cache and in-flight deduplication in front of the same executor.

use super::ParallelExecutor;
use crate::lockstep::LockstepOutcome;
use crate::metrics::RunResult;
use crate::runner::{MechanismKind, Runner, RunnerError};
use comet_trace::AttackKind;
use serde::Serialize;
use std::collections::HashMap;

/// How a cell places its workload(s) on cores.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum WorkloadSpec {
    /// One workload on one core.
    Single {
        /// Workload name from the Table 3 catalog.
        workload: String,
    },
    /// A homogeneous multi-core mix: `cores` copies of one workload.
    Homogeneous {
        /// Workload name from the Table 3 catalog.
        workload: String,
        /// Number of cores (= copies).
        cores: usize,
    },
    /// A benign workload on core 0 plus an attacker trace on core 1.
    Attacked {
        /// Benign workload name from the Table 3 catalog.
        workload: String,
        /// The attack pattern the second core executes.
        attack: AttackKind,
    },
    /// A heterogeneous multi-core mix: one named workload per core, in core
    /// order (the mixed medium/high-intensity families). `name` labels the
    /// mix in reports; the workload list is the simulated identity.
    Mix {
        /// Mix name used in reports (e.g. `mixMH03`).
        name: String,
        /// One Table 3 workload name per core.
        workloads: Vec<String>,
    },
}

/// One experiment cell: a workload placement under a mechanism at a threshold.
///
/// Equality and hashing cover the full spec; together with a runner identity
/// (config, seed, loop mode) this is the content-addressed cache key the
/// experiment service memoizes results under.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct CellSpec {
    /// Workload placement.
    pub workload: WorkloadSpec,
    /// Mitigation mechanism.
    pub mechanism: MechanismKind,
    /// RowHammer threshold.
    pub nrh: u64,
}

impl CellSpec {
    /// A single-core cell.
    pub fn single(workload: impl Into<String>, mechanism: MechanismKind, nrh: u64) -> Self {
        CellSpec { workload: WorkloadSpec::Single { workload: workload.into() }, mechanism, nrh }
    }

    /// A homogeneous multi-core cell.
    pub fn homogeneous(
        workload: impl Into<String>,
        cores: usize,
        mechanism: MechanismKind,
        nrh: u64,
    ) -> Self {
        CellSpec { workload: WorkloadSpec::Homogeneous { workload: workload.into(), cores }, mechanism, nrh }
    }

    /// A benign-plus-attacker cell.
    pub fn attacked(
        workload: impl Into<String>,
        attack: AttackKind,
        mechanism: MechanismKind,
        nrh: u64,
    ) -> Self {
        CellSpec { workload: WorkloadSpec::Attacked { workload: workload.into(), attack }, mechanism, nrh }
    }

    /// A heterogeneous multi-core mix cell (one workload per core).
    pub fn mix(name: impl Into<String>, workloads: Vec<String>, mechanism: MechanismKind, nrh: u64) -> Self {
        CellSpec { workload: WorkloadSpec::Mix { name: name.into(), workloads }, mechanism, nrh }
    }

    /// Runs this cell on `runner`. Deterministic: the result depends only on
    /// the spec and the runner's identity (config, seed, loop mode).
    pub fn run(&self, runner: &Runner) -> Result<RunResult, RunnerError> {
        runner.run_placement(&self.workload, self.mechanism, self.nrh)
    }

    /// Runs `group` — cells sharing one workload placement — as one
    /// lockstep tracker group on `runner` (see [`crate::lockstep`]): one
    /// outcome per cell, in order; completed results are bit-identical to
    /// each cell's [`run`](Self::run), and evicted cells must be rerun. A
    /// placement error fails every cell, a mechanism missing from the
    /// registry only its own cell. On a runner that does not
    /// [support lockstep](Runner::supports_lockstep) every cell runs solo.
    ///
    /// # Panics
    ///
    /// Panics if the cells do not all share the first cell's workload.
    pub fn run_lockstep(runner: &Runner, group: &[&CellSpec]) -> Vec<LockstepOutcome> {
        let Some(first) = group.first() else { return Vec::new() };
        assert!(
            group.iter().all(|cell| cell.workload == first.workload),
            "a lockstep group shares one workload placement"
        );
        let members: Vec<(MechanismKind, u64)> =
            group.iter().map(|cell| (cell.mechanism, cell.nrh)).collect();
        runner.run_lockstep(&first.workload, &members)
    }

    /// Human-readable cell label (`workload/mechanism/nrh`-style), for logs
    /// and service-side progress reporting.
    pub fn label(&self) -> String {
        let placement = match &self.workload {
            WorkloadSpec::Single { workload } => workload.clone(),
            WorkloadSpec::Homogeneous { workload, cores } => format!("{workload}-x{cores}"),
            WorkloadSpec::Attacked { workload, .. } => format!("{workload}+attack"),
            WorkloadSpec::Mix { name, .. } => name.clone(),
        };
        format!("{placement}/{}/nrh{}", self.mechanism.name(), self.nrh)
    }
}

/// Partitions cells into lockstep groups: positions of cells sharing a
/// workload placement, groups in order of first appearance, positions in
/// order within a group.
fn lockstep_groups(cells: &[&CellSpec]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<&WorkloadSpec, usize> = HashMap::new();
    for (position, cell) in cells.iter().enumerate() {
        let group = *group_of.entry(&cell.workload).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[group].push(position);
    }
    groups
}

/// Runs `cells` on `executor` grouped by workload placement: every group
/// simulates once in lockstep, and its evicted members rerun as a new group
/// (recursively, possibly on another worker). Returns one result per cell,
/// in order — each bit-identical to the cell's [`CellSpec::run`].
pub fn run_grouped(
    executor: &ParallelExecutor,
    runner: &Runner,
    cells: &[&CellSpec],
) -> Vec<Result<RunResult, RunnerError>> {
    run_grouped_with(executor, cells, |group| CellSpec::run_lockstep(runner, group))
}

/// [`run_grouped`] with the group runner supplied by the caller:
/// `run_group` runs one group (cells sharing a placement) and returns one
/// outcome per member, as [`CellSpec::run_lockstep`] does. The experiment
/// service wraps that call in its fault containment.
pub fn run_grouped_with<F>(
    executor: &ParallelExecutor,
    cells: &[&CellSpec],
    run_group: F,
) -> Vec<Result<RunResult, RunnerError>>
where
    F: Fn(&[&CellSpec]) -> Vec<LockstepOutcome> + Sync,
{
    let done = executor.run_tasks(lockstep_groups(cells), |group: Vec<usize>| {
        let members: Vec<&CellSpec> = group.iter().map(|&position| cells[position]).collect();
        let mut done = Vec::with_capacity(group.len());
        let mut evicted = Vec::new();
        let outcomes = run_group(&members);
        assert_eq!(outcomes.len(), group.len(), "one outcome per group member");
        for (position, outcome) in group.into_iter().zip(outcomes) {
            match outcome {
                LockstepOutcome::Completed(result) => done.push((position, Ok(*result))),
                LockstepOutcome::Failed(error) => done.push((position, Err(error))),
                LockstepOutcome::Evicted(_) => evicted.push(position),
            }
        }
        // A group whose leader completes always shrinks, so reruns end.
        assert!(!done.is_empty(), "a lockstep group resolved none of its members");
        (done, if evicted.is_empty() { Vec::new() } else { vec![evicted] })
    });
    let mut slots: Vec<Option<Result<RunResult, RunnerError>>> = (0..cells.len()).map(|_| None).collect();
    for (position, result) in done {
        slots[position] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every cell resolves: a group's leader always completes"))
        .collect()
}

/// Anything that can execute a batch of experiment cells for a runner.
///
/// Implementations must be deterministic per cell: duplicate specs in one
/// batch (or across batches with the same runner identity) may legally be
/// simulated once and their result shared — [`ParallelExecutor`]'s
/// implementation dedupes within a batch, and the experiment service also
/// memoizes across batches.
pub trait CellBackend: Sync {
    /// Runs every cell, returning results in cell order. The first failing
    /// cell's error (by batch order) is returned if any cell fails.
    fn run_cells(&self, runner: &Runner, cells: &[CellSpec]) -> Result<Vec<RunResult>, RunnerError>;
}

impl CellBackend for ParallelExecutor {
    /// Fans the batch's *unique* cells out over the worker pool and fans
    /// results back to every occurrence. The in-batch dedupe is what makes
    /// plans free to enumerate overlapping grids (e.g. the adversarial
    /// studies' shared attacked baselines) without hand-rolled key tracking.
    /// Unique cells sharing a workload placement run as lockstep groups
    /// ([`run_grouped`]) when the runner supports it — a duplicate cell is
    /// the degenerate member that can never disagree, so it is not even
    /// added. Other runners run one simulation per unique cell.
    fn run_cells(&self, runner: &Runner, cells: &[CellSpec]) -> Result<Vec<RunResult>, RunnerError> {
        let mut unique: Vec<&CellSpec> = Vec::with_capacity(cells.len());
        let mut position: HashMap<&CellSpec, usize> = HashMap::with_capacity(cells.len());
        let slot: Vec<usize> = cells
            .iter()
            .map(|cell| {
                *position.entry(cell).or_insert_with(|| {
                    unique.push(cell);
                    unique.len() - 1
                })
            })
            .collect();
        let results = if runner.supports_lockstep() {
            run_grouped(self, runner, &unique).into_iter().collect::<Result<Vec<_>, _>>()?
        } else {
            self.try_run(&unique, |_, cell| cell.run(runner))?
        };
        Ok(slot.into_iter().map(|index| results[index].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    #[test]
    fn labels_are_stable_and_descriptive() {
        let cell = CellSpec::single("429.mcf", MechanismKind::Comet, 1000);
        assert_eq!(cell.label(), "429.mcf/CoMeT/nrh1000");
        let mix = CellSpec::homogeneous("429.mcf", 4, MechanismKind::Baseline, 500);
        assert_eq!(mix.label(), "429.mcf-x4/Baseline/nrh500");
        let attacked = CellSpec::attacked(
            "473.astar",
            AttackKind::Traditional { rows_per_bank: 8 },
            MechanismKind::Para,
            125,
        );
        assert_eq!(attacked.label(), "473.astar+attack/PARA/nrh125");
    }

    #[test]
    fn executor_backend_dedupes_within_a_batch() {
        let runner = Runner::new(SimConfig::quick_test());
        let a = CellSpec::single("429.mcf", MechanismKind::Baseline, 1000);
        let b = CellSpec::single("473.astar", MechanismKind::Baseline, 1000);
        let batch = vec![a.clone(), b.clone(), a.clone(), a];
        let results = ParallelExecutor::serial().run_cells(&runner, &batch).unwrap();
        assert_eq!(results.len(), 4);
        // Duplicates share one simulation: bit-identical stats.
        assert_eq!(results[0].instructions, results[2].instructions);
        assert_eq!(results[0].ipc, results[3].ipc);
        assert_ne!(results[0].label, results[1].label);
    }

    #[test]
    fn cell_errors_propagate() {
        let runner = Runner::new(SimConfig::quick_test());
        let bad = CellSpec::single("no-such-workload", MechanismKind::Baseline, 1000);
        let err = ParallelExecutor::serial().run_cells(&runner, &[bad]).unwrap_err();
        assert_eq!(err, RunnerError::UnknownWorkload("no-such-workload".to_string()));
    }
}
