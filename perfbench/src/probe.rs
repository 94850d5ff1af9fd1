//! Outside-in layer timers around the program's public seams: a timed
//! [`TraceSource`] for trace generation, a timed [`RowHammerMitigation`]
//! decorator registered over every built-in mechanism key, and a traced
//! cell backend that runs each cell with both.
//!
//! The traced backend rebuilds a cell's simulation from public parts
//! (`SyntheticTrace`, `AttackTrace`, the registry factory, `System`) exactly
//! as `CellSpec::run` does, because trace sources cannot be injected through
//! `Runner`. Its results are checked against the untraced pass cell by cell,
//! so any drift from `CellSpec::run` fails the benchmark.

use comet_dram::{Cycle, DramAddr};
use comet_mitigations::{MitigationResponse, MitigationStats, RowHammerMitigation};
use comet_service::{cell_key, CellKey};
use comet_sim::experiments::{CellBackend, CellSpec, ParallelExecutor, WorkloadSpec};
use comet_sim::{MechanismRegistry, RunResult, Runner, RunnerError, System};
use comet_trace::{catalog, AttackTrace, SyntheticTrace, TraceRecord, TraceSource};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls, activations and nanoseconds measured inside one wrapped seam.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub acts: u64,
    pub ns: u64,
}

impl Totals {
    fn add(&mut self, other: Totals) {
        self.calls += other.calls;
        self.acts += other.acts;
        self.ns += other.ns;
    }
}

type Shared = Arc<Mutex<Totals>>;

/// Every probe's accumulated totals. Wrappers count into plain fields and
/// fold into these once, when the wrapped instance is dropped at cell end.
pub struct Probes {
    pub trace: Shared,
    /// Per registry key of the built-in mechanisms.
    pub trackers: BTreeMap<String, Shared>,
}

impl Probes {
    pub fn new() -> Arc<Self> {
        let trackers = MechanismRegistry::with_defaults()
            .keys()
            .into_iter()
            .map(|key| (key, Shared::default()))
            .collect();
        Arc::new(Probes { trace: Shared::default(), trackers })
    }

    pub fn trace_totals(&self) -> Totals {
        *self.trace.lock().expect("a probe panicked while folding its totals")
    }

    pub fn tracker_totals(&self) -> BTreeMap<String, Totals> {
        self.trackers
            .iter()
            .map(|(key, shared)| {
                (key.clone(), *shared.lock().expect("a probe panicked while folding its totals"))
            })
            .collect()
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// A trace source that times every `next_record` call.
struct TimedTrace {
    inner: Box<dyn TraceSource>,
    own: Totals,
    into: Shared,
}

impl TraceSource for TimedTrace {
    fn next_record(&mut self) -> TraceRecord {
        let started = Instant::now();
        let record = self.inner.next_record();
        self.own.ns += elapsed_ns(started);
        self.own.calls += 1;
        record
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Drop for TimedTrace {
    fn drop(&mut self) {
        fold(&self.into, self.own);
    }
}

/// Adds one wrapper's counts to the shared totals (skipped if another
/// wrapper panicked mid-fold: a panic already fails the pass).
fn fold(into: &Shared, own: Totals) {
    if let Ok(mut totals) = into.lock() {
        totals.add(own);
    }
}

/// A mechanism decorator timing every state-changing tracker call
/// (activations, ticks, refresh notifications). Read-only queries are
/// forwarded untimed: they are cheap, and timing them would cost more than
/// they do.
struct TimedMitigation {
    inner: Box<dyn RowHammerMitigation>,
    own: Totals,
    into: Shared,
}

impl TimedMitigation {
    fn timed<R>(&mut self, acts: u64, call: impl FnOnce(&mut dyn RowHammerMitigation) -> R) -> R {
        let started = Instant::now();
        let out = call(self.inner.as_mut());
        self.own.ns += elapsed_ns(started);
        self.own.calls += 1;
        self.own.acts += acts;
        out
    }
}

impl Drop for TimedMitigation {
    fn drop(&mut self) {
        fold(&self.into, self.own);
    }
}

impl RowHammerMitigation for TimedMitigation {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_activation(&mut self, addr: &DramAddr, now: Cycle, weight: u64) -> MitigationResponse {
        self.timed(1, |inner| inner.on_activation(addr, now, weight))
    }

    fn on_activations(&mut self, batch: &[(DramAddr, Cycle, u64)]) -> Vec<MitigationResponse> {
        self.timed(batch.len() as u64, |inner| inner.on_activations(batch))
    }

    fn on_periodic_refresh(&mut self, rank: usize, now: Cycle) {
        self.timed(0, |inner| inner.on_periodic_refresh(rank, now))
    }

    fn on_tick(&mut self, now: Cycle) {
        self.timed(0, |inner| inner.on_tick(now))
    }

    fn next_tick_deadline(&self) -> Cycle {
        self.inner.next_tick_deadline()
    }

    fn on_rank_refreshed(&mut self, rank: usize, now: Cycle) {
        self.timed(0, |inner| inner.on_rank_refreshed(rank, now))
    }

    fn act_latency_penalty(&self) -> Cycle {
        self.inner.act_latency_penalty()
    }

    fn stats(&self) -> MitigationStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        self.inner.telemetry_gauges()
    }

    fn quiescent_activations(&self) -> u64 {
        self.inner.quiescent_activations()
    }

    fn checkpoint(&self) -> Box<dyn RowHammerMitigation> {
        Box::new(TimedMitigation {
            inner: self.inner.checkpoint(),
            own: Totals::default(),
            into: self.into.clone(),
        })
    }

    fn restore(&mut self, checkpoint: &dyn RowHammerMitigation) {
        let snapshot = checkpoint
            .as_any()
            .downcast_ref::<TimedMitigation>()
            .expect("checkpoint is not a TimedMitigation");
        self.inner.restore(snapshot.inner.as_ref());
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The default registry with every built-in key re-registered as a timing
/// decorator around its default builder.
fn timed_registry(probes: &Arc<Probes>) -> MechanismRegistry {
    let defaults = Arc::new(MechanismRegistry::with_defaults());
    let mut registry = MechanismRegistry::with_defaults();
    for (key, shared) in &probes.trackers {
        let defaults = defaults.clone();
        let shared = shared.clone();
        registry.register(key.clone(), move |spec, channel| {
            let kind = spec.kind.expect("the runner resolves built-in mechanisms by kind");
            let inner = defaults
                .build(kind, spec.nrh, &spec.dram, spec.seed, channel)
                .expect("every built-in kind has a default builder");
            Box::new(TimedMitigation { inner, own: Totals::default(), into: shared.clone() })
        });
    }
    registry
}

/// A cell backend that simulates every cell once (memoized across batches,
/// like the service's cache) with timed trace sources and timed trackers,
/// fanned out over the plain [`ParallelExecutor`].
pub struct TracedBackend {
    executor: ParallelExecutor,
    probes: Arc<Probes>,
    registry: MechanismRegistry,
    memo: Mutex<HashMap<CellKey, RunResult>>,
}

impl TracedBackend {
    pub fn new(threads: usize, probes: Arc<Probes>) -> Self {
        let registry = timed_registry(&probes);
        TracedBackend {
            executor: ParallelExecutor::with_threads(threads),
            probes,
            registry,
            memo: Mutex::default(),
        }
    }

    fn timed_trace(&self, inner: Box<dyn TraceSource>) -> Box<dyn TraceSource> {
        Box::new(TimedTrace { inner, own: Totals::default(), into: self.probes.trace.clone() })
    }

    /// `CellSpec::run` rebuilt from public parts, with timed seams.
    fn run_cell(&self, runner: &Runner, cell: &CellSpec) -> Result<RunResult, RunnerError> {
        let config = runner.config();
        let problems = config.validate();
        if !problems.is_empty() {
            return Err(RunnerError::InvalidConfig(problems));
        }
        let geometry = &config.dram.geometry;
        let workload = |name: &str, core: usize| -> Result<Box<dyn TraceSource>, RunnerError> {
            let profile =
                catalog::workload(name).ok_or_else(|| RunnerError::UnknownWorkload(name.to_string()))?;
            let seed = runner.seed() ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Ok(self.timed_trace(Box::new(SyntheticTrace::new(profile, geometry.clone(), seed))))
        };
        let (traces, label) = match &cell.workload {
            WorkloadSpec::Single { workload: name } => (vec![workload(name, 0)?], name.clone()),
            WorkloadSpec::Homogeneous { workload: name, cores } => (
                (0..*cores).map(|core| workload(name, core)).collect::<Result<_, _>>()?,
                format!("{name}-x{cores}"),
            ),
            WorkloadSpec::Attacked { workload: name, attack } => {
                let attacker = AttackTrace::new(*attack, geometry.clone(), runner.seed() ^ 0xA77AC);
                (vec![workload(name, 0)?, self.timed_trace(Box::new(attacker))], format!("{name}+attack"))
            }
            WorkloadSpec::Mix { name, workloads } => (
                workloads
                    .iter()
                    .enumerate()
                    .map(|(core, name)| workload(name, core))
                    .collect::<Result<_, _>>()?,
                name.clone(),
            ),
        };
        let factory = self.registry.factory(cell.mechanism, cell.nrh, &config.dram, runner.seed())?;
        Ok(System::new(config.clone(), traces, &factory).run_with_mode(label, runner.loop_mode()))
    }
}

impl CellBackend for TracedBackend {
    fn run_cells(&self, runner: &Runner, cells: &[CellSpec]) -> Result<Vec<RunResult>, RunnerError> {
        let keys: Vec<CellKey> = cells.iter().map(|cell| cell_key(runner, cell)).collect();
        let missing: Vec<(CellKey, &CellSpec)> = {
            let memo = self.memo.lock().expect("a batch panicked while holding the memo");
            let mut seen = std::collections::HashSet::new();
            keys.iter()
                .zip(cells)
                .filter(|(key, _)| !memo.contains_key(key) && seen.insert(**key))
                .map(|(key, cell)| (*key, cell))
                .collect()
        };
        let results = self.executor.try_run(&missing, |_, (_, cell)| self.run_cell(runner, cell))?;
        let mut memo = self.memo.lock().expect("a batch panicked while holding the memo");
        for ((key, _), result) in missing.iter().zip(results) {
            memo.insert(*key, result);
        }
        Ok(keys.iter().map(|key| memo[key].clone()).collect())
    }
}
