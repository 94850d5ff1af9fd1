//! The full simulated system: cores + sharded memory system + simulation loop.

use crate::controller::{ControllerConfig, ControllerStats};
use crate::cpu::{CoreConfig, TraceCore};
use crate::memory::MemorySystem;
use crate::metrics::{EngineTelemetry, RunResult, SPEC_DEPTH_BOUNDS, WINDOW_CYCLES_BOUNDS};
use crate::shardpool::ShardPool;
use crate::speculate::{SpecRegion, SpecSink};
use comet_dram::{ChannelStats, Cycle, DramConfig, EnergyCounters};
use comet_mitigations::{MitigationFactory, MitigationStats};
use comet_trace::TraceSource;

/// Simulation-level configuration: which DRAM preset to use and how long to run.
///
/// `Serialize` feeds the experiment service's canonical cell-key encoding:
/// every field of this struct (transitively) is part of a cached result's
/// identity, so adding a field both changes the serialized form and — by
/// design — invalidates previously cached results.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SimConfig {
    /// DRAM device configuration (geometry, timing, energy).
    pub dram: DramConfig,
    /// Memory controller policy (applied to every channel shard).
    pub controller: ControllerConfig,
    /// Core parameters.
    pub core: CoreConfig,
    /// Warmup period in DRAM cycles (statistics are excluded).
    pub warmup_cycles: Cycle,
    /// Measured simulation length in DRAM cycles (after warmup).
    pub sim_cycles: Cycle,
}

impl SimConfig {
    /// The paper's configuration: full DDR4 with a 64 ms refresh window, run
    /// for two CoMeT reset periods (≈ 43 ms) after a short warmup. This is
    /// expensive — use [`SimConfig::quick`] for the default experiment presets.
    pub fn paper_full() -> Self {
        let dram = DramConfig::ddr4_paper_default();
        let window = dram.timing.t_refw;
        SimConfig {
            controller: ControllerConfig::default(),
            core: CoreConfig::default(),
            warmup_cycles: window / 64,
            sim_cycles: 2 * window / 3,
            dram,
        }
    }

    /// The quick preset used by default in the experiment harness: the tracker
    /// reset window (`tREFW`) is scaled down by `refw_divisor` (periodic refresh
    /// cadence `tREFI` is left untouched, so the baseline refresh overhead stays
    /// realistic) and the simulation covers two full CoMeT reset periods of the
    /// scaled window. See EXPERIMENTS.md for the fidelity discussion.
    pub fn quick(refw_divisor: u64) -> Self {
        let mut dram = DramConfig::ddr4_paper_default();
        dram.timing.t_refw /= refw_divisor.max(1);
        let window = dram.timing.t_refw;
        SimConfig {
            controller: ControllerConfig::default(),
            core: CoreConfig::default(),
            warmup_cycles: window / 16,
            sim_cycles: 2 * window / 3,
            dram,
        }
    }

    /// A very small configuration for unit and integration tests (hundreds of
    /// microseconds of simulated time).
    pub fn quick_test() -> Self {
        let mut config = Self::quick(64);
        config.warmup_cycles = 20_000;
        config.sim_cycles = 400_000;
        config
    }

    /// Returns this configuration scaled out to `channels` independent memory
    /// channels (builder style). Each channel gets its own controller shard
    /// and mitigation instance; traces interleave their accesses across
    /// channels through the address mapping.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.dram.geometry = self.dram.geometry.with_channels(channels);
        self
    }

    /// Returns this configuration with `ranks` ranks per channel (builder
    /// style) — the knob the rank-parallelism sweep turns.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.dram.geometry = self.dram.geometry.with_ranks(ranks);
        self
    }

    /// Number of memory channels this configuration simulates.
    pub fn channels(&self) -> usize {
        self.dram.geometry.channels
    }

    /// Validates the configuration, returning human-readable problems (empty = OK).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.dram.validate();
        if self.sim_cycles == 0 {
            problems.push("sim_cycles must be non-zero".to_string());
        }
        problems
    }

    /// Total simulated DRAM cycles (warmup + measurement).
    pub fn total_cycles(&self) -> Cycle {
        self.warmup_cycles + self.sim_cycles
    }

    /// Simulated measurement time in milliseconds.
    pub fn sim_time_ms(&self) -> f64 {
        self.dram.timing.cycles_to_ns(self.sim_cycles) / 1.0e6
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::quick(8)
    }
}

/// How [`System::run`] advances simulated time.
///
/// Both modes produce bit-identical simulation results: every command issues
/// at the cycle the controllers' next-event bounds dictate, and the dense
/// mode's extra intermediate steps are no-ops. The equivalence suite
/// (`crates/bench/tests/bitexact_hotpath.rs`) runs the perf basket under both
/// modes and asserts equal statistics, which keeps the bounds honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopMode {
    /// Jump straight to the next controller or core event; channel shards
    /// whose cached next-event time has not arrived are not stepped. The
    /// default, and several times faster.
    #[default]
    EventDriven,
    /// The reference loop of the pre-event-driven simulator: every shard is
    /// stepped at every iteration and time never advances by more than 512
    /// cycles at once.
    DenseReference,
}

impl LoopMode {
    /// Stable short name, used in the experiment service's canonical
    /// cell-key encoding. Changing a name changes every cache key.
    pub fn name(&self) -> &'static str {
        match self {
            LoopMode::EventDriven => "event",
            LoopMode::DenseReference => "dense",
        }
    }
}

/// Snapshot of per-core progress used to exclude warmup from the results.
#[derive(Debug, Clone, Default)]
struct CoreSnapshot {
    instructions: u64,
    reads: u64,
    writes: u64,
}

/// Snapshot of every statistic taken at the warmup boundary, so the measured
/// result covers only the post-warmup window. Shared by the serial and the
/// shard-parallel simulation loops.
pub(crate) struct WarmSnapshot {
    core: Vec<CoreSnapshot>,
    ctrl: ControllerStats,
    energy: EnergyCounters,
    mitigation: MitigationStats,
    channel: ChannelStats,
    /// Per-member statistics of a lockstep group (empty for a plain system).
    pub(crate) members: Vec<Option<MitigationStats>>,
}

/// Per-core scheduling state of the shard-parallel (windowed) loop.
#[derive(Debug, Clone, Copy)]
enum CoreLoopState {
    /// The core's last `advance` returned a wake cycle: it is not re-advanced
    /// before that cycle (the serial loop's memo behavior).
    Sleeping(Cycle),
    /// The core's last `advance` returned `None`; re-advancing it before the
    /// stored cycle is provably a no-op (see the window-derivation comment in
    /// `run_windowed`), so it is skipped until then.
    Blocked(Cycle),
}

/// One step of the deterministic generator behind the window-jitter test
/// hook (SplitMix64): used to split free-running windows at arbitrary sound
/// points in the barrier-soundness proptests.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulated system: a sharded memory system shared by one or more cores.
pub struct System {
    config: SimConfig,
    memory: MemorySystem,
    cores: Vec<TraceCore>,
}

impl System {
    /// Builds a system running `traces` (one per core); `mitigation` builds
    /// one independent mechanism instance per memory-channel shard.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the configuration fails
    /// [`SimConfig::validate`]. The [`Runner`](crate::Runner) validates
    /// configurations up front and returns a `RunnerError` instead.
    pub fn new(
        config: SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        mitigation: &dyn MitigationFactory,
    ) -> Self {
        assert!(!traces.is_empty(), "at least one core is required");
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid simulation configuration: {problems:?}");
        let memory = MemorySystem::new(config.dram.clone(), config.controller.clone(), mitigation);
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(id, trace)| TraceCore::new(id, trace, config.core.clone(), &config.dram))
            .collect();
        System { config, memory, cores }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of memory-channel shards.
    pub fn channel_count(&self) -> usize {
        self.memory.channels()
    }

    /// Runs the simulation to completion and returns the measured result
    /// (warmup excluded), advancing time event-driven.
    pub fn run(self, label: impl Into<String>) -> RunResult {
        self.run_with_mode(label, LoopMode::default())
    }

    /// Runs the simulation under an explicit [`LoopMode`]. Results are
    /// bit-identical across modes; only wall-clock time differs.
    pub fn run_with_mode(mut self, label: impl Into<String>, mode: LoopMode) -> RunResult {
        let _span = comet_telemetry::span("sim.run");
        let warm = self.simulate(mode);
        self.assemble(label.into(), &warm, EngineTelemetry::default())
    }

    /// The memory system (for end-of-run inspection).
    pub(crate) fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// The serial simulation loop: runs to the end of the configuration's
    /// window and returns the warmup-boundary snapshot.
    pub(crate) fn simulate(&mut self, mode: LoopMode) -> WarmSnapshot {
        let warmup_end = self.config.warmup_cycles;
        let end = self.config.total_cycles();
        let mut now: Cycle = 0;
        let mut warm = self.warm_snapshot();
        let mut warm_taken = warmup_end == 0;
        // Reused across iterations so the loop allocates nothing per step.
        let mut completions = Vec::new();
        // Per-core wake memo: a core whose `advance` returned `Some(wake)`
        // is waiting on its own dispatch clock, not on memory — every call
        // before `wake` would re-derive the same answer without touching the
        // memory system (completions only mark outstanding reads, which
        // `note_completion` already did), so it is skipped verbatim.
        // Blocked cores (`None`) are re-advanced every iteration: the loop
        // wakes one cycle after each issued command, which is exactly when a
        // freed queue slot or returned read becomes visible.
        let mut core_wake: Vec<Option<Cycle>> = vec![Some(0); self.cores.len()];

        while now < end {
            if !warm_taken && now >= warmup_end {
                warm = self.warm_snapshot();
                warm_taken = true;
            }

            completions.clear();
            self.memory.drain_completions_into(&mut completions);
            for completion in &completions {
                self.cores[completion.core].note_completion(completion.id, completion.completion);
            }
            let mut earliest_core: Option<Cycle> = None;
            for (core, memo) in self.cores.iter_mut().zip(&mut core_wake) {
                let wake = match *memo {
                    Some(w) if now < w => Some(w),
                    _ => {
                        let wake = core.advance(now, &mut self.memory);
                        *memo = wake;
                        wake
                    }
                };
                // A core that `advance` left blocked contributes a wakeup only
                // if it knows one (a pending read-data return); cores waiting
                // on a memory-system event (unknown completion, full queue)
                // are woken by the loop's next memory event instead.
                if let Some(w) = wake.or_else(|| core.blocked_wake()) {
                    earliest_core = Some(earliest_core.map_or(w, |e| e.min(w)));
                }
            }
            let memory_next = match mode {
                LoopMode::EventDriven => self.memory.tick(now),
                LoopMode::DenseReference => self.memory.tick_dense(now),
            };

            // Advance time directly to the next memory or core event (never
            // past the warmup boundary). The event times are *sound* lower
            // bounds on when anything can happen: the memory system's
            // next-event cache covers every shard, and each controller's
            // wakeup covers its queues, timing constraints, refresh
            // deadlines, and the mitigation's scheduled tick deadline (the
            // periodic-reset boundaries each mechanism reports through
            // `next_tick_deadline`). Event-driven runs
            // therefore cross memory-idle phases in a single step, without
            // the bounded `now + 512` skip the reference loop keeps. Cores
            // blocked on a full queue report no wakeup of their own: a slot
            // only frees when the controller issues a column command, whose
            // tick returns `now + 1`, so the loop re-runs the blocked core
            // on the very next cycle — the same cycle the dense per-cycle
            // retry probing would first succeed on.
            let mut next = memory_next.max(now + 1);
            if let Some(c) = earliest_core {
                next = next.min(c.max(now + 1));
            }
            if !warm_taken {
                next = next.min(warmup_end);
            }
            now = match mode {
                LoopMode::EventDriven => next.min(end),
                LoopMode::DenseReference => next.min(now + 512).min(end),
            };
        }
        warm
    }

    /// Runs the simulation with the channel shards stepped on a pool of
    /// `threads` worker threads (the calling thread included), synchronized
    /// by a barrier per core-visible event window. Results are bit-identical
    /// to [`run`](Self::run): the window construction only ever spans cycles
    /// in which no core can observe or influence the memory system, and
    /// inside a window each shard's tick chain is the exact sequence the
    /// serial loop would have performed. `threads == 1` runs the same
    /// windowed loop without worker threads.
    pub fn run_sharded(self, label: impl Into<String>, threads: usize) -> RunResult {
        self.run_windowed(label.into(), threads, None, None)
    }

    /// [`run_sharded`](Self::run_sharded) with the optimistic engine on:
    /// each barrier may launch a speculative region extending `depth` times
    /// the proven window, validated (and committed or rolled back per shard)
    /// as the barrier clock catches up. Results are bit-identical to
    /// [`run`](Self::run) for every `depth` and thread count; see
    /// [`crate::speculate`] for the argument.
    pub fn run_sharded_speculative(self, label: impl Into<String>, threads: usize, depth: u64) -> RunResult {
        self.run_windowed(label.into(), threads, None, Some(depth.max(1)))
    }

    /// [`run_sharded_speculative`](Self::run_sharded_speculative) with
    /// jittered window splits — the combined test hook: randomized barrier
    /// placement *and* speculative regions must still be bit-exact.
    pub fn run_sharded_jittered_speculative(
        self,
        label: impl Into<String>,
        threads: usize,
        seed: u64,
        depth: u64,
    ) -> RunResult {
        self.run_windowed(label.into(), threads, Some(seed), Some(depth.max(1)))
    }

    /// [`run_sharded`](Self::run_sharded) with every free-running window
    /// split at a deterministic pseudo-random point derived from `seed` —
    /// the barrier-soundness test hook. Splitting a sound window is always
    /// sound (any prefix of a window is a window), so results must stay
    /// bit-identical for every seed; the proptests in
    /// `crates/bench/tests/shard_windows.rs` assert exactly that.
    pub fn run_sharded_jittered(self, label: impl Into<String>, threads: usize, seed: u64) -> RunResult {
        self.run_windowed(label.into(), threads, Some(seed), None)
    }

    /// The shard-parallel (windowed) simulation loop.
    ///
    /// Soundness of a window `[now, until)`, relative to the serial
    /// event-driven loop:
    ///
    /// * A core the serial loop has sleeping on a known wake `w` is not
    ///   re-advanced before `w`, so `until <= w` keeps its behavior
    ///   untouched; completions it would have been handed earlier are
    ///   order-insensitive `note_completion` calls delivered at the barrier,
    ///   before its next advance.
    /// * A blocked core (advance returned `None`) is re-advanced by the
    ///   serial loop after *every* memory event, but those re-advances are
    ///   no-ops until the specific shard it is blocked on makes progress:
    ///   its queue-full retry can only succeed after that shard issues a
    ///   command, and its window-stall can only clear after that shard
    ///   completes the oldest outstanding read. Bounding the window at that
    ///   shard's next event (+1 cycle for visibility, matching the serial
    ///   loop's wake-after-issue cadence) therefore skips only no-op
    ///   re-advances. The clock creep a stalled core accumulates while
    ///   probing a full queue is max-absorbed by its final (successful)
    ///   retry, so late re-advances reconstruct it exactly.
    /// * Inside the window no enqueue reaches any shard, so each shard's
    ///   tick chain — starting at its cached next-event time — visits
    ///   exactly the cycles the serial loop would have ticked it at, and
    ///   shards share no state, so stepping them on worker threads cannot
    ///   reorder anything observable.
    ///
    /// With `speculate = Some(depth)` the optimistic engine is on: a barrier
    /// may launch a speculative region free-running every shard `depth`
    /// times the proven window ahead (see [`crate::speculate`] for why the
    /// recorded-timeline replay keeps this bit-exact), and cross-ACT
    /// batching is enabled on every controller shard.
    fn run_windowed(
        mut self,
        label: String,
        threads: usize,
        jitter: Option<u64>,
        speculate: Option<u64>,
    ) -> RunResult {
        let warmup_end = self.config.warmup_cycles;
        let end = self.config.total_cycles();
        let mut now: Cycle = 0;
        let mut warm = self.warm_snapshot();
        let mut warm_taken = warmup_end == 0;
        let pool = ShardPool::new(threads.clamp(1, self.memory.channels()));
        let mut completions = Vec::new();
        let mut core_state: Vec<CoreLoopState> = vec![CoreLoopState::Sleeping(0); self.cores.len()];
        let mut jitter_state = jitter;
        let mut region: Option<SpecRegion> = None;
        // Adaptive launch gate. A region launch checkpoints every shard — a
        // full controller clone per channel — so speculation only pays where
        // regions commit. Traffic that enqueues into a shard every window
        // (a core hammering one channel) would roll back at every barrier
        // and pay the clone for nothing; after a rolled-back region the gate
        // holds launches off for an exponentially growing number of
        // barriers, and a clean commit re-arms it at full cadence. Pure
        // execution policy: launching or not never changes simulated state
        // (the bit-exactness suites run both paths), only wall-clock.
        let mut spec_holdoff: u64 = 0;
        let mut spec_penalty: u64 = 1;
        if speculate.is_some() {
            self.memory.set_act_batching(true);
        }
        // A read's data returns CL + burst cycles after its column command
        // issues (`DramChannel::read_data_available_at`); a core stalled on
        // an instruction window full behind an *unissued* read therefore
        // cannot retire it earlier than its shard's next possible issue plus
        // this latency — the extra window length over the bare next-event
        // bound on queue-saturated (attack) traffic.
        let read_return = self.config.dram.timing.cl + self.config.dram.timing.burst_cycles;

        // Window-length tallies for the telemetry layer: plain locals (no
        // atomics, no registry) on the loop path, folded into one histogram
        // publish at run end.
        let mut engine = EngineTelemetry {
            window_bucket_counts: vec![0u64; WINDOW_CYCLES_BOUNDS.len() + 1],
            speculation_depth_bucket_counts: vec![0u64; SPEC_DEPTH_BOUNDS.len() + 1],
            ..Default::default()
        };

        while now < end {
            // Barrier drain: live shard buffers plus, inside a region, the
            // speculated timelines' completions that have become visible
            // (issue cycle before the barrier). Delivered before the commit
            // check so a committing region is fully drained.
            completions.clear();
            self.memory.drain_completions_into(&mut completions);
            if let Some(r) = region.as_mut() {
                r.drain_completions_into(now, &mut completions);
            }
            for completion in &completions {
                self.cores[completion.core].note_completion(completion.id, completion.completion);
            }

            // Commit: the barrier clock caught up with the speculated
            // horizon and no core-visible event invalidated the surviving
            // shards — their free-run state simply *is* the live state.
            if region.as_ref().is_some_and(|r| now >= r.spec) {
                let r = region.take().expect("region presence checked");
                r.debug_assert_fully_delivered();
                if r.rolled_back() {
                    spec_holdoff = spec_penalty;
                    spec_penalty = (spec_penalty * 4).min(4096);
                } else {
                    // Decay rather than reset: one lucky commit inside a
                    // rollback-heavy phase must not re-open the floodgates.
                    spec_penalty = (spec_penalty / 2).max(1);
                }
                r.finish(&mut engine);
            }

            if !warm_taken && now >= warmup_end {
                // Deferred cross-ACT batches must reach the mechanism's
                // counters before the snapshot (their delivery changes no
                // decision — the quiescent credit proved every response a
                // nop — but the observation tallies move).
                self.memory.flush_act_batches();
                warm = self.warm_snapshot();
                warm_taken = true;
            }

            // Advance the cores, deriving the window end: the earliest cycle
            // at which any core can next observe or influence the memory
            // system. Where the serial loop re-advances every blocked core
            // after every memory event, this loop skips re-advances it can
            // prove are no-ops: a core that blocked reports — *at blocking
            // time* — the first cycle it could possibly progress at (its
            // known wake, or one cycle past its blocking shard's next event,
            // the serial loop's wake-after-issue cadence), and is not
            // re-advanced before that cycle. The hint must be captured when
            // the core blocks, not recomputed later: once the window has
            // stepped the blocking shard, its cached bound has moved past
            // the very event the core is waiting to observe.
            // Cores talk to the memory system through the speculation-aware
            // sink: a transparent pass-through while no region is live, the
            // recorded-timeline oracle (and rollback trigger) inside one.
            let mut until = end;
            {
                let mut sink = SpecSink { memory: &mut self.memory, region: region.as_mut(), now };
                for (core, state) in self.cores.iter_mut().zip(&mut core_state) {
                    let bound = match *state {
                        CoreLoopState::Sleeping(w) if now < w => w,
                        CoreLoopState::Blocked(h) if now < h => h,
                        _ => match core.advance(now, &mut sink) {
                            Some(w) => {
                                *state = CoreLoopState::Sleeping(w);
                                w
                            }
                            None => {
                                // `blocked_wake` is a wake hint, not a skip
                                // bound: once the dispatch clock has passed
                                // the oldest read's completion, the very
                                // next re-advance retires it, whatever cycle
                                // that completion maps to.
                                let wake = if core.front_read_retires_on_advance() {
                                    Some(now + 1)
                                } else {
                                    core.blocked_wake()
                                };
                                let hint = wake
                                    .or_else(|| {
                                        core.blocking_channel().map(|channel| {
                                            let bound = sink.shard_next_event(channel);
                                            // Window full behind a read whose
                                            // completion is unknown — i.e. whose
                                            // column command has not issued (an
                                            // issued one's completion is drained
                                            // at the barrier before this advance)
                                            // — cannot retire before the shard's
                                            // next issue opportunity plus the
                                            // data-return latency. A queue-full
                                            // stall only needs the shard's next
                                            // command (+1 for visibility).
                                            let delay = if core.window_blocked() { read_return } else { 1 };
                                            bound.saturating_add(delay)
                                        })
                                    })
                                    // Unreachable today (blocked cores always
                                    // report a wake or a blocking channel);
                                    // degrade to the serial per-event cadence.
                                    .unwrap_or(now + 1)
                                    .max(now + 1);
                                *state = CoreLoopState::Blocked(hint);
                                hint
                            }
                        },
                    };
                    until = until.min(bound.max(now + 1));
                }
            }
            if !warm_taken {
                until = until.min(warmup_end);
            }
            if let Some(r) = &region {
                // Never step past the horizon: the commit fires exactly when
                // the barrier clock reaches it.
                until = until.min(r.spec);
            }
            until = until.clamp(now + 1, end);
            if let Some(state) = jitter_state.as_mut() {
                let span = until - now;
                if span > 1 {
                    until = now + 1 + splitmix64(state) % span;
                }
            }

            // Launch a speculative region when the horizon actually extends
            // past the proven window (never across the warmup boundary —
            // the snapshot there must read settled state).
            if let Some(depth) = speculate {
                if region.is_none() {
                    if spec_holdoff > 0 {
                        spec_holdoff -= 1;
                    } else {
                        let mut spec = now.saturating_add((until - now).saturating_mul(depth)).min(end);
                        if !warm_taken {
                            spec = spec.min(warmup_end);
                        }
                        if spec > until {
                            let _span = comet_telemetry::span("sim.window.speculate");
                            let shards = self.memory.speculate(now, spec, &pool);
                            region = Some(SpecRegion::new(now, spec, shards));
                            engine.speculation_regions += 1;
                        }
                    }
                }
            }

            let span = until - now;
            engine.windows += 1;
            engine.window_cycles_sum += span;
            engine.window_cycles_max = engine.window_cycles_max.max(span);
            let bucket = WINDOW_CYCLES_BOUNDS
                .iter()
                .position(|&b| span as f64 <= b)
                .unwrap_or(WINDOW_CYCLES_BOUNDS.len());
            engine.window_bucket_counts[bucket] += 1;
            if let Some(r) = region.as_mut() {
                r.windows += 1;
            }

            // Inside a region this is a no-op fan-out: every speculated
            // shard's cached next-event time sits at or past the horizon,
            // so only rolled-back (live-again) shards can be due.
            self.memory.step_until(now, until, &pool);
            now = until;
        }

        // A region still live at the end of the run (horizon == end)
        // commits implicitly; completions whose issue lies inside the final
        // window stay undelivered exactly like live shard buffers do.
        if let Some(r) = region.take() {
            r.finish(&mut engine);
        }
        self.memory.flush_act_batches();
        self.assemble(label, &warm, engine)
    }

    /// Snapshots every statistic for warmup exclusion.
    fn warm_snapshot(&self) -> WarmSnapshot {
        WarmSnapshot {
            core: self
                .cores
                .iter()
                .map(|c| CoreSnapshot {
                    instructions: c.instructions(),
                    reads: c.reads_issued(),
                    writes: c.writes_issued(),
                })
                .collect(),
            ctrl: self.memory.stats(),
            energy: self.memory.energy_counters(0),
            mitigation: self.memory.mitigation_stats(),
            channel: self.memory.channel_stats(),
            members: crate::lockstep::member_stats(self),
        }
    }

    /// Assembles the measured (post-warmup) result and publishes the run's
    /// telemetry into the process-global metrics registry.
    fn assemble(self, label: String, warm: &WarmSnapshot, engine: EngineTelemetry) -> RunResult {
        let result = self.measure(label, warm, engine);
        crate::telemetry::publish_run(&result, comet_telemetry::global());
        result
    }

    /// The measured (post-warmup) result of the finished run.
    pub(crate) fn measure(
        &self,
        label: String,
        warm: &WarmSnapshot,
        mut engine: EngineTelemetry,
    ) -> RunResult {
        let measured_cycles = self.config.total_cycles() - self.config.warmup_cycles;
        let ctrl = self.memory.stats().delta_since(&warm.ctrl);
        let mut energy = self.memory.energy_counters(0).delta_since(&warm.energy);
        energy.elapsed_cycles = measured_cycles;
        let mitigation = self.memory.mitigation_stats().delta_since(&warm.mitigation);
        let channel_now = self.memory.channel_stats();
        let acts = channel_now.acts - warm.channel.acts;

        let timing = &self.config.dram.timing;
        let cpu_cycles = self.cores[0].dram_to_cpu(measured_cycles);
        let per_core_instructions: Vec<u64> =
            self.cores.iter().zip(&warm.core).map(|(c, w)| c.instructions() - w.instructions).collect();
        let per_core_ipc: Vec<f64> = per_core_instructions.iter().map(|&i| i as f64 / cpu_cycles).collect();
        let total_reads: u64 =
            self.cores.iter().zip(&warm.core).map(|(c, w)| c.reads_issued() - w.reads).sum();
        let total_writes: u64 =
            self.cores.iter().zip(&warm.core).map(|(c, w)| c.writes_issued() - w.writes).sum();

        // Background energy scales with every rank of every channel.
        let total_ranks = self.config.dram.geometry.ranks_per_channel * self.config.dram.geometry.channels;
        let energy_breakdown = self.config.dram.energy.breakdown(&energy, timing, total_ranks);

        // End-of-run structure snapshots for the telemetry layer — all cold
        // accessors, gathered once here, never on the simulated path.
        engine.scheduler = self.memory.per_channel_scheduler_pressure();
        engine.bank_depth_peak = self
            .memory
            .per_channel_bank_queue_depths()
            .iter()
            .map(|lanes| lanes.iter().map(|l| l.depth_peak).max().unwrap_or(0))
            .collect();
        engine.tracker_gauges = self.memory.per_channel_mitigation_telemetry();

        RunResult {
            label,
            mechanism: self.memory.mitigation_name().to_string(),
            cores: self.cores.len(),
            dram_cycles: measured_cycles,
            cpu_cycles,
            instructions: per_core_instructions.iter().sum(),
            per_core_ipc: per_core_ipc.clone(),
            ipc: per_core_ipc.iter().sum(),
            reads: total_reads,
            writes: total_writes,
            activations: acts,
            avg_read_latency_ns: timing.cycles_to_ns(1) * ctrl.avg_read_latency(),
            energy_nj: energy_breakdown.total_nj(),
            energy_breakdown,
            controller: ctrl,
            mitigation,
            engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_mitigations::{FnFactory, NoMitigation};
    use comet_trace::{catalog, SyntheticTrace};

    fn trace(name: &str, seed: u64, dram: &DramConfig) -> Box<dyn TraceSource> {
        Box::new(SyntheticTrace::new(catalog::workload(name).unwrap(), dram.geometry.clone(), seed))
    }

    fn baseline() -> FnFactory {
        FnFactory::new("Baseline", |_channel| Box::new(NoMitigation::new()))
    }

    #[test]
    fn single_core_run_produces_sane_metrics() {
        let config = SimConfig::quick_test();
        let t = trace("429.mcf", 1, &config.dram);
        let system = System::new(config, vec![t], &baseline());
        let result = system.run("mcf-baseline");
        assert!(result.ipc > 0.05 && result.ipc < 4.0, "ipc = {}", result.ipc);
        assert!(result.reads > 100, "reads = {}", result.reads);
        assert!(result.activations > 10);
        assert!(result.avg_read_latency_ns > 10.0, "latency = {}", result.avg_read_latency_ns);
        assert!(result.energy_nj > 0.0);
    }

    #[test]
    fn low_intensity_workload_has_higher_ipc_than_high_intensity() {
        let config = SimConfig::quick_test();
        let low =
            System::new(config.clone(), vec![trace("541.leela", 3, &config.dram)], &baseline()).run("low");
        let high =
            System::new(config.clone(), vec![trace("bfs_ny", 3, &config.dram)], &baseline()).run("high");
        assert!(
            low.ipc > high.ipc,
            "low-intensity IPC {} must exceed high-intensity IPC {}",
            low.ipc,
            high.ipc
        );
    }

    #[test]
    fn eight_core_run_accumulates_per_core_ipc() {
        let mut config = SimConfig::quick_test();
        config.sim_cycles = 150_000;
        let traces: Vec<Box<dyn TraceSource>> =
            (0..8).map(|i| trace("450.soplex", i as u64, &config.dram)).collect();
        let system = System::new(config, traces, &baseline());
        let result = system.run("soplex-x8");
        assert_eq!(result.cores, 8);
        assert_eq!(result.per_core_ipc.len(), 8);
        assert!(result.ipc > 0.0);
        // Shared-channel contention keeps the sum well under 8× the single-core IPC.
        assert!(result.ipc < 16.0);
    }

    /// The optimistic engine is pure execution policy: for every speculation
    /// depth and channel count, a speculative run must reproduce the serial
    /// loop's results bit-for-bit — including the mitigation's decisions.
    #[test]
    fn speculative_run_is_bit_exact_with_serial() {
        use comet_mitigations::PerRowCounters;
        for channels in [1usize, 2] {
            let mut config = SimConfig::quick_test().with_channels(channels);
            config.sim_cycles = 150_000;
            let timing = config.dram.timing.clone();
            let geometry = config.dram.geometry.clone();
            let factory = FnFactory::new("PerRow", move |_channel| {
                Box::new(PerRowCounters::new(64, &timing, geometry.clone()))
            });
            let traces = |config: &SimConfig| -> Vec<Box<dyn TraceSource>> {
                vec![trace("bfs_ny", 1, &config.dram), trace("429.mcf", 2, &config.dram)]
            };
            let serial = System::new(config.clone(), traces(&config), &factory).run("serial");
            let mut rollbacks_seen = 0u64;
            for depth in [1u64, 2, 7, 64] {
                let spec = System::new(config.clone(), traces(&config), &factory)
                    .run_sharded_speculative("spec", 1, depth);
                assert_eq!(serial.instructions, spec.instructions, "depth {depth}, {channels}ch");
                assert_eq!(serial.reads, spec.reads, "depth {depth}, {channels}ch");
                assert_eq!(serial.writes, spec.writes, "depth {depth}, {channels}ch");
                assert_eq!(serial.activations, spec.activations, "depth {depth}, {channels}ch");
                assert_eq!(serial.controller, spec.controller, "depth {depth}, {channels}ch");
                assert_eq!(serial.mitigation, spec.mitigation, "depth {depth}, {channels}ch");
                // Depth 1 speculates exactly the proven window — a no-op by
                // construction, so no region ever launches.
                if depth > 1 {
                    assert!(
                        spec.engine.speculation_regions > 0,
                        "depth {depth}, {channels}ch: the optimistic engine never launched a region"
                    );
                } else {
                    assert_eq!(spec.engine.speculation_regions, 0, "depth 1 must be a no-op");
                }
                // Every speculated shard of every region either committed
                // or rolled back — none may vanish unaccounted.
                assert_eq!(
                    spec.engine.speculation_commits + spec.engine.speculation_rollbacks,
                    spec.engine.speculation_regions * channels as u64,
                    "depth {depth}, {channels}ch"
                );
                rollbacks_seen += spec.engine.speculation_rollbacks;
            }
            // A memory-hungry mix keeps enqueueing mid-region: the rollback
            // path must actually run here, or this test proves nothing
            // about replay fidelity.
            assert!(rollbacks_seen > 0, "{channels}ch: no speculation was ever rolled back");
        }
    }

    /// Regression: the windowed engine used a blocked core's wake hint as a
    /// bound before which re-advancing it was a no-op. When the core's
    /// dispatch clock has already passed the oldest read's completion, the
    /// very next re-advance retires that read, so skipping to the hint
    /// changed the run (this smoke cell's IPC drifted in the 6th digit).
    #[test]
    fn windowed_engine_matches_serial_when_the_clock_passed_the_front_read() {
        use crate::experiments::ExperimentScope;
        use crate::runner::{MechanismKind, Runner};
        let runner = Runner::new(ExperimentScope::Smoke.sim_config());
        let serial = runner.run_single_core("473.astar", MechanismKind::Para, 125).unwrap();
        let windowed = runner
            .clone()
            .with_shard_threads(1)
            .run_single_core("473.astar", MechanismKind::Para, 125)
            .unwrap();
        assert_eq!(serde_json::to_string(&serial).unwrap(), serde_json::to_string(&windowed).unwrap());
        assert_eq!(serial.controller, windowed.controller);
        assert_eq!(serial.energy_breakdown, windowed.energy_breakdown);
    }

    #[test]
    fn quick_config_scales_tracker_window_only() {
        let full = SimConfig::paper_full();
        let quick = SimConfig::quick(8);
        assert_eq!(quick.dram.timing.t_refi, full.dram.timing.t_refi);
        assert!(quick.dram.timing.t_refw < full.dram.timing.t_refw);
        assert!(quick.total_cycles() < full.total_cycles());
    }

    #[test]
    fn with_channels_builds_one_shard_per_channel() {
        let config = SimConfig::quick_test().with_channels(2);
        assert_eq!(config.channels(), 2);
        let t = trace("429.mcf", 1, &config.dram);
        let system = System::new(config, vec![t], &baseline());
        assert_eq!(system.channel_count(), 2);
    }

    #[test]
    fn multi_channel_run_spreads_load_and_improves_bandwidth() {
        let mut config = SimConfig::quick_test();
        config.sim_cycles = 150_000;
        // Eight memory-hungry cores saturate one channel; with four channels
        // the same workload must retire at least as many instructions.
        let one = {
            let traces: Vec<Box<dyn TraceSource>> =
                (0..8).map(|i| trace("bfs_ny", i as u64, &config.dram)).collect();
            System::new(config.clone(), traces, &baseline()).run("one-channel")
        };
        let four_config = config.clone().with_channels(4);
        let four = {
            let traces: Vec<Box<dyn TraceSource>> =
                (0..8).map(|i| trace("bfs_ny", i as u64, &four_config.dram)).collect();
            System::new(four_config, traces, &baseline()).run("four-channels")
        };
        assert!(
            four.ipc > one.ipc,
            "four channels ({}) must outperform one ({}) for a bandwidth-bound mix",
            four.ipc,
            one.ipc
        );
    }
}
