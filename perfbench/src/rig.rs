//! The three serving paths the benchmark drives, each only through public
//! library calls: an in-process `ExperimentService` over a cache directory
//! (cold or pre-populated), or a `Daemon` coordinating one in-process
//! `run_worker` over loopback TCP. Plus one plan pass over any backend.

use crate::digest::{self, Digests};
use crate::host;
use comet_bench::hotpath::stats_checksum;
use comet_service::protocol::{LineConn, LineEvent};
use comet_service::targets::{run_target, KNOWN_TARGETS};
use comet_service::{
    run_worker, Daemon, ExperimentService, Fleet, LeaseConfig, ServiceError, WorkerConfig, WorkerReport,
};
use comet_sim::experiments::{CellBackend, CellSpec, ExperimentScope, ParallelExecutor};
use comet_sim::{RunResult, Runner, RunnerError};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process service on an empty cache directory.
    Cold,
    /// In-process service on a cache directory populated beforehand.
    Warm,
    /// Coordinator daemon plus one TCP worker, on an empty cache directory.
    Fleet,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "smoke-cold" => Some(Workload::Cold),
            "smoke-warm" => Some(Workload::Warm),
            "fleet-cold" => Some(Workload::Fleet),
            _ => None,
        }
    }
}

/// Worker threads the fleet worker advertises (it simulates one lease at a
/// time whatever it advertises).
pub const WORKER_THREADS: usize = 1;

/// The CPU a workload's one busy thread (the fleet worker, the smoke-warm
/// plan thread) is pinned to, so that the host reference can be timed on
/// the core that does the work: the last one this process may use.
pub fn pinned_cpu() -> usize {
    host::allowed_cpus().last().copied().unwrap_or(0)
}

struct FleetParts {
    daemon: Arc<Daemon>,
    addr: String,
    stop: Arc<AtomicBool>,
    worker: JoinHandle<Result<WorkerReport, ServiceError>>,
    serving: JoinHandle<std::io::Result<()>>,
}

/// One opened serving path.
pub struct Rig {
    pub service: Arc<ExperimentService>,
    fleet: Option<FleetParts>,
}

impl Rig {
    /// Opens the service on `dir` and, for the fleet path, starts the daemon
    /// and its worker and waits for the worker's registration.
    pub fn open(workload: Workload, dir: &Path, threads: usize) -> Result<Rig, String> {
        let service = ExperimentService::with_cache_dir(ParallelExecutor::with_threads(threads), dir)
            .map_err(|error| format!("open cache {}: {error}", dir.display()))?;
        let service = Arc::new(service);
        if workload != Workload::Fleet {
            return Ok(Rig { service, fleet: None });
        }
        let daemon = Arc::new(
            Daemon::with_queue_bound(service.clone(), 1, 64)
                .with_fleet(Arc::new(Fleet::new(LeaseConfig::default()))),
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|error| format!("bind: {error}"))?;
        let addr = listener.local_addr().map_err(|error| error.to_string())?.to_string();
        let serving = {
            let daemon = daemon.clone();
            std::thread::spawn(move || daemon.serve_listeners(None, Some(listener), None))
        };
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let config = WorkerConfig {
                addr: addr.clone(),
                threads: WORKER_THREADS,
                identity: 1,
                ..WorkerConfig::default()
            };
            let (stop, cpu) = (stop.clone(), pinned_cpu());
            std::thread::spawn(move || {
                host::pin_to(cpu);
                run_worker(&config, &stop)
            })
        };
        let rig = Rig { service, fleet: Some(FleetParts { daemon, addr, stop, worker, serving }) };
        let deadline = Instant::now() + Duration::from_secs(20);
        while rig.service.stats().workers_live < 1 {
            if Instant::now() > deadline {
                rig.close()?;
                return Err("fleet worker did not register within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(rig)
    }

    /// Stops the worker and the daemon (if any) and waits for their threads.
    pub fn close(self) -> Result<(), String> {
        let Some(fleet) = self.fleet else { return Ok(()) };
        fleet.stop.store(true, Ordering::Release);
        let report = fleet.worker.join().map_err(|_| "fleet worker panicked".to_string())?;
        report.map_err(|error| format!("fleet worker: {error}"))?;
        if !fleet.daemon.is_shutdown() {
            shutdown(&fleet.addr)?;
        }
        fleet.serving.join().map_err(|_| "daemon panicked".to_string())?.map_err(|error| error.to_string())
    }
}

/// Sends `shutdown` to the daemon and waits for its acknowledgement.
fn shutdown(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|error| format!("connect for shutdown: {error}"))?;
    stream.set_read_timeout(Some(Duration::from_millis(200))).map_err(|error| error.to_string())?;
    let mut conn = LineConn::new(stream);
    conn.write_line("{\"op\":\"shutdown\",\"id\":1}").map_err(|error| error.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        match conn.read_event() {
            Ok(LineEvent::Line(line)) if line.contains("\"shutdown\":true") => return Ok(()),
            Ok(LineEvent::Line(line)) => return Err(format!("shutdown refused: {line}")),
            Ok(LineEvent::TimedOut) => {}
            Ok(LineEvent::Eof { .. }) | Err(_) => break,
        }
    }
    Err("daemon did not acknowledge shutdown".to_string())
}

/// The served targets in a seed-determined order (a Fisher-Yates shuffle
/// driven by a 64-bit xorshift). Every order produces the same outputs.
pub fn target_order(seed: u64) -> Vec<&'static str> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut order = KNOWN_TARGETS.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// User plus system CPU seconds of this process, and its peak RSS in KiB.
pub fn rusage() -> (f64, u64) {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: RUSAGE_SELF (0) fills the whole struct, whose layout matches
    // the 64-bit Linux `struct rusage`.
    let usage = unsafe {
        assert_eq!(getrusage(0, usage.as_mut_ptr()), 0, "getrusage failed");
        usage.assume_init()
    };
    let seconds = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    (seconds(&usage.utime) + seconds(&usage.stime), usage.maxrss as u64)
}

/// What one pass of the plan produced.
pub struct Pass {
    /// Wall seconds of the plan: the sum of its targets' times.
    pub wall_s: f64,
    /// User + system CPU seconds of the whole process over the targets.
    pub cpu_s: f64,
    /// `wall_s` and `cpu_s` in nominal-host seconds (see [`host`]); equal to
    /// them when the pass was not calibrated.
    pub scaled_wall_s: f64,
    pub scaled_cpu_s: f64,
    /// Reference samples taken around the targets (empty when uncalibrated).
    pub references: Vec<host::Sample>,
    pub digests: Digests,
    /// Cells requested per target.
    pub cells: BTreeMap<String, u64>,
    /// Wall milliseconds per target.
    pub target_ms: BTreeMap<String, f64>,
    /// Targets that returned an error, with the error.
    pub errors: Vec<(String, String)>,
}

impl Pass {
    /// Scales the whole pass by the reference samples taken just before
    /// and just after it.
    pub fn calibrate(&mut self, before: host::Sample, after: host::Sample) {
        let (wall_scale, cpu_scale) = host::scale(before, after);
        self.scaled_wall_s = self.wall_s * wall_scale;
        self.scaled_cpu_s = self.cpu_s * cpu_scale;
        self.references = vec![before, after];
    }

    pub fn requested(&self) -> u64 {
        self.cells.values().sum()
    }

    /// Cells of the targets whose output disagrees with `expected` or that
    /// failed outright.
    pub fn failed_cells(&self, expected: &Digests) -> u64 {
        let mut bad = digest::disagreeing(expected, &self.digests);
        bad.extend(self.errors.iter().map(|(name, _)| name.clone()));
        bad.sort_unstable();
        bad.dedup();
        bad.iter().map(|name| self.cells.get(name).copied().unwrap_or(0).max(1)).sum()
    }
}

/// Runs every target in `order` through `backend`, timing each target.
/// `requested` reads the backend's running count of requested cells. With
/// `calibrate: Some(cpus)`, the host reference runs on each of `cpus`
/// before the first target and after every target, and each target's time is scaled by the two samples around
/// it; the reference's own time is in no target's.
pub fn run_pass(
    order: &[&str],
    backend: &dyn CellBackend,
    requested: &dyn Fn() -> u64,
    calibrate: Option<&[usize]>,
) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        scaled_wall_s: 0.0,
        scaled_cpu_s: 0.0,
        references: Vec::new(),
        digests: Digests::new(),
        cells: BTreeMap::new(),
        target_ms: BTreeMap::new(),
        errors: Vec::new(),
    };
    let mut reference = calibrate.map_or(host::Sample::NOMINAL, host::Sample::take);
    if calibrate.is_some() {
        pass.references.push(reference);
    }
    let _plan = comet_telemetry::span("bench.plan");
    for &name in order {
        let before = requested();
        let (cpu_before, _) = rusage();
        let began = Instant::now();
        {
            let _target = comet_telemetry::span("bench.target");
            match run_target(name, ExperimentScope::Smoke, backend) {
                Ok(Some(json)) => {
                    pass.digests.insert(name.to_string(), digest::digest_hex(&json));
                }
                Ok(None) => pass.errors.push((name.to_string(), "unknown target".to_string())),
                Err(error) => pass.errors.push((name.to_string(), error.to_string())),
            }
        }
        let wall_s = began.elapsed().as_secs_f64();
        let cpu_s = rusage().0 - cpu_before;
        pass.cells.insert(name.to_string(), requested() - before);
        pass.target_ms.insert(name.to_string(), wall_s * 1e3);
        let (wall_scale, cpu_scale) = match calibrate {
            Some(cpus) => {
                let after = host::Sample::take(cpus);
                pass.references.push(after);
                let scale = host::scale(reference, after);
                reference = after;
                scale
            }
            None => (1.0, 1.0),
        };
        pass.wall_s += wall_s;
        pass.cpu_s += cpu_s;
        pass.scaled_wall_s += wall_s * wall_scale;
        pass.scaled_cpu_s += cpu_s * cpu_scale;
    }
    pass
}

/// Every batch a [`Recorder`] forwarded.
#[derive(Default)]
pub struct Log {
    pub requested: u64,
    /// `stats_checksum` of every returned result, in request order.
    pub checksums: Vec<u64>,
    /// The batches themselves, when kept.
    pub batches: Vec<(Runner, Vec<CellSpec>, Vec<RunResult>)>,
}

/// A pass-through backend recording what the plan asked for and got back.
pub struct Recorder<'a> {
    inner: &'a dyn CellBackend,
    keep: bool,
    log: Mutex<Log>,
}

impl<'a> Recorder<'a> {
    pub fn new(inner: &'a dyn CellBackend, keep: bool) -> Self {
        Recorder { inner, keep, log: Mutex::default() }
    }

    pub fn requested(&self) -> u64 {
        self.lock().requested
    }

    pub fn into_log(self) -> Log {
        self.log.into_inner().expect("a batch panicked while holding the log")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("a batch panicked while holding the log")
    }
}

impl CellBackend for Recorder<'_> {
    fn run_cells(&self, runner: &Runner, cells: &[CellSpec]) -> Result<Vec<RunResult>, RunnerError> {
        self.lock().requested += cells.len() as u64;
        let results = self.inner.run_cells(runner, cells)?;
        let mut log = self.lock();
        log.checksums.extend(results.iter().map(stats_checksum));
        if self.keep {
            log.batches.push((runner.clone(), cells.to_vec(), results.clone()));
        }
        Ok(results)
    }
}
