//! The repository benchmark: the smoke sweep (every served target of
//! `comet_service::targets`) on three serving paths, timed end to end, plus
//! a traced run that splits the time across the program's layers.
//!
//! ```text
//! perfbench run --workload smoke-cold|smoke-warm|fleet-cold --seed N --seconds S --trace 0|1
//!               --work DIR [--template DIR] [--rustc TEXT] [--rev TEXT]
//! perfbench populate --cache DIR      # the untimed pass smoke-warm starts from
//! perfbench digests --work DIR        # print the output digests of one cold pass
//! ```
//!
//! The last line of `run` is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `perfbench/run.py` builds this binary and calls it.

mod digest;
mod host;
mod probe;
mod rig;
mod spans;
mod stats;

use comet_service::{cell_key, ResultStore, ServiceStats};
use comet_sim::MechanismKind;
use digest::Digests;
use probe::{Probes, TracedBackend};
use rig::{run_pass, Pass, Recorder, Rig, Workload};
use spans::Span;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Output digests of every served target, pinned from a cold pass.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.json");

/// The seed every plan's `Runner::new` uses; recorded, not chosen.
const PLAN_SEED: u64 = 0xC0E7;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&Flags::parse(&args[1..])),
        Some("populate") => populate(&Flags::parse(&args[1..])),
        Some("digests") => print_digests(&Flags::parse(&args[1..])),
        _ => Err("usage: perfbench run|populate|digests [flags]".to_string()),
    };
    if let Err(error) = outcome {
        eprintln!("perfbench: {error}");
        std::process::exit(1);
    }
}

struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut flags = HashMap::new();
        for pair in args.chunks(2) {
            if let [flag, value] = pair {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
        }
        Flags(flags)
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0.get(name).map(String::as_str).ok_or_else(|| format!("missing --{name}"))
    }

    fn number(&self, name: &str) -> Result<u64, String> {
        self.get(name)?.parse().map_err(|_| format!("--{name} must be a whole number"))
    }

    fn text(&self, name: &str) -> String {
        self.0.get(name).cloned().unwrap_or_else(|| "unknown".to_string())
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn expected() -> Result<Digests, String> {
    digest::parse_expected(EXPECTED_DIGESTS)
}

/// One cold pass of the plan (seed-0 target order) into the cache at `dir`.
fn cold_pass(dir: &Path) -> Result<Pass, String> {
    let rig = Rig::open(Workload::Cold, dir, threads())?;
    let pass = run_pass(&rig::target_order(0), &*rig.service, &|| rig.service.stats().cells_requested, None);
    rig.close()?;
    Ok(pass)
}

/// A cold pass into `--cache`, left behind as the cache smoke-warm recovers.
fn populate(flags: &Flags) -> Result<(), String> {
    let pass = cold_pass(Path::new(flags.get("cache")?))?;
    let failed = pass.failed_cells(&expected()?);
    if failed > 0 {
        return Err(format!("populating pass disagrees with the expected outputs on {failed} cell(s)"));
    }
    Ok(())
}

/// Prints the digests of a cold pass, in the format of `expected_digests.json`.
fn print_digests(flags: &Flags) -> Result<(), String> {
    let dir = PathBuf::from(flags.get("work")?).join("digests-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let pass = cold_pass(&dir)?;
    let _ = std::fs::remove_dir_all(&dir);
    if let Some((name, error)) = pass.errors.first() {
        return Err(format!("target {name} failed: {error}"));
    }
    let body: Vec<String> =
        pass.digests.iter().map(|(name, digest)| format!("  \"{name}\": \"{digest}\"")).collect();
    println!("{{\n{}\n}}", body.join(",\n"));
    Ok(())
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    provenance: Vec<(String, String)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    fn fail(&mut self, cells: u64, why: String) {
        self.failed += cells;
        self.notes.push(why);
    }

    /// Counts the cells whose checksums differ from the untraced pass.
    fn compare(&mut self, label: &str, reference: &[u64], traced: &[u64]) {
        let mismatched = digest::checksum_mismatches(reference, traced) as u64;
        if mismatched > 0 {
            self.fail(
                mismatched,
                format!("{label}: {mismatched} cell checksum(s) differ from the untraced pass"),
            );
        }
    }

    /// Checks one pass's outputs against the expected digests.
    fn check(&mut self, label: &str, pass: &Pass, expected: &Digests) {
        self.attempted += pass.requested();
        let failed = pass.failed_cells(expected);
        if failed > 0 {
            let bad = digest::disagreeing(expected, &pass.digests);
            self.fail(failed, format!("{label}: outputs differ on {bad:?}, errors {:?}", pass.errors));
        }
    }
}

fn json_string(text: &str) -> String {
    let escaped: String = text
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn run(flags: &Flags) -> Result<(), String> {
    let name = flags.get("workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = flags.number("seed")?;
    let seconds = flags.number("seconds")?.max(1);
    let traced = flags.number("trace")? == 1;
    let work = PathBuf::from(flags.get("work")?);
    let template = flags.0.get("template").map(PathBuf::from);
    if workload == Workload::Warm && template.is_none() {
        return Err("smoke-warm needs --template".to_string());
    }
    std::fs::create_dir_all(&work).map_err(|error| format!("create {}: {error}", work.display()))?;
    let bench = Bench {
        workload,
        order: rig::target_order(seed),
        threads: threads(),
        work,
        template,
        expected: expected()?,
        next_dir: std::cell::Cell::new(0),
    };

    let mut report = Report::default();
    if traced {
        bench.traced(&mut report)?;
    } else {
        bench.timed(Duration::from_secs(seconds), &mut report)?;
    }

    report.note("workload", name);
    report.note("seed", seed);
    report.note("plan_seed", format!("{PLAN_SEED:#x} (fixed by the plan functions)"));
    report.note("target_order", bench.order.join(","));
    report.note("nproc", threads());
    report.note("cpu_model", cpu_model());
    report.note("rustc", flags.text("rustc"));
    report.note("git_rev", flags.text("rev"));
    report.note("executor_threads", bench.threads);
    report.note(
        "worker_threads",
        if workload == Workload::Fleet { rig::WORKER_THREADS.to_string() } else { "none".to_string() },
    );
    report.note("expected_digest", digest::combined(&bench.expected));
    for note in &report.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let provenance: Vec<String> = report
        .provenance
        .iter()
        .map(|(key, value)| format!("{}:{}", json_string(key), json_string(value)))
        .collect();
    println!("{{\"provenance\":{{{}}}}}", provenance.join(","));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_string(&m.name), m.value, json_string(m.unit))
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    Ok(())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Passes a cold or fleet run makes even when fewer fill `--seconds`: a
/// single 20-second pass leaves the median at the mercy of host drift.
const MIN_COLD_PASSES: usize = 2;

/// Set-up samples taken after every pass. Interleaving them with the passes
/// spreads them over the run, so their median does not hang on whichever
/// speed the host happens to run at in one instant.
fn setups_per_pass(workload: Workload) -> usize {
    match workload {
        Workload::Cold => 50,
        Workload::Warm => 1,
        Workload::Fleet => 6,
    }
}

struct Bench {
    workload: Workload,
    order: Vec<&'static str>,
    threads: usize,
    work: PathBuf,
    template: Option<PathBuf>,
    expected: Digests,
    next_dir: std::cell::Cell<u32>,
}

impl Bench {
    /// A fresh cache directory: empty for the cold paths, a copy of the
    /// populated template for smoke-warm.
    fn cache_dir(&self) -> Result<PathBuf, String> {
        let index = self.next_dir.get();
        self.next_dir.set(index + 1);
        let dir = self.work.join(format!("cache-{index}"));
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(template) = self.template.as_ref().filter(|_| self.workload == Workload::Warm) {
            copy_dir(template, &dir)?;
        }
        Ok(dir)
    }

    fn open(&self, dir: &Path) -> Result<(Rig, f64), String> {
        let started = Instant::now();
        let rig = Rig::open(self.workload, dir, self.threads)?;
        Ok((rig, started.elapsed().as_secs_f64()))
    }

    fn pass(&self, rig: &Rig) -> (Pass, ServiceStats) {
        let before = rig.service.stats();
        // The reference runs on the cores that simulate: all of them under
        // the executor, the fleet worker's own. A warm pass is too short to
        // calibrate target by target; `timed` calibrates it as a whole.
        let cpus = match self.workload {
            Workload::Cold => Some(host::allowed_cpus()),
            Workload::Fleet => Some(vec![rig::pinned_cpu()]),
            Workload::Warm => None,
        };
        let pass =
            run_pass(&self.order, &*rig.service, &|| rig.service.stats().cells_requested, cpus.as_deref());
        (pass, rig.service.stats().delta_since(&before))
    }

    /// Workload-specific sanity of one pass's service counters.
    fn check_stats(&self, report: &mut Report, stats: &ServiceStats) {
        if self.workload == Workload::Warm && stats.simulated > 0 {
            report.fail(stats.simulated, format!("smoke-warm simulated {} cell(s)", stats.simulated));
        }
        if stats.failed > 0 {
            report.fail(stats.failed, format!("{} cell simulation(s) failed", stats.failed));
        }
    }

    /// Opens and closes the path `count` times, recording each set-up time.
    fn sample_setups(
        &self,
        count: usize,
        warm_dir: Option<&Path>,
        setups: &mut Vec<f64>,
    ) -> Result<(), String> {
        for _ in 0..count {
            let dir = match warm_dir {
                Some(dir) => dir.to_path_buf(),
                None => self.cache_dir()?,
            };
            let (rig, took) = self.open(&dir)?;
            setups.push(took);
            rig.close()?;
            if warm_dir.is_none() {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        Ok(())
    }

    /// `--trace 0`: repeated passes for the run's duration; pass times are
    /// scaled to the nominal host (see [`host`]) and their medians reported.
    /// Set-ups are not scaled: the median is reported, except on smoke-warm,
    /// whose hundreds of millisecond set-ups give a steadier fastest.
    fn timed(&self, seconds: Duration, report: &mut Report) -> Result<(), String> {
        let mut setups = Vec::new();
        let mut passes: Vec<Pass> = Vec::new();
        let mut stats = Vec::new();
        let extra = setups_per_pass(self.workload);
        let started = Instant::now();
        if self.workload == Workload::Warm {
            // One warm service, replayed: every pass is all hits. The warm
            // cache is only read, so extra set-ups may open it alongside.
            // The plan runs on this thread, pinned, with the reference on
            // the same core before and after every pass.
            let cpu = rig::pinned_cpu();
            host::pin_to(cpu);
            let dir = self.cache_dir()?;
            let (rig, took) = self.open(&dir)?;
            setups.push(took);
            let mut reference = host::Sample::take(&[cpu]);
            while passes.is_empty() || started.elapsed() < seconds {
                let (mut pass, delta) = self.pass(&rig);
                let after = host::Sample::take(&[cpu]);
                pass.calibrate(reference, after);
                reference = after;
                passes.push(pass);
                stats.push(delta);
                self.sample_setups(extra, Some(&dir), &mut setups)?;
            }
            rig.close()?;
        } else {
            // Every cold pass starts from a fresh, empty cache.
            loop {
                let dir = self.cache_dir()?;
                let (rig, took) = self.open(&dir)?;
                setups.push(took);
                let (pass, delta) = self.pass(&rig);
                rig.close()?;
                let _ = std::fs::remove_dir_all(&dir);
                passes.push(pass);
                stats.push(delta);
                self.sample_setups(extra, None, &mut setups)?;
                if passes.len() >= MIN_COLD_PASSES && started.elapsed() >= seconds {
                    break;
                }
            }
        }
        for (index, (pass, delta)) in passes.iter().zip(&stats).enumerate() {
            report.check(&format!("pass {index}"), pass, &self.expected);
            self.check_stats(report, delta);
        }
        let of = |field: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(field).collect() };
        let walls = of(|pass| pass.wall_s);
        let references: Vec<&host::Sample> = passes.iter().flat_map(|pass| &pass.references).collect();
        let reference = |field: fn(&host::Sample) -> f64| {
            stats::median(&references.iter().map(|&sample| field(sample)).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let (_, peak_kib) = rig::rusage();
        let setup = if self.workload == Workload::Warm { stats::min } else { stats::median };
        report.put("wall_s", stats::median(&of(|pass| pass.scaled_wall_s)).unwrap_or(0.0), "s");
        report.put("cpu_s", stats::median(&of(|pass| pass.scaled_cpu_s)).unwrap_or(0.0), "s");
        report.put("setup_s", setup(&setups).unwrap_or(0.0), "s");
        report.put("peak_rss_mib", peak_kib as f64 / 1024.0, "MiB");
        report.note("passes", passes.len());
        report.note("setup_samples", setups.len());
        report.note("measured_pass_wall_s", format!("{walls:.4?}"));
        report.note("measured_median_wall_s", stats::median(&walls).unwrap_or(0.0));
        report.note("measured_median_cpu_s", stats::median(&of(|pass| pass.cpu_s)).unwrap_or(0.0));
        report.note("reference_wall_ms", reference(|sample| sample.wall_ms));
        report.note("reference_cpu_ms", reference(|sample| sample.cpu_ms));
        report.note("reference_samples", references.len());
        report.note("nominal_reference_ms", host::NOMINAL_MS);
        if let Some(first) = stats.first() {
            note_cells(report, first);
        }
        Ok(())
    }

    /// `--trace 1`: an untraced pass, a pass with the program's spans on,
    /// and (where cells simulate in-process) a pass with the trace and
    /// tracker probes; per-layer metrics from all three.
    fn traced(&self, report: &mut Report) -> Result<(), String> {
        // Untraced reference pass, per-cell checksums recorded.
        let dir = self.cache_dir()?;
        let (rig, _) = self.open(&dir)?;
        let recorder = Recorder::new(&*rig.service, false);
        let untraced = run_pass(&self.order, &recorder, &|| recorder.requested(), None);
        let reference = recorder.into_log();
        rig.close()?;
        report.check("untraced pass", &untraced, &self.expected);

        // Spans pass: set-up and plan with the program's own spans on. The
        // warm cache is only read, so it serves both passes.
        let dir = if self.workload == Workload::Warm {
            dir
        } else {
            let _ = std::fs::remove_dir_all(&dir);
            self.cache_dir()?
        };
        comet_telemetry::drain_spans();
        comet_telemetry::set_spans_enabled(true);
        let (rig, _) = self.open(&dir)?;
        let before = rig.service.stats();
        let recorder = Recorder::new(&*rig.service, true);
        let spanned = run_pass(&self.order, &recorder, &|| recorder.requested(), None);
        comet_telemetry::set_spans_enabled(false);
        let (records, dropped) = comet_telemetry::drain_spans();
        let service = rig.service.stats().delta_since(&before);
        let (segments, bytes) = store_size(&dir);
        let log = recorder.into_log();
        rig.close()?;
        report.check("spans pass", &spanned, &self.expected);
        self.check_stats(report, &service);
        report.compare("spans pass", &reference.checksums, &log.checksums);
        let spans: Vec<Span> = records.iter().map(Span::from).collect();

        // Probe pass: timed trace sources and trackers (in-process cells only).
        let probes = Probes::new();
        let probed = if self.workload == Workload::Cold {
            let backend = TracedBackend::new(self.threads, probes.clone());
            let recorder = Recorder::new(&backend, false);
            let pass = run_pass(&self.order, &recorder, &|| recorder.requested(), None);
            report.check("probe pass", &pass, &self.expected);
            report.compare("probe pass", &reference.checksums, &recorder.into_log().checksums);
            Some(pass)
        } else {
            None
        };

        let layers = Layers {
            spans: &spans,
            wall_s: spanned.wall_s,
            threads: self.threads,
            service,
            unique: unique_cells(&log),
        };
        layers.report(
            report,
            &probes,
            probed.as_ref().map(|pass| pass.wall_s).unwrap_or(spanned.wall_s) / untraced.wall_s - 1.0,
        );
        report.put("store.segments", segments as f64, "count");
        report.put("store.bytes", bytes as f64, "B");
        report.put("service.key_us", key_us(&log), "us");
        report.put("store.append_us", self.append_us(&layers.unique)?, "us");
        report.note("spans_dropped", dropped);
        report.note("untraced_wall_s", untraced.wall_s);
        report.note("untraced_target_ms", format!("{:.1?}", untraced.target_ms));
        report.note("spans_wall_s", spanned.wall_s);
        if let Some(pass) = &probed {
            report.note("probe_wall_s", pass.wall_s);
        }
        note_cells(report, &service);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// Mean microseconds of one `ResultStore::append` of the pass's results.
    fn append_us(&self, unique: &[Unique]) -> Result<f64, String> {
        let dir = self.work.join("append-probe");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).map_err(|error| format!("append probe: {error}"))?;
        let started = Instant::now();
        for cell in unique {
            store.append(cell.key, &cell.result).map_err(|error| format!("append probe: {error}"))?;
        }
        let took = started.elapsed().as_secs_f64();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(if unique.is_empty() { 0.0 } else { took * 1e6 / unique.len() as f64 })
    }
}

fn note_cells(report: &mut Report, stats: &ServiceStats) {
    report.note("cells_requested", stats.cells_requested);
    report.note("cells_simulated", stats.simulated);
    report.note("cache_hits", stats.cache_hits);
    report.note("batch_shared", stats.batch_shared);
    report.note("remote_cells", stats.remote_cells);
}

/// One distinct cell of a pass with its result.
struct Unique {
    key: comet_service::CellKey,
    cell: comet_sim::experiments::CellSpec,
    result: comet_sim::RunResult,
}

fn unique_cells(log: &rig::Log) -> Vec<Unique> {
    let mut seen = std::collections::HashSet::new();
    let mut unique = Vec::new();
    for (runner, cells, results) in &log.batches {
        for (cell, result) in cells.iter().zip(results) {
            let key = cell_key(runner, cell);
            if seen.insert(key) {
                unique.push(Unique { key, cell: cell.clone(), result: result.clone() });
            }
        }
    }
    unique
}

/// Mean microseconds of one `cell_key` over every requested cell.
fn key_us(log: &rig::Log) -> f64 {
    let pairs: Vec<_> = log
        .batches
        .iter()
        .flat_map(|(runner, cells, _)| cells.iter().map(move |cell| (runner, cell)))
        .collect();
    let started = Instant::now();
    for (runner, cell) in &pairs {
        std::hint::black_box(cell_key(runner, cell));
    }
    if pairs.is_empty() {
        0.0
    } else {
        started.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64
    }
}

/// Segment files and bytes in a cache directory.
fn store_size(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else { return (0, 0) };
    entries
        .flatten()
        .filter(|entry| entry.file_name().to_string_lossy().ends_with(".jsonl"))
        .fold((0, 0), |(count, bytes), entry| {
            (count + 1, bytes + entry.metadata().map(|m| m.len()).unwrap_or(0))
        })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|error| format!("create {}: {error}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|error| format!("read {}: {error}", from.display()))?;
    for entry in entries.flatten() {
        if entry.file_type().map(|kind| kind.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|error| format!("copy {}: {error}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Per-layer arithmetic over the spans pass.
struct Layers<'a> {
    spans: &'a [Span],
    wall_s: f64,
    threads: usize,
    service: ServiceStats,
    unique: Vec<Unique>,
}

/// Registry keys whose per-activation tracker cost is reported; `baseline`
/// (`NoMitigation`) is the timer calibration instead.
const MECHANISMS: &[&str] =
    &["blockhammer", "comet", "comet-custom", "graphene", "hydra", "para", "perrow", "rega"];

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn percentile_or_zero(report: &mut Report, name: &str, values: &[f64], p: f64) {
    report.note(&format!("{name}.samples"), values.len());
    report.put(name, stats::percentile(values, p).unwrap_or(0.0), "ms");
}

impl Layers<'_> {
    fn report(&self, report: &mut Report, probes: &Probes, overhead_frac: f64) {
        let spans = self.spans;
        let simulated = self.service.simulated > 0;
        let sum = |f: fn(&comet_sim::RunResult) -> u64| -> f64 {
            self.unique.iter().map(|cell| f(&cell.result)).sum::<u64>() as f64
        };

        // Probe totals, calibrated by the wrapped-call cost on Baseline cells.
        let trackers = probes.tracker_totals();
        let baseline = trackers.get("baseline").copied().unwrap_or_default();
        let timer_ns = ratio(baseline.ns as f64, baseline.calls as f64);
        let calibrated = |totals: probe::Totals| (totals.ns as f64 - totals.calls as f64 * timer_ns).max(0.0);
        let trace = probes.trace_totals();
        let trace_self_s = calibrated(trace) * 1e-9;
        let mut tracker = probe::Totals::default();
        let mut tracker_ns = 0.0;
        for key in MECHANISMS {
            let totals = trackers.get(*key).copied().unwrap_or_default();
            tracker.calls += totals.calls;
            tracker.acts += totals.acts;
            tracker_ns += calibrated(totals);
            report.put(
                format!("tracker.{key}.ns_per_act"),
                ratio(calibrated(totals), totals.acts as f64),
                "ns",
            );
        }
        let tracker_self_s = tracker_ns * 1e-9;

        // sim: every `sim.run`, wherever it ran.
        let sim_ms = spans::durations_ms(spans, "sim.run");
        let sim_host_s = spans::total_s(spans, "sim.run");
        let accesses = if simulated { sum(|r| r.reads + r.writes) } else { 0.0 };
        report.put("sim.cells", sim_ms.len() as f64, "count");
        report.put("sim.accesses", accesses, "count");
        report.put("sim.instructions", if simulated { sum(|r| r.instructions) } else { 0.0 }, "count");
        report.put("sim.host_s", sim_host_s, "s");
        report.put("sim.self_s", (sim_host_s - trace_self_s - tracker_self_s).max(0.0), "s");
        report.put("sim.ns_per_access", ratio(sim_host_s * 1e9, accesses), "ns");
        percentile_or_zero(report, "sim.cell_p50_ms", &sim_ms, 0.5);
        percentile_or_zero(report, "sim.cell_p95_ms", &sim_ms, 0.95);

        report.put("trace.calls", trace.calls as f64, "count");
        report.put("trace.self_s", trace_self_s, "s");
        report.put("trace.ns_per_call", ratio(trace_self_s * 1e9, trace.calls as f64), "ns");
        report.put("tracker.calls", tracker.calls as f64, "count");
        report.put("tracker.acts", tracker.acts as f64, "count");
        report.put("tracker.self_s", tracker_self_s, "s");
        report.put("tracker.ns_per_act", ratio(tracker_ns, tracker.acts as f64), "ns");
        report.put("tracker.preventive_refreshes", sum(|r| r.mitigation.preventive_refreshes), "count");
        report.put("tracker.throttled_acts", sum(|r| r.mitigation.throttled_activations), "count");
        let comet125: Vec<&Unique> = self
            .unique
            .iter()
            .filter(|c| c.cell.mechanism == MechanismKind::Comet && c.cell.nrh == 125)
            .collect();
        let (prev, acts) = comet125.iter().fold((0u64, 0u64), |(prev, acts), c| {
            (prev + c.result.mitigation.preventive_refreshes, acts + c.result.mitigation.activations_observed)
        });
        report.note("tracker.comet.nrh125_cells", comet125.len());
        report.note("tracker.comet.nrh125_acts", acts);
        report.put("tracker.comet.prev_per_kact_nrh125", ratio(prev as f64 * 1e3, acts as f64), "per_kact");

        // executor: service batches that simulated something.
        let sim_starts: Vec<u64> = spans::named(spans, "sim.run").map(|span| span.start).collect();
        let batches: Vec<&Span> = spans::named(spans, "service.batch").collect();
        let executing: Vec<f64> = batches
            .iter()
            .filter(|batch| sim_starts.iter().any(|&start| batch.contains(start)))
            .map(|batch| batch.dur() as f64 * 1e-3)
            .collect();
        report.put("executor.batches", executing.len() as f64, "count");
        percentile_or_zero(report, "executor.batch_p50_ms", &executing, 0.5);
        report.put("executor.busy_frac", ratio(sim_host_s, self.wall_s * self.threads as f64), "frac");

        // service: batch time not covered by any cell's execution.
        let cells: Vec<Span> = spans::named(spans, "service.cell").copied().collect();
        let service_self_us: u64 =
            batches.iter().map(|batch| batch.dur() - spans::covered(batch, cells.iter())).sum();
        let service_self_s = service_self_us as f64 * 1e-6;
        let stats = &self.service;
        report.put("service.cells_requested", stats.cells_requested as f64, "count");
        report.put("service.simulated", stats.simulated as f64, "count");
        report.put("service.cache_hits", stats.cache_hits as f64, "count");
        report.put("service.batch_shared", stats.batch_shared as f64, "count");
        report.put("service.self_s", service_self_s, "s");
        report.put("service.us_per_cell", ratio(service_self_s * 1e6, stats.cells_requested as f64), "us");
        report.put("store.recover_s", spans::total_s(spans, "store.recover"), "s");

        // fleet: coordinator-side cell waits against the worker's own runs.
        let fleet_ms = spans::durations_ms(spans, "fleet.cell");
        let cell_threads: std::collections::HashSet<u32> = cells.iter().map(|span| span.thread).collect();
        let worker_sim_s: f64 = spans::named(spans, "sim.run")
            .filter(|span| !cell_threads.contains(&span.thread))
            .map(|span| span.dur() as f64 * 1e-6)
            .sum();
        let fleet_s: f64 = fleet_ms.iter().sum::<f64>() * 1e-3;
        report.put("fleet.remote_cells", stats.remote_cells as f64, "count");
        report.put("fleet.local_fallbacks", stats.local_fallbacks as f64, "count");
        report.put("fleet.redeliveries", stats.redeliveries as f64, "count");
        percentile_or_zero(report, "fleet.cell_p50_ms", &fleet_ms, 0.5);
        percentile_or_zero(report, "fleet.cell_p95_ms", &fleet_ms, 0.95);
        report.put(
            "fleet.overhead_ms_per_cell",
            ratio((fleet_s - worker_sim_s) * 1e3, fleet_ms.len() as f64),
            "ms",
        );
        report.put("fleet.worker_busy_frac", ratio(worker_sim_s, self.wall_s), "frac");

        // bench: the probes' own cost and the time no layer claims.
        let own = spans::self_times(spans);
        let plan_us = spans::named(spans, "bench.plan").map(Span::dur).sum::<u64>() as f64;
        let unclaimed =
            own.get("bench.plan").copied().unwrap_or(0) + own.get("bench.target").copied().unwrap_or(0);
        report.put("bench.timer_ns", timer_ns, "ns");
        report.put("bench.trace_overhead_frac", overhead_frac, "frac");
        report.put("bench.unattributed_frac", ratio(unclaimed as f64, plan_us), "frac");
    }
}
