//! Host speed. A shared host runs the same code up to ~30% slower for
//! minutes at a time, longer than one cold or fleet run, so no order
//! statistic over a run's passes removes it. The benchmark times a fixed
//! reference computation between the plan's targets and scales each
//! target's time by the reference's speed next to it: program and reference
//! slow down together, and the scaled times read as if measured on a host
//! that runs the reference in [`NOMINAL_MS`]. Wall time is scaled by the
//! reference's wall time and CPU time by its CPU time, because time the
//! host takes the core away shows in the first and not in the second.

use std::sync::Barrier;
use std::time::Instant;

/// Milliseconds the reference takes on the nominal host (roughly what this
/// benchmark's 2-vCPU Xeon host takes in its fast spells).
pub const NOMINAL_MS: f64 = 10.0;

/// Steps of the reference computation.
const STEPS: u64 = 3_000_000;

/// Slots of the reference's table: 256 KiB, so it lives in L2 like the
/// simulator's hot state.
const SLOTS: usize = 1 << 16;

/// One timing of the reference: mean wall and CPU milliseconds per thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

impl Sample {
    pub const NOMINAL: Sample = Sample { wall_ms: NOMINAL_MS, cpu_ms: NOMINAL_MS };

    /// Runs the reference computation at once on one thread pinned to each
    /// of `cpus`. A shared host slows each core by its own neighbours' load,
    /// so the reference is timed on the cores the simulating threads run
    /// on. Threads that share work finish it at the cores' summed speed, so
    /// the harmonic mean over the cores is returned.
    pub fn take(cpus: &[usize]) -> Sample {
        let start = Barrier::new(cpus.len());
        let timed = |cpu: usize| {
            pin_to(cpu);
            start.wait();
            let (wall, cpu) = (Instant::now(), thread_cpu_s());
            std::hint::black_box(reference(STEPS));
            Sample { wall_ms: wall.elapsed().as_secs_f64() * 1e3, cpu_ms: (thread_cpu_s() - cpu) * 1e3 }
        };
        let samples: Vec<Sample> = std::thread::scope(|scope| {
            let threads: Vec<_> = cpus.iter().map(|&cpu| scope.spawn(move || timed(cpu))).collect();
            threads.into_iter().map(|thread| thread.join().expect("reference thread panicked")).collect()
        });
        let harmonic = |field: fn(&Sample) -> f64| {
            samples.len() as f64 / samples.iter().map(|sample| 1.0 / field(sample)).sum::<f64>()
        };
        Sample { wall_ms: harmonic(|sample| sample.wall_ms), cpu_ms: harmonic(|sample| sample.cpu_ms) }
    }
}

/// Bytes of the kernel's CPU mask (`cpu_set_t`: 1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a whole `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect();
    }
    (0..MASK_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Pins the calling thread to `cpu`. If the kernel does not allow it, the
/// thread stays unpinned, which only loosens the pairing of reference and
/// program.
pub fn pin_to(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: as in `allowed_cpus`.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Factors that turn wall and CPU time measured between the reference
/// samples `before` and `after` into nominal-host time.
pub fn scale(before: Sample, after: Sample) -> (f64, f64) {
    (2.0 * NOMINAL_MS / (before.wall_ms + after.wall_ms), 2.0 * NOMINAL_MS / (before.cpu_ms + after.cpu_ms))
}

/// A xorshift walk over a table with a data-dependent branch per step:
/// integer work, L2-resident loads and stores, and unpredictable branches.
fn reference(steps: u64) -> u64 {
    let mut table = vec![0u32; SLOTS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for step in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (SLOTS - 1);
        let value = table[slot];
        if value & 1 == 0 {
            acc = acc.wrapping_add(u64::from(value) ^ x);
        } else {
            acc = acc.rotate_left(5) ^ step;
        }
        table[slot] = value.wrapping_add(x as u32);
    }
    acc
}

/// CPU seconds the calling thread has used.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: the clock id is valid on Linux and `time` matches the 64-bit
    // `struct timespec`.
    assert_eq!(unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) }, 0, "clock_gettime failed");
    time.sec as f64 + time.nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_nominal_speed_and_follows_the_reference() {
        assert_eq!(scale(Sample::NOMINAL, Sample::NOMINAL), (1.0, 1.0));
        // Wall and CPU time scale independently: a host that keeps the
        // core away half the time doubles wall time, not CPU time.
        let preempted = Sample { wall_ms: 2.0 * NOMINAL_MS, cpu_ms: NOMINAL_MS };
        assert_eq!(scale(preempted, preempted), (0.5, 1.0));
        // Samples either side of a target are averaged.
        let fast = Sample { wall_ms: 0.5 * NOMINAL_MS, cpu_ms: 0.5 * NOMINAL_MS };
        let slow = Sample { wall_ms: 1.5 * NOMINAL_MS, cpu_ms: 1.5 * NOMINAL_MS };
        assert_eq!(scale(fast, slow), (1.0, 1.0));
    }

    #[test]
    fn reference_is_deterministic_and_takes_time() {
        assert_eq!(reference(10_000), reference(10_000));
        assert_ne!(reference(10_000), reference(10_001));
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        for cpus in [&cpus[..1], &cpus[..]] {
            let sample = Sample::take(cpus);
            assert!(sample.wall_ms > 0.0 && sample.cpu_ms > 0.0, "{sample:?}");
        }
    }
}
