//! Deterministic parallel execution of experiment cells.
//!
//! A sweep is a grid of independent cells — (workload × mechanism × NRH),
//! each one full simulation. Cells share no mutable state and derive all of
//! their randomness from their own identity (runner seed, workload name, core
//! index, mechanism seed), so executing them concurrently cannot change any
//! result: a parallel sweep is bit-identical to the serial one, cell for
//! cell. [`ParallelExecutor`] fans cells out over a fixed-size pool of worker
//! threads and returns results in submission order.
//!
//! The build environment has no access to crates.io, so this is a small
//! `std::thread::scope`-based stand-in for a rayon `par_iter`: workers claim
//! cell indices from a shared atomic counter (work stealing at cell
//! granularity) and collect `(index, result)` pairs that are merged back in
//! order after the scope joins.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Fans independent work items out over a fixed number of worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor using every available core.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A serial executor (one worker, no threads spawned) — the reference
    /// the determinism tests compare the parallel path against.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An executor with an explicit worker count (`0` is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        ParallelExecutor { threads: threads.max(1) }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `work` to every item, returning results in item order.
    ///
    /// `work` receives the item's index alongside the item so cells can
    /// derive per-cell labels or seeds from their position in the grid.
    pub fn run<T, R, F>(&self, items: &[T], work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.threads == 1 || items.len() == 1 {
            return items.iter().enumerate().map(|(index, item)| work(index, item)).collect();
        }

        let next = AtomicUsize::new(0);
        let workers = self.threads.min(items.len());
        let mut slots: Vec<Option<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= items.len() {
                                break;
                            }
                            local.push((index, work(index, &items[index])));
                        }
                        local
                    })
                })
                .collect();
            let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
            for handle in handles {
                for (index, result) in handle.join().expect("experiment worker panicked") {
                    slots[index] = Some(result);
                }
            }
            slots
        });
        slots
            .iter_mut()
            .map(|slot| slot.take().expect("every cell index was claimed by exactly one worker"))
            .collect()
    }

    /// Applies a fallible `work` to every item. Once any cell fails, workers
    /// stop claiming new cells (remaining simulations are skipped, not run
    /// and discarded) and the error of the lowest-indexed cell that failed
    /// among those executed is returned. On the serial path this is exactly
    /// the first failing item.
    pub fn try_run<T, R, E, F>(&self, items: &[T], work: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        if self.threads == 1 || items.len() == 1 {
            let mut results = Vec::with_capacity(items.len());
            for (index, item) in items.iter().enumerate() {
                results.push(work(index, item)?);
            }
            return Ok(results);
        }

        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let workers = self.threads.min(items.len());
        let mut slots: Vec<Option<Result<R, E>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
                        loop {
                            if failed.load(Ordering::Relaxed) {
                                break;
                            }
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= items.len() {
                                break;
                            }
                            let result = work(index, &items[index]);
                            if result.is_err() {
                                failed.store(true, Ordering::Relaxed);
                            }
                            local.push((index, result));
                        }
                        local
                    })
                })
                .collect();
            let mut slots: Vec<Option<Result<R, E>>> = (0..items.len()).map(|_| None).collect();
            for handle in handles {
                for (index, result) in handle.join().expect("experiment worker panicked") {
                    slots[index] = Some(result);
                }
            }
            slots
        });

        // Report the lowest-indexed executed error, if any.
        if let Some(slot) = slots.iter_mut().find(|s| matches!(s, Some(Err(_)))) {
            match slot.take() {
                Some(Err(error)) => return Err(error),
                _ => unreachable!("slot matched Some(Err(_)) above"),
            }
        }
        Ok(slots
            .iter_mut()
            .map(|slot| {
                slot.take()
                    .expect("with no failure observed, every cell was claimed by exactly one worker")
                    .unwrap_or_else(|_| unreachable!("error slots were handled above"))
            })
            .collect())
    }
}

/// The shared queue of [`ParallelExecutor::run_tasks`].
struct TaskQueue<T> {
    tasks: VecDeque<T>,
    /// Tasks claimed and not yet finished: their follow-ups may still come.
    running: usize,
    /// A task panicked: the remaining workers stop (the panic re-raises at
    /// join).
    poisoned: bool,
}

/// Marks one claimed task finished, even when its work unwinds, so idle
/// workers never wait for follow-ups that will not come.
struct Finished<'a, T> {
    queue: &'a Mutex<TaskQueue<T>>,
    ready: &'a Condvar,
}

fn lock<T>(queue: &Mutex<TaskQueue<T>>) -> MutexGuard<'_, TaskQueue<T>> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Drop for Finished<'_, T> {
    fn drop(&mut self) {
        let mut queue = lock(self.queue);
        queue.running -= 1;
        queue.poisoned |= std::thread::panicking();
        drop(queue);
        self.ready.notify_all();
    }
}

impl ParallelExecutor {
    /// Runs a task set that grows while it runs: `work` turns a task into
    /// results plus follow-up tasks, which join the shared queue and may run
    /// on any worker. Returns every result, in no particular order (callers
    /// carry their own indices). Workers claim tasks first-in first-out.
    pub fn run_tasks<T, R, F>(&self, tasks: Vec<T>, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> (Vec<R>, Vec<T>) + Sync,
    {
        if self.threads == 1 || tasks.is_empty() {
            let mut queue = VecDeque::from(tasks);
            let mut results = Vec::new();
            while let Some(task) = queue.pop_front() {
                let (done, more) = work(task);
                results.extend(done);
                queue.extend(more);
            }
            return results;
        }

        let queue = Mutex::new(TaskQueue { tasks: VecDeque::from(tasks), running: 0, poisoned: false });
        let ready = Condvar::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<R> = Vec::new();
                        loop {
                            let task = {
                                let mut guard = lock(&queue);
                                loop {
                                    if guard.poisoned {
                                        return local;
                                    }
                                    if let Some(task) = guard.tasks.pop_front() {
                                        guard.running += 1;
                                        break task;
                                    }
                                    if guard.running == 0 {
                                        return local;
                                    }
                                    guard = ready.wait(guard).unwrap_or_else(PoisonError::into_inner);
                                }
                            };
                            let finished = Finished { queue: &queue, ready: &ready };
                            let (done, more) = work(task);
                            local.extend(done);
                            lock(&queue).tasks.extend(more);
                            drop(finished);
                        }
                    })
                })
                .collect();
            let mut results = Vec::new();
            for handle in handles {
                results.extend(handle.join().expect("experiment worker panicked"));
            }
            results
        })
    }
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let executor = ParallelExecutor::with_threads(7);
        let doubled = executor.run(&items, |index, &item| {
            assert_eq!(index as u64, item);
            item * 2
        });
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let items: Vec<u64> = (0..100).collect();
        let work = |_: usize, &item: &u64| item.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let serial = ParallelExecutor::serial().run(&items, work);
        let parallel = ParallelExecutor::with_threads(8).run(&items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn try_run_reports_the_lowest_indexed_error() {
        let items: Vec<u64> = (0..64).collect();
        let executor = ParallelExecutor::with_threads(8);
        let result: Result<Vec<u64>, String> =
            executor.try_run(
                &items,
                |_, &item| {
                    if item % 10 == 7 {
                        Err(format!("bad item {item}"))
                    } else {
                        Ok(item)
                    }
                },
            );
        // Cell 7 is always claimed before any failure can be observed (no
        // error exists at a lower index), so the reported error is stable
        // even though later cells may be skipped once the failure lands.
        assert_eq!(result.unwrap_err(), "bad item 7");
    }

    #[test]
    fn try_run_skips_remaining_cells_after_a_failure() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..10_000).collect();
        let executed = AtomicUsize::new(0);
        let result: Result<Vec<u64>, String> =
            ParallelExecutor::with_threads(4).try_run(&items, |_, &item| {
                executed.fetch_add(1, Ordering::Relaxed);
                if item == 0 {
                    Err("early failure".to_string())
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    Ok(item)
                }
            });
        assert_eq!(result.unwrap_err(), "early failure");
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < items.len() / 2, "workers must stop claiming cells after a failure (ran {ran})");
    }

    #[test]
    fn run_tasks_runs_follow_ups_on_any_worker() {
        // Each task `n` yields `n` and splits into `n / 2` and `n - n / 2`
        // until tasks reach 1: every leaf of every tree must come back once.
        let work = |n: u64| -> (Vec<u64>, Vec<u64>) {
            if n <= 1 {
                (vec![n], Vec::new())
            } else {
                (Vec::new(), vec![n / 2, n - n / 2])
            }
        };
        for threads in [1, 2, 4] {
            let mut leaves = ParallelExecutor::with_threads(threads).run_tasks(vec![5, 8, 0], work);
            leaves.sort_unstable();
            assert_eq!(leaves, [vec![0], vec![1; 13]].concat(), "{threads} thread(s)");
        }
        let none: Vec<u64> = ParallelExecutor::with_threads(4).run_tasks(Vec::new(), work);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "experiment worker panicked")]
    fn run_tasks_propagates_a_panic_instead_of_waiting_forever() {
        ParallelExecutor::with_threads(2).run_tasks(vec![1u64, 2, 3], |n| -> (Vec<u64>, Vec<u64>) {
            if n == 2 {
                panic!("task {n} failed");
            }
            (vec![n], vec![n + 10; usize::from(n < 10)])
        });
    }

    #[test]
    fn zero_threads_is_clamped_and_empty_input_is_fine() {
        let executor = ParallelExecutor::with_threads(0);
        assert_eq!(executor.threads(), 1);
        let nothing: Vec<u8> = Vec::new();
        assert!(executor.run(&nothing, |_, &b| b).is_empty());
    }
}
