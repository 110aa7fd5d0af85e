//! The thread pool campaign jobs run on.
//!
//! Jobs are coarse (one protect→attack→measure experiment each) and their
//! runtimes vary by orders of magnitude — a timed-out SAT attack costs
//! seconds while a small deterministic cell takes milliseconds — so static
//! chunking wastes workers. Each batch ([`WorkerPool::run_all`]) runs on
//! `min(threads, tasks)` workers that take `(index, task)` pairs from one
//! shared queue until it is empty: a worker that finishes early takes the
//! next task, so a batch drains imbalanced runtimes without a dispatcher.
//! The submitting thread is worker 0 and the others are scoped threads
//! that end with their batch, so a one-task batch starts no thread and a
//! pool holds no thread between batches. Everything is `std` — the build
//! environment has no external registry, so `crossbeam` is off the table.
//!
//! Results are returned **in submission order**, which is what makes
//! campaign reports byte-identical across `threads = 1` and `threads = N`:
//! scheduling affects only *when* a job runs, never *which RNG stream* it
//! sees (seeds are derived from job identity) nor *where* its result lands.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One task of a batch.
type Task<R> = Box<dyn FnOnce() -> R + Send>;

/// A task's result, or the message of its caught panic.
type Outcome<R> = Result<R, String>;

/// What one worker ran of a batch: each task's `(index, outcome)`, and the
/// nanoseconds it spent running them.
type Share<R> = (Vec<(usize, Outcome<R>)>, u64);

/// Per-worker activity counters, booked when a batch returns. These are
/// always on (plain relaxed atomics, independent of the `gshe_obs`
/// switch) so the pool-utilization report footer works out of the box;
/// they never influence scheduling or results.
#[derive(Debug, Default)]
struct WorkerCounters {
    /// Tasks this worker executed.
    tasks: AtomicU64,
    /// Nanoseconds spent executing tasks.
    busy_ns: AtomicU64,
    /// Nanoseconds of batch wall time not spent executing tasks.
    idle_ns: AtomicU64,
}

/// Snapshot of one worker's activity counters (see [`WorkerPool::worker_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Tasks executed by this worker.
    pub tasks: u64,
    /// Nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Nanoseconds of its batches' wall time this worker spent without a
    /// task, including the batches it had no worker in.
    pub idle_ns: u64,
}

impl WorkerStats {
    /// Busy fraction of this worker's batches' wall time, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / total as f64
    }

    /// Element-wise difference, saturating at zero (for before/after deltas).
    pub fn delta_from(&self, earlier: &WorkerStats) -> WorkerStats {
        WorkerStats {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            idle_ns: self.idle_ns.saturating_sub(earlier.idle_ns),
        }
    }
}

/// Aggregates a slice of per-worker stats into one summary line:
/// `(tasks, 0, mean utilization)`. The middle value, once a steal count,
/// is always 0; it stays so that callers destructuring three values keep
/// compiling.
pub fn pool_summary(stats: &[WorkerStats]) -> (u64, u64, f64) {
    let tasks: u64 = stats.iter().map(|w| w.tasks).sum();
    let utilization = if stats.is_empty() {
        0.0
    } else {
        stats.iter().map(WorkerStats::utilization).sum::<f64>() / stats.len() as f64
    };
    (tasks, 0, utilization)
}

/// A pool of `threads` worker slots that executes batches submitted via
/// [`WorkerPool::run_all`]; the submitter blocks until its batch drains.
#[derive(Debug)]
pub struct WorkerPool {
    /// One counter block per worker slot, indexed by worker id.
    counters: Vec<WorkerCounters>,
}

impl WorkerPool {
    /// A pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            counters: (0..threads.max(1))
                .map(|_| WorkerCounters::default())
                .collect(),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.counters.len()
    }

    /// Snapshots every worker's cumulative activity counters (indexed by
    /// worker id). A batch books its counters when [`WorkerPool::run_all`]
    /// returns, its idle tail included. Callers wanting per-batch numbers
    /// take a snapshot before and after and use [`WorkerStats::delta_from`].
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.counters
            .iter()
            .map(|c| WorkerStats {
                tasks: c.tasks.load(Ordering::Relaxed),
                busy_ns: c.busy_ns.load(Ordering::Relaxed),
                idle_ns: c.idle_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Executes `tasks` on `min(threads, tasks)` workers, each taking the
    /// next task as it finishes the last; returns the results in
    /// submission order. The calling thread is worker 0, so it blocks
    /// until the whole batch drains. Every worker slot then books the
    /// batch's wall time minus its busy time as idle.
    ///
    /// A panicking task poisons nothing: the panic is caught per-task and
    /// re-raised here after the batch drains, so sibling jobs still
    /// complete.
    pub fn run_all<R: Send + 'static>(&self, tasks: Vec<Box<dyn FnOnce() -> R + Send>>) -> Vec<R> {
        let n = tasks.len();
        let started = Instant::now();
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let shares: Vec<Share<R>> = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.threads().min(n))
                .map(|_| s.spawn(|| work(&queue)))
                .collect();
            let mut shares = vec![work(&queue)];
            shares.extend(
                others
                    .into_iter()
                    .map(|w| w.join().expect("a worker catches its tasks' panics")),
            );
            shares
        });
        let wall_ns = started.elapsed().as_nanos() as u64;

        let mut slots: Vec<Option<Outcome<R>>> = (0..n).map(|_| None).collect();
        let mut shares = shares.into_iter();
        for counters in &self.counters {
            // A slot without a worker in this batch ran nothing: all idle.
            let (done, busy_ns) = shares.next().unwrap_or_default();
            counters
                .tasks
                .fetch_add(done.len() as u64, Ordering::Relaxed);
            counters.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            counters
                .idle_ns
                .fetch_add(wall_ns.saturating_sub(busy_ns), Ordering::Relaxed);
            for (index, outcome) in done {
                slots[index] = Some(outcome);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot.expect("every task ran") {
                Ok(r) => r,
                Err(msg) => panic!("campaign job {i} panicked: {msg}"),
            })
            .collect()
    }
}

/// One worker of a batch: takes tasks from `queue` until it is empty, and
/// returns what it ran.
fn work<R>(queue: &Mutex<impl Iterator<Item = (usize, Task<R>)>>) -> Share<R> {
    let mut done = Vec::new();
    let mut busy_ns = 0;
    loop {
        // The lock is held only to take a task, and taking one cannot
        // panic, so the queue is never left half-updated.
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((index, task)) = next else {
            return (done, busy_ns);
        };
        let started = Instant::now();
        let outcome = {
            let _span = gshe_obs::span("pool.task");
            catch_unwind(AssertUnwindSafe(task)).map_err(|payload| panic_message(&*payload))
        };
        busy_ns += started.elapsed().as_nanos() as u64;
        done.push((index, outcome));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn boxed(
        fs: Vec<impl FnOnce() -> usize + Send + 'static>,
    ) -> Vec<Box<dyn FnOnce() -> usize + Send>> {
        fs.into_iter()
            .map(|f| Box::new(f) as Box<dyn FnOnce() -> usize + Send>)
            .collect()
    }

    #[test]
    fn results_arrive_in_submission_order() {
        for threads in [1, 2, 4, 8] {
            let tasks = boxed((0..50).map(|i| move || i * i).collect::<Vec<_>>());
            let out = WorkerPool::new(threads).run_all(tasks);
            assert_eq!(
                out,
                (0..50).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn persistent_pool_survives_many_batches() {
        // The EvalSession pattern: one pool, many scoring calls. Every
        // batch gets its own workers and its results stay ordered.
        let pool = WorkerPool::new(3);
        for round in 0..20usize {
            let tasks = boxed(
                (0..7)
                    .map(move |i| move || round * 100 + i)
                    .collect::<Vec<_>>(),
            );
            let out = pool.run_all(tasks);
            assert_eq!(out, (0..7).map(|i| round * 100 + i).collect::<Vec<_>>());
        }
        assert_eq!(pool.threads(), 3);
        let (tasks, _, _) = pool_summary(&pool.worker_stats());
        assert_eq!(tasks, 140);
    }

    #[test]
    fn slow_tasks_spread_over_the_workers() {
        // The slow tasks sit at even indices; a worker that finishes a
        // task takes the next one, so they spread over the workers or the
        // wall clock multiplies.
        let slow_ran = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                let slow_ran = Arc::clone(&slow_ran);
                Box::new(move || {
                    if i % 2 == 0 {
                        std::thread::sleep(Duration::from_millis(40));
                        slow_ran.fetch_add(1, Ordering::SeqCst);
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let start = std::time::Instant::now();
        let out = WorkerPool::new(4).run_all(tasks);
        let elapsed = start.elapsed();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(slow_ran.load(Ordering::SeqCst), 4);
        // 4 slow tasks × 40 ms on 4 workers ≈ 40–80 ms; on one worker
        // they serialize at 160 ms.
        assert!(
            elapsed < Duration::from_millis(150),
            "slow tasks serialized? took {elapsed:?}"
        );
    }

    #[test]
    fn zero_threads_degrades_to_one() {
        let out = WorkerPool::new(0).run_all(boxed(vec![|| 7usize]));
        assert_eq!(out, vec![7]);
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool.run_all(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn task_panic_is_reported_after_drain() {
        for threads in [1, 2] {
            let completed = Arc::new(AtomicUsize::new(0));
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
                .map(|i| {
                    let completed = Arc::clone(&completed);
                    Box::new(move || {
                        if i == 2 {
                            panic!("job exploded");
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                        i
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            let pool = WorkerPool::new(threads);
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run_all(tasks)));
            let payload = result.expect_err("the job panic must be re-raised");
            let message = panic_message(&*payload);
            assert!(message.contains("job exploded"), "{message}");
            assert_eq!(
                completed.load(Ordering::SeqCst),
                5,
                "siblings must still run at threads={threads}"
            );
            // The pool keeps working after a panicking batch.
            assert_eq!(pool.run_all(boxed(vec![|| 3usize])), vec![3]);
        }
    }

    #[test]
    fn worker_stats_account_for_every_task() {
        let pool = WorkerPool::new(2);
        let tasks = boxed(
            (0..10usize)
                .map(|i| {
                    move || {
                        std::thread::sleep(Duration::from_millis(1));
                        i
                    }
                })
                .collect::<Vec<_>>(),
        );
        let before = pool.worker_stats();
        let _ = pool.run_all(tasks);
        let after = pool.worker_stats();
        assert_eq!(after.len(), 2);
        let deltas: Vec<WorkerStats> = after
            .iter()
            .zip(&before)
            .map(|(now, then)| now.delta_from(then))
            .collect();
        let (tasks, steals, utilization) = pool_summary(&deltas);
        assert_eq!(tasks, 10, "every task attributed to some worker");
        assert_eq!(steals, 0);
        assert!((0.0..=1.0).contains(&utilization));
        assert!(
            deltas.iter().any(|w| w.busy_ns > 0),
            "sleeping tasks must register busy time"
        );
    }

    #[test]
    fn an_idle_worker_books_the_whole_batch_as_idle() {
        // One task on two worker slots: the calling thread runs it as
        // worker 0, the second slot gets no worker, and once the batch
        // returns it has booked the batch's whole wall time as idle, which
        // is what the busy slot spent in all.
        let pool = WorkerPool::new(2);
        let started = Instant::now();
        let out = pool.run_all(boxed(vec![|| {
            std::thread::sleep(Duration::from_millis(20));
            1usize
        }]));
        let outer_ns = started.elapsed().as_nanos() as u64;
        assert_eq!(out, vec![1]);
        let [busy, idle] = pool.worker_stats()[..] else {
            panic!("two worker slots");
        };
        assert_eq!((busy.tasks, idle.tasks), (1, 0));
        assert!(busy.busy_ns >= 20_000_000, "{busy:?}");
        assert_eq!(idle.busy_ns, 0);
        assert!(idle.idle_ns >= busy.busy_ns && idle.idle_ns <= outer_ns);
        assert_eq!(busy.busy_ns + busy.idle_ns, idle.idle_ns);
        assert_eq!(idle.utilization(), 0.0);
    }
}
