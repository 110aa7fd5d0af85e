//! A persistent work-stealing thread pool for campaign jobs.
//!
//! Jobs are coarse (one protect→attack→measure experiment each) and their
//! runtimes vary by orders of magnitude — a timed-out SAT attack costs
//! seconds while a cache-hit measurement costs microseconds — so static
//! chunking wastes workers. Every worker owns a deque seeded round-robin
//! at submission; a worker pops from the *front* of its own deque and,
//! when empty, steals from the *back* of a sibling's, so the pool drains
//! imbalanced queues without a central dispatcher. Everything is
//! `std::sync` — the build environment has no external registry, so
//! `crossbeam` is off the table.
//!
//! The pool is **persistent** ([`WorkerPool`]): workers spawn once and
//! sleep on a condvar between batches, so an [`crate::EvalSession`] that
//! scores thousands of search candidates pays the thread-spawn cost once
//! per session instead of once per scoring call.
//!
//! Results are returned **in submission order**, which is what makes
//! campaign reports byte-identical across `threads = 1` and `threads = N`:
//! scheduling affects only *when* a job runs, never *which RNG stream* it
//! sees (seeds are derived from job identity) nor *where* its result lands.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// An erased pending task; the closure stores its own result and performs
/// its own batch accounting.
type ErasedTask = Box<dyn FnOnce() + Send>;

/// Per-worker activity counters, updated by the worker itself. These are
/// always on (plain relaxed atomics, independent of the `gshe_obs`
/// switch) so the pool-utilization report footer works out of the box;
/// they never influence scheduling or results.
#[derive(Default)]
struct WorkerCounters {
    /// Tasks this worker executed (own-queue pops plus steals).
    tasks: AtomicU64,
    /// Tasks this worker stole from a sibling's queue.
    steals: AtomicU64,
    /// Nanoseconds spent executing tasks.
    busy_ns: AtomicU64,
    /// Nanoseconds of finished parks on the condvar waiting for work
    /// (the current park, if any, is in [`PoolState::parked_since`]).
    idle_ns: AtomicU64,
}

/// Snapshot of one worker's activity counters (see [`WorkerPool::worker_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Tasks executed by this worker.
    pub tasks: u64,
    /// Tasks stolen from siblings' queues.
    pub steals: u64,
    /// Nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Nanoseconds spent idle waiting for work.
    pub idle_ns: u64,
}

impl WorkerStats {
    /// Busy fraction of this worker's observed lifetime, in `[0, 1]`.
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
            steals: self.steals.saturating_sub(earlier.steals),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            idle_ns: self.idle_ns.saturating_sub(earlier.idle_ns),
        }
    }
}

/// Aggregates a slice of per-worker stats into one summary line:
/// `(tasks, steals, mean utilization)`.
pub fn pool_summary(stats: &[WorkerStats]) -> (u64, u64, f64) {
    let tasks: u64 = stats.iter().map(|w| w.tasks).sum();
    let steals: u64 = stats.iter().map(|w| w.steals).sum();
    let utilization = if stats.is_empty() {
        0.0
    } else {
        stats.iter().map(WorkerStats::utilization).sum::<f64>() / stats.len() as f64
    };
    (tasks, steals, utilization)
}

/// Queue state shared by the workers of one [`WorkerPool`].
struct PoolState {
    /// Per-worker deques. Tasks are pushed round-robin at submission.
    queues: Vec<VecDeque<ErasedTask>>,
    /// Set once by [`WorkerPool::drop`]; workers exit when their queues
    /// drain afterwards.
    shutdown: bool,
    /// When each worker parked, if it is parked now. Kept under the lock
    /// the worker parks and wakes with, so [`WorkerPool::worker_stats`]
    /// sees a park either here or in the worker's `idle_ns`, never in both
    /// or neither.
    parked_since: Vec<Option<Instant>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers that work arrived (or shutdown began).
    work: Condvar,
    /// One counter block per worker, indexed by worker id.
    counters: Vec<WorkerCounters>,
}

/// Completion tracking for one submitted batch.
struct Batch<R> {
    /// Result slots in submission order; a panicking task stores `Err`.
    slots: Mutex<Vec<Option<Result<R, String>>>>,
    /// (remaining task count, condvar the submitter waits on).
    remaining: Mutex<usize>,
    done: Condvar,
}

/// A persistent work-stealing pool: workers spawn at construction and
/// live until drop, executing batches submitted via
/// [`WorkerPool::run_all`]. Batches from one thread run strictly in
/// submission order; the submitter blocks until its batch drains.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queues: (0..threads).map(|_| VecDeque::new()).collect(),
                shutdown: false,
                parked_since: vec![None; threads],
            }),
            work: Condvar::new(),
            counters: (0..threads).map(|_| WorkerCounters::default()).collect(),
        });
        let workers = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, me))
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            threads,
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshots every worker's cumulative activity counters (indexed by
    /// worker id). A worker parked now has its park so far counted as
    /// idle, so a snapshot taken after a batch includes the batch's idle
    /// tail. Callers wanting per-batch numbers take a snapshot before and
    /// after and use [`WorkerStats::delta_from`].
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        let state = self.shared.state.lock().unwrap();
        let now = Instant::now();
        self.shared
            .counters
            .iter()
            .zip(&state.parked_since)
            .map(|(c, parked)| {
                let parked_ns = parked.map_or(0, |t| now.duration_since(t).as_nanos() as u64);
                WorkerStats {
                    tasks: c.tasks.load(Ordering::Relaxed),
                    steals: c.steals.load(Ordering::Relaxed),
                    busy_ns: c.busy_ns.load(Ordering::Relaxed),
                    idle_ns: c.idle_ns.load(Ordering::Relaxed) + parked_ns,
                }
            })
            .collect()
    }

    /// Executes `tasks` across the workers with work stealing; returns the
    /// results in submission order. Blocks until the whole batch drains.
    ///
    /// A panicking task poisons nothing: the panic is caught per-task and
    /// re-raised here after the batch drains, so sibling jobs still
    /// complete.
    pub fn run_all<R: Send + 'static>(&self, tasks: Vec<Box<dyn FnOnce() -> R + Send>>) -> Vec<R> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let batch = Arc::new(Batch {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });

        {
            let mut state = self.shared.state.lock().unwrap();
            let workers = state.queues.len();
            for (index, run) in tasks.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                let erased: ErasedTask = Box::new(move || {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                        .map_err(|payload| panic_message(&*payload));
                    batch.slots.lock().unwrap()[index] = Some(outcome);
                    let mut remaining = batch.remaining.lock().unwrap();
                    *remaining -= 1;
                    if *remaining == 0 {
                        batch.done.notify_all();
                    }
                });
                state.queues[index % workers].push_back(erased);
            }
        }
        self.shared.work.notify_all();

        let mut remaining = batch.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).unwrap();
        }
        drop(remaining);

        let collected = std::mem::take(&mut *batch.slots.lock().unwrap());
        collected
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot.expect("every task ran") {
                Ok(r) => r,
                Err(msg) => panic!("campaign job {i} panicked: {msg}"),
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    let counters = &shared.counters[me];
    loop {
        let task = {
            let mut state = shared.state.lock().unwrap();
            loop {
                // Own queue first (front), then steal (back).
                if let Some((task, stolen)) = pop_or_steal(&mut state, me) {
                    counters.tasks.fetch_add(1, Ordering::Relaxed);
                    if stolen {
                        counters.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    break Some(task);
                }
                if state.shutdown {
                    break None;
                }
                let parked = Instant::now();
                state.parked_since[me] = Some(parked);
                state = shared.work.wait(state).unwrap();
                state.parked_since[me] = None;
                counters
                    .idle_ns
                    .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        };
        match task {
            Some(task) => {
                let started = Instant::now();
                {
                    let _span = gshe_obs::span("pool.task");
                    task();
                }
                counters
                    .busy_ns
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            None => return,
        }
    }
}

/// Pops the next task for worker `me`; the flag reports whether it was
/// stolen from a sibling's queue rather than popped from `me`'s own.
fn pop_or_steal(state: &mut PoolState, me: usize) -> Option<(ErasedTask, bool)> {
    if let Some(task) = state.queues[me].pop_front() {
        return Some((task, false));
    }
    let n = state.queues.len();
    (1..n).find_map(|offset| {
        state.queues[(me + offset) % n]
            .pop_back()
            .map(|task| (task, true))
    })
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
        // The EvalSession pattern: one pool, many scoring calls. Workers
        // must wake for every batch and results must stay ordered.
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
    }

    #[test]
    fn imbalanced_queues_get_stolen() {
        // Thread 0's queue holds all the slow tasks (round-robin over 2
        // workers with slow tasks at even indices); stealing must spread
        // them or the wall clock doubles.
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
        // 4 slow tasks × 40 ms on 4 workers ≈ 40–80 ms; without stealing
        // they serialize on worker 0 at 160 ms.
        assert!(
            elapsed < Duration::from_millis(150),
            "no stealing? took {elapsed:?}"
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
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run_all(tasks)));
        let payload = result.expect_err("the job panic must be re-raised");
        let message = panic_message(&*payload);
        assert!(message.contains("job exploded"), "{message}");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            5,
            "siblings must still run"
        );
        // The pool keeps working after a panicking batch.
        assert_eq!(pool.run_all(boxed(vec![|| 3usize])), vec![3]);
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
        assert!(steals <= 10);
        assert!((0.0..=1.0).contains(&utilization));
        assert!(
            deltas.iter().any(|w| w.busy_ns > 0),
            "sleeping tasks must register busy time"
        );
    }

    #[test]
    fn worker_stats_count_a_parked_workers_idle_time() {
        // A barrier puts the two tasks of a batch on different workers,
        // each having booked its wake from the previous park. One task
        // then holds its worker until released; the other returns, and
        // its worker parks. Snapshots taken while it is still parked
        // must already count that park as idle, not only once it wakes.
        let pool = WorkerPool::new(2);
        let both_running = Arc::new(std::sync::Barrier::new(2));
        let (quick_tx, quick_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let held = Arc::clone(&both_running);
        std::thread::scope(|s| {
            let batch = s.spawn(|| {
                pool.run_all(vec![
                    Box::new(move || {
                        both_running.wait();
                        quick_tx.send(()).unwrap();
                        0usize
                    }) as Box<dyn FnOnce() -> usize + Send>,
                    Box::new(move || {
                        held.wait();
                        let _ = release_rx.recv();
                        1usize
                    }),
                ])
            });
            quick_rx.recv().unwrap();
            // Nothing wakes the free worker until release: its idle time
            // grows only if parks in progress are counted.
            let first = pool.worker_stats();
            let deadline = Instant::now() + Duration::from_secs(10);
            let grown = loop {
                let now = pool.worker_stats();
                if now.iter().zip(&first).any(|(n, f)| n.idle_ns > f.idle_ns) {
                    break Some(now);
                }
                if Instant::now() >= deadline {
                    break None;
                }
                std::thread::yield_now();
            };
            release_tx.send(()).unwrap();
            assert_eq!(batch.join().unwrap(), vec![0, 1]);
            let grown = grown.expect("a parked worker's idle time never reached a snapshot");
            // Waking books the park once: snapshots stay monotone.
            for (after, during) in pool.worker_stats().iter().zip(&grown) {
                assert!(after.idle_ns >= during.idle_ns);
            }
        });
    }

    #[test]
    fn drop_joins_workers_without_wedging() {
        let pool = WorkerPool::new(4);
        let _ = pool.run_all(boxed(vec![|| 1usize, || 2]));
        drop(pool); // must return promptly
    }
}
