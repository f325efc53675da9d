//! Persistent worker pool with one shared queue.
//!
//! The engine's unit of parallel work is a *shard task* (answer a batch's
//! sub-queries against one shard). Those tasks are short — microseconds
//! to a fraction of a millisecond — so spawning an OS thread per batch, as
//! `std::thread::scope` does, costs more than the work itself. The
//! [`Pool`] keeps a fixed set of workers alive for the lifetime of the
//! engine instead:
//!
//! * **One queue.** [`Pool::run`] appends a batch's jobs to a single FIFO
//!   queue guarded by one mutex; workers pop from its front and wait on
//!   one condvar tied to that mutex, so a push cannot slip between a
//!   worker's emptiness check and its wait.
//! * **Caller helping.** [`Pool::run`] enqueues a batch and then lets the
//!   submitting thread drain jobs alongside the workers instead of
//!   blocking. On a single-core host this degrades gracefully to inline
//!   execution plus negligible queueing overhead — the caller simply pops
//!   its own jobs back — while on a many-core host the workers genuinely
//!   parallelize the batch.
//! * **Idle cycles are donated.** An optional [`PoolConfig::idle_task`]
//!   hook runs whenever a worker finds the queue empty. The engine points
//!   this at cold-shard maintenance, so background convergence consumes
//!   exactly the cycles serving leaves free and stops the moment a query
//!   task arrives (each call performs one bounded slice of work — how
//!   much is the hook's choice; the engine batches several budgeted steps
//!   per call to amortise locking). Once the hook reports nothing to do,
//!   the worker sleeps until a job arrives or 50 ms pass.
//!
//! Every job belongs to a [`Pool::run`] batch, and `run` returns only once
//! its batch has finished, so [`Pool::shutdown`] (or dropping the pool)
//! finds the queue empty and only has to stop the workers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use pi_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// A unit of work executed by the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Hook run by a worker when the queue is empty. Receives the worker's
/// id; returns `true` when it performed useful work (the worker will call
/// again after re-checking the queue) and `false` when there is nothing
/// to do (the worker sleeps).
pub type IdleTask = Arc<dyn Fn(usize) -> bool + Send + Sync>;

/// How long a worker whose idle task reported nothing to do sleeps before
/// asking it again, unless a job wakes it first. New work for the idle
/// task (a write reopening a shard) announces itself to nobody, so it is
/// polled for; without an idle task a worker waits for jobs untimed.
const IDLE_RECHECK: Duration = Duration::from_millis(50);

/// Pool construction parameters.
#[derive(Clone)]
pub struct PoolConfig {
    /// Number of persistent worker threads (at least 1).
    pub workers: usize,
    /// Background task donated the workers' idle cycles (see
    /// [`IdleTask`]).
    pub idle_task: Option<IdleTask>,
    /// Registry receiving the pool's `sched.pool.*` metrics (queue depth,
    /// jobs, caller-helped jobs, donated idle cycles, jobs per run).
    /// `None` — the default — keeps them in a private registry that only
    /// [`Pool::stats`] reads; the engine passes its registry down so the
    /// whole serving stack lands in one snapshot.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            idle_task: None,
            metrics: None,
        }
    }
}

impl std::fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolConfig")
            .field("workers", &self.workers)
            .field("idle_task", &self.idle_task.as_ref().map(|_| "…"))
            .field("metrics", &self.metrics.as_ref().map(|_| "…"))
            .finish()
    }
}

/// The pool's counters, read from its `sched.pool.*` metrics. The
/// counters are read one after another, not as one atomic snapshot, so a
/// read racing a pop may see it in one counter and not yet in another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs executed by the worker threads.
    pub executed: u64,
    /// Jobs executed by helping caller threads inside [`Pool::run`].
    pub helped: u64,
    /// Idle-task invocations that reported useful work.
    pub idle_work: u64,
}

impl PoolStats {
    /// Total jobs executed by workers and helpers together.
    pub fn total_executed(&self) -> u64 {
        self.executed + self.helped
    }
}

/// Registry handles for the pool's `sched.pool.*` metric family: the
/// source of [`PoolStats`] as well as of dashboards and snapshots. All
/// counter traffic, so they stay live with `obs` off.
struct PoolObs {
    /// `sched.pool.queue_depth` — jobs enqueued and not yet popped.
    queue_depth: Arc<Gauge>,
    /// `sched.pool.jobs` — jobs executed (workers and helpers).
    jobs: Arc<Counter>,
    /// `sched.pool.helped` — jobs drained by helping `run` callers.
    helped: Arc<Counter>,
    /// `sched.pool.idle_cycles` — idle-task invocations that did work.
    idle_cycles: Arc<Counter>,
    /// `sched.pool.jobs_per_run` — batch size distribution of `run`.
    jobs_per_run: Arc<Histogram>,
}

impl PoolObs {
    fn register(registry: &MetricsRegistry) -> Self {
        // One queue has no siblings to steal from, so this stays 0. It is
        // registered only because pibench's peel reads it and fails on a
        // missing counter.
        registry.counter("sched.pool.steals");
        PoolObs {
            queue_depth: registry.gauge("sched.pool.queue_depth"),
            jobs: registry.counter("sched.pool.jobs"),
            helped: registry.counter("sched.pool.helped"),
            idle_cycles: registry.counter("sched.pool.idle_cycles"),
            jobs_per_run: registry.histogram("sched.pool.jobs_per_run"),
        }
    }
}

struct Shared {
    /// Every job not yet popped, oldest first.
    queue: Mutex<VecDeque<Job>>,
    /// Waits on `queue`: signalled by a push and by shutdown.
    wake: Condvar,
    /// Written under the `queue` lock, so a worker that saw it clear
    /// under that lock is waiting by the time it flips.
    shutdown: AtomicBool,
    idle_task: Option<IdleTask>,
    obs: PoolObs,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().expect("pool queue poisoned")
    }

    /// Pops the oldest job, counted as a worker's or a helping caller's.
    fn pop(&self, queue: &mut VecDeque<Job>, helped: bool) -> Option<Job> {
        let job = queue.pop_front()?;
        self.obs.queue_depth.set_u64(queue.len() as u64);
        self.obs.jobs.inc();
        if helped {
            self.obs.helped.inc();
        }
        Some(job)
    }

    /// Every popped job is a [`Pool::run`] wrapper that catches its own
    /// panic, so running it never unwinds the worker.
    fn worker_loop(&self, w: usize) {
        loop {
            let mut queue = self.lock();
            if let Some(job) = self.pop(&mut queue, false) {
                drop(queue);
                job();
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let Some(idle) = &self.idle_task else {
                drop(self.wake.wait(queue).expect("pool queue poisoned"));
                continue;
            };
            drop(queue);
            if idle(w) {
                self.obs.idle_cycles.inc();
                continue;
            }
            let queue = self.lock();
            if queue.is_empty() && !self.shutdown.load(Ordering::Acquire) {
                let _ = self
                    .wake
                    .wait_timeout(queue, IDLE_RECHECK)
                    .expect("pool queue poisoned");
            }
        }
    }
}

/// Synchronisation point for one [`Pool::run`] batch.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    /// Set when a job of *this* batch panicked; re-raised by this batch's
    /// `run` caller (per batch, so a panic can never surface in — or be
    /// swallowed by — a concurrent batch's caller).
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().expect("latch poisoned") == 0
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("latch poisoned");
        }
    }
}

/// The persistent worker pool. See the module docs for the design.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool of `workers` threads, no idle task, private metrics.
    pub fn new(workers: usize) -> Self {
        Self::with_config(PoolConfig {
            workers,
            ..PoolConfig::default()
        })
    }

    /// A pool built from an explicit configuration.
    ///
    /// # Panics
    /// Panics when `config.workers == 0`.
    pub fn with_config(config: PoolConfig) -> Self {
        assert!(config.workers > 0, "a pool needs at least one worker");
        let registry = config
            .metrics
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            idle_task: config.idle_task,
            obs: PoolObs::register(&registry),
        });
        let handles = (0..config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pi-sched-{w}"))
                    .spawn(move || shared.worker_loop(w))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs a batch of jobs to completion. The `usize` of each pair is
    /// not read: every job goes to the one shared queue.
    ///
    /// The calling thread does not block idly: after enqueueing it helps
    /// drain the queue (possibly executing jobs of other concurrent
    /// batches — all jobs are independent) until every job of *this*
    /// batch has finished. Any number of threads may call `run`
    /// concurrently.
    pub fn run(&self, jobs: Vec<(usize, Job)>) {
        if jobs.is_empty() {
            return;
        }
        /// Counts the latch down when dropped, so a job completes the
        /// batch however its closure ends.
        struct CountDown(Arc<Latch>);
        impl Drop for CountDown {
            fn drop(&mut self) {
                self.0.count_down();
            }
        }
        let count = jobs.len();
        let latch = Arc::new(Latch::new(count));
        self.shared.obs.jobs_per_run.record(count as u64);
        {
            let mut queue = self.shared.lock();
            for (_, job) in jobs {
                // Declared before the catch so the count-down (its Drop)
                // runs after the panic flag is stored — the caller's
                // post-batch check must observe the flag once the latch
                // opens.
                let guard = CountDown(Arc::clone(&latch));
                queue.push_back(Box::new(move || {
                    let _guard = guard;
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                        _guard.0.panicked.store(true, Ordering::Release);
                    }
                }));
            }
            self.shared.obs.queue_depth.set_u64(queue.len() as u64);
        }
        // One waiting worker per job is enough; the rest stay asleep.
        for _ in 0..count.min(self.workers()) {
            self.shared.wake.notify_one();
        }
        while !latch.is_done() {
            // `let`, not `match`: the queue guard must drop before the job runs.
            let job = self.shared.pop(&mut self.shared.lock(), true);
            match job {
                // The drained job may belong to any batch; its wrapper
                // catches its panic, so a foreign panic cannot unwind
                // this caller.
                Some(job) => job(),
                // Every job of this batch is already claimed by a worker;
                // wait for the stragglers to finish.
                None => latch.wait(),
            }
        }
        assert!(
            !latch.panicked.load(Ordering::Acquire),
            "a pool job of this batch panicked"
        );
    }

    /// The pool's counters.
    pub fn stats(&self) -> PoolStats {
        let obs = &self.shared.obs;
        let helped = obs.helped.get();
        PoolStats {
            executed: obs.jobs.get().saturating_sub(helped),
            helped,
            idle_work: obs.idle_cycles.get(),
        }
    }

    /// Stops the workers and returns once all of them have been joined.
    /// No job is queued outside a [`Pool::run`], which borrows the pool,
    /// so none is left behind. Dropping the pool does the same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let _queue = self.shared.lock();
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("pool worker panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_executes_every_job_exactly_once() {
        let pool = Pool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<(usize, Job)> = (0..100)
            .map(|i| {
                let counter = Arc::clone(&counter);
                (
                    i,
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Job,
                )
            })
            .collect();
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn concurrent_runs_from_many_threads() {
        let pool = Arc::new(Pool::new(3));
        let counter = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for round in 0..10 {
                        let jobs: Vec<(usize, Job)> = (0..8)
                            .map(|i| {
                                let counter = Arc::clone(&counter);
                                (
                                    t * 100 + round * 8 + i,
                                    Box::new(move || {
                                        counter.fetch_add(1, Ordering::Relaxed);
                                    }) as Job,
                                )
                            })
                            .collect();
                        pool.run(jobs);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 10 * 8);
    }

    #[test]
    fn idle_task_runs_when_pool_is_empty() {
        let hits = Arc::new(AtomicUsize::new(0));
        let idle_hits = Arc::clone(&hits);
        let pool = Pool::with_config(PoolConfig {
            workers: 1,
            idle_task: Some(Arc::new(move |_w| {
                // Report work a bounded number of times, then go idle.
                idle_hits.fetch_add(1, Ordering::Relaxed) < 10
            })),
            metrics: None,
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while hits.load(Ordering::Relaxed) <= 10 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(hits.load(Ordering::Relaxed) > 10, "idle task never ran");
        assert!(pool.stats().idle_work >= 10);
        pool.shutdown();
    }

    #[test]
    fn pool_metrics_land_in_the_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let pool = Pool::with_config(PoolConfig {
            workers: 2,
            metrics: Some(Arc::clone(&registry)),
            ..PoolConfig::default()
        });
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<(usize, Job)> = (0..30)
            .map(|i| {
                let counter = Arc::clone(&counter);
                (
                    i,
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Job,
                )
            })
            .collect();
        pool.run(jobs);
        let stats = pool.stats();
        pool.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sched.pool.jobs"), Some(30));
        assert_eq!(stats.total_executed(), 30);
        assert_eq!(snap.counter("sched.pool.helped"), Some(stats.helped));
        let per_run = snap.histogram("sched.pool.jobs_per_run").unwrap();
        assert_eq!(per_run.count, 1);
        assert_eq!(per_run.sum, 30);
        // The depth gauge is set under the queue lock, so the last pop's
        // write is the one left.
        assert_eq!(snap.gauge("sched.pool.queue_depth"), Some(0.0));
        assert_eq!(snap.counter("sched.pool.steals"), Some(0));
    }

    #[test]
    fn panicking_job_fails_the_batch_without_hanging() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(vec![(0, Box::new(|| panic!("job boom")) as Job)]);
        }));
        assert!(result.is_err(), "run() must re-raise the job's panic");
        // The workers survive the panic and the pool keeps serving.
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<(usize, Job)> = (0..4)
            .map(|i| {
                let counter = Arc::clone(&counter);
                (
                    i,
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Job,
                )
            })
            .collect();
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        pool.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Pool::new(0);
    }
}
