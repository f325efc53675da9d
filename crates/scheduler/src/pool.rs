//! Persistent, shard-affine work-stealing worker pool.
//!
//! The engine's unit of parallel work is a *shard task* (answer a batch's
//! sub-queries against one shard). Those tasks are short — microseconds
//! to a fraction of a millisecond — so spawning an OS thread per batch, as
//! `std::thread::scope` does, costs more than the work itself. The
//! [`Pool`] keeps a fixed set of workers alive for the lifetime of the
//! engine instead:
//!
//! * **One deque per worker.** [`Pool::run`] routes each job of a batch
//!   to the deque chosen by its *affinity key* (`key % workers`). The
//!   engine keys jobs by shard id, so the same shard lands on the same
//!   worker run after run and its working set stays warm in that
//!   worker's cache.
//! * **Stealing for balance.** A worker whose own deque is empty steals
//!   from the *back* of its siblings' deques, so skewed workloads cannot
//!   idle seven workers while one drowns.
//! * **Caller helping.** [`Pool::run`] enqueues a batch and then lets the
//!   submitting thread drain jobs alongside the workers instead of
//!   blocking. On a single-core host this degrades gracefully to inline
//!   execution plus negligible queueing overhead — the caller simply pops
//!   its own jobs back — while on a many-core host the workers genuinely
//!   parallelize the batch.
//! * **Idle cycles are donated.** An optional [`PoolConfig::idle_task`]
//!   hook runs whenever a worker finds every deque empty. The engine
//!   points this at cold-shard maintenance, so background convergence
//!   consumes exactly the cycles serving leaves free and stops the moment
//!   a query task arrives (each call performs one bounded slice of work —
//!   how much is the hook's choice; the engine batches several budgeted
//!   steps per call to amortise locking).
//!
//! Every job belongs to a [`Pool::run`] batch, and `run` returns only once
//! its batch has finished, so [`Pool::shutdown`] (or dropping the pool)
//! finds every deque empty and only has to stop the workers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pi_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// A unit of work executed by the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Hook run by a worker when every deque is empty. Receives the worker's
/// id; returns `true` when it performed useful work (the worker will call
/// again after re-checking the deques) and `false` when there is nothing
/// to do (the worker parks).
pub type IdleTask = Arc<dyn Fn(usize) -> bool + Send + Sync>;

/// Pool construction parameters.
#[derive(Clone)]
pub struct PoolConfig {
    /// Number of persistent worker threads (at least 1).
    pub workers: usize,
    /// Background task donated the workers' idle cycles (see
    /// [`IdleTask`]).
    pub idle_task: Option<IdleTask>,
    /// How long a worker parks when there are no jobs and the idle task
    /// reports no work. Parked workers are woken eagerly on every enqueued
    /// job; the timeout is only a backstop.
    pub idle_park: Duration,
    /// Registry receiving the pool's `sched.pool.*` metrics (queue depth,
    /// steals, donated idle cycles, jobs per run). `None` — the default —
    /// records nothing; the engine passes its registry down so the whole
    /// serving stack lands in one snapshot.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            idle_task: None,
            idle_park: Duration::from_millis(50),
            metrics: None,
        }
    }
}

impl std::fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolConfig")
            .field("workers", &self.workers)
            .field("idle_task", &self.idle_task.as_ref().map(|_| "…"))
            .field("idle_park", &self.idle_park)
            .field("metrics", &self.metrics.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Per-worker counters, for observability and the fairness tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs each worker executed (including stolen ones).
    pub executed: Vec<u64>,
    /// Jobs each worker stole from a sibling's deque.
    pub stolen: Vec<u64>,
    /// Jobs executed by helping caller threads inside [`Pool::run`].
    pub helped: u64,
    /// Idle-task invocations that reported useful work.
    pub idle_work: u64,
}

impl PoolStats {
    /// Total jobs executed by workers and helpers together.
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum::<u64>() + self.helped
    }
}

/// Registry handles for the pool's `sched.pool.*` metric family. The
/// per-worker [`PoolStats`] atomics remain the source of truth for the
/// fairness tests; these aggregate handles are what dashboards and
/// snapshots read. All counter traffic — one relaxed add next to the
/// pre-existing stats add — so they stay live with `obs` off.
struct PoolObs {
    /// `sched.pool.queue_depth` — jobs enqueued and not yet popped.
    queue_depth: Arc<Gauge>,
    /// `sched.pool.jobs` — jobs executed (workers and helpers).
    jobs: Arc<Counter>,
    /// `sched.pool.steals` — jobs taken from a sibling's deque.
    steals: Arc<Counter>,
    /// `sched.pool.helped` — jobs drained by helping `run` callers.
    helped: Arc<Counter>,
    /// `sched.pool.idle_cycles` — idle-task invocations that did work.
    idle_cycles: Arc<Counter>,
    /// `sched.pool.jobs_per_run` — batch size distribution of `run`.
    jobs_per_run: Arc<Histogram>,
}

impl PoolObs {
    fn register(registry: &MetricsRegistry) -> Self {
        PoolObs {
            queue_depth: registry.gauge("sched.pool.queue_depth"),
            jobs: registry.counter("sched.pool.jobs"),
            steals: registry.counter("sched.pool.steals"),
            helped: registry.counter("sched.pool.helped"),
            idle_cycles: registry.counter("sched.pool.idle_cycles"),
            jobs_per_run: registry.histogram("sched.pool.jobs_per_run"),
        }
    }
}

struct Shared {
    /// One deque per worker; `push` appends to `key % workers`.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs currently enqueued across all deques (not yet popped).
    queued: AtomicUsize,
    /// Lock + condvar parking idle workers; `queued` is re-checked under
    /// the lock so a push's notification cannot be lost.
    park: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Workers currently blocked in the park wait; lets `push` skip the
    /// park lock entirely when nobody is parked (the common busy case).
    parked: AtomicUsize,
    idle_task: Option<IdleTask>,
    idle_park: Duration,
    executed: Vec<AtomicU64>,
    stolen: Vec<AtomicU64>,
    helped: AtomicU64,
    idle_work: AtomicU64,
    obs: Option<PoolObs>,
}

impl Shared {
    /// Pops a job for worker `w`: its own deque first (front — oldest
    /// first, preserving rough submission order per shard), then a steal
    /// sweep over the siblings (back — the job least likely to be warm in
    /// the victim's cache).
    /// Mirrors a pop's accounting into the registry, if one is attached.
    #[inline]
    fn note_popped(&self, depth_before: usize, stolen: bool, helped: bool) {
        if let Some(obs) = &self.obs {
            obs.queue_depth
                .set_u64(depth_before.saturating_sub(1) as u64);
            obs.jobs.inc();
            if stolen {
                obs.steals.inc();
            }
            if helped {
                obs.helped.inc();
            }
        }
    }

    fn pop(&self, w: usize) -> Option<Job> {
        if let Some(job) = self.queues[w]
            .lock()
            .expect("pool queue poisoned")
            .pop_front()
        {
            let before = self.queued.fetch_sub(1, Ordering::Relaxed);
            self.executed[w].fetch_add(1, Ordering::Relaxed);
            self.note_popped(before, false, false);
            return Some(job);
        }
        let n = self.queues.len();
        for step in 1..n {
            let victim = (w + step) % n;
            if let Some(job) = self.queues[victim]
                .lock()
                .expect("pool queue poisoned")
                .pop_back()
            {
                let before = self.queued.fetch_sub(1, Ordering::Relaxed);
                self.executed[w].fetch_add(1, Ordering::Relaxed);
                self.stolen[w].fetch_add(1, Ordering::Relaxed);
                self.note_popped(before, true, false);
                return Some(job);
            }
        }
        None
    }

    /// Steal sweep for a helping caller thread (no home deque).
    fn pop_any(&self) -> Option<Job> {
        for queue in &self.queues {
            if let Some(job) = queue.lock().expect("pool queue poisoned").pop_back() {
                let before = self.queued.fetch_sub(1, Ordering::Relaxed);
                self.helped.fetch_add(1, Ordering::Relaxed);
                self.note_popped(before, false, true);
                return Some(job);
            }
        }
        None
    }

    fn push(&self, affinity: usize, job: Job) {
        let n = self.queues.len();
        self.queues[affinity % n]
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        let before = self.queued.fetch_add(1, Ordering::SeqCst);
        if let Some(obs) = &self.obs {
            obs.queue_depth.set_u64(before as u64 + 1);
        }
        // Wake a parked worker — one new job needs at most one. When no
        // worker is parked (the common busy case) the park lock is
        // skipped entirely. SeqCst on `queued` above and `parked` here
        // pairs with the worker's store-parked-then-recheck-queued
        // sequence under the park lock: either the worker sees the new
        // job and never waits, or this thread sees `parked > 0` and the
        // lock-ordered notify reaches it. The park timeout backstops any
        // interleaving this misses.
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().expect("pool park lock poisoned");
            self.wake.notify_one();
        }
    }

    /// Every popped job is a [`Pool::run`] wrapper that catches its own
    /// panic, so running it never unwinds the worker.
    fn worker_loop(&self, w: usize) {
        loop {
            if let Some(job) = self.pop(w) {
                job();
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if let Some(idle) = &self.idle_task {
                if idle(w) {
                    self.idle_work.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = &self.obs {
                        obs.idle_cycles.inc();
                    }
                    continue;
                }
            }
            let guard = self.park.lock().expect("pool park lock poisoned");
            // Declare parked *before* the queued re-check: a push that
            // this check misses is then guaranteed to observe
            // `parked > 0` (SeqCst pairing in `push`) and notify under
            // the lock we hold, so the wakeup cannot be lost.
            self.parked.fetch_add(1, Ordering::SeqCst);
            if self.queued.load(Ordering::SeqCst) == 0 && !self.shutdown.load(Ordering::Acquire) {
                let _ = self
                    .wake
                    .wait_timeout(guard, self.idle_park)
                    .expect("pool park lock poisoned");
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
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
    /// A pool of `workers` threads with default parking and no idle task.
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
        let shared = Arc::new(Shared {
            queues: (0..config.workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            queued: AtomicUsize::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            idle_task: config.idle_task,
            idle_park: config.idle_park,
            executed: (0..config.workers).map(|_| AtomicU64::new(0)).collect(),
            stolen: (0..config.workers).map(|_| AtomicU64::new(0)).collect(),
            helped: AtomicU64::new(0),
            idle_work: AtomicU64::new(0),
            obs: config.metrics.as_deref().map(PoolObs::register),
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
        self.shared.queues.len()
    }

    /// Runs a batch of `(affinity, job)` pairs to completion.
    ///
    /// The calling thread does not block idly: after enqueueing it helps
    /// drain the deques (possibly executing jobs of other concurrent
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
        let latch = Arc::new(Latch::new(jobs.len()));
        if let Some(obs) = &self.shared.obs {
            obs.jobs_per_run.record(jobs.len() as u64);
        }
        for (affinity, job) in jobs {
            // Declared before the catch so the count-down (its Drop) runs
            // after the panic flag is stored — the caller's post-batch
            // check must observe the flag once the latch opens.
            let guard = CountDown(Arc::clone(&latch));
            self.shared.push(
                affinity,
                Box::new(move || {
                    let _guard = guard;
                    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                        _guard.0.panicked.store(true, Ordering::Release);
                    }
                }),
            );
        }
        while !latch.is_done() {
            match self.shared.pop_any() {
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

    /// Snapshot of the per-worker counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            executed: self
                .shared
                .executed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            stolen: self
                .shared
                .stolen
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            helped: self.shared.helped.load(Ordering::Relaxed),
            idle_work: self.shared.idle_work.load(Ordering::Relaxed),
        }
    }

    /// Stops the workers and returns once all of them have been joined.
    /// No job is queued outside a [`Pool::run`], which borrows the pool,
    /// so none is left behind. Dropping the pool does the same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.park.lock().expect("pool park lock poisoned");
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

/// Pins weighted shards to workers: longest-processing-time-first greedy
/// assignment, so each worker's pinned shards carry roughly equal total
/// weight. Returns the worker index for every shard. Shards with equal
/// weight keep a deterministic assignment (stable order).
///
/// The engine weights shards by row count (equi-depth sharding makes the
/// weights near-uniform, but explicit [`RangePartition`] boundaries and
/// duplicate-heavy data can skew them arbitrarily).
///
/// [`RangePartition`]: https://docs.rs/pi-storage
///
/// # Panics
/// Panics when `workers == 0`.
pub fn plan_affinity(weights: &[usize], workers: usize) -> Vec<usize> {
    assert!(workers > 0, "affinity plan needs at least one worker");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut load = vec![0usize; workers];
    let mut assignment = vec![0usize; weights.len()];
    for shard in order {
        let worker = (0..workers)
            .min_by_key(|&w| (load[w], w))
            .expect("workers > 0");
        assignment[shard] = worker;
        load[worker] += weights[shard];
    }
    assignment
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
            idle_park: Duration::from_millis(1),
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
        pool.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sched.pool.jobs"), Some(30));
        let per_run = snap.histogram("sched.pool.jobs_per_run").unwrap();
        assert_eq!(per_run.count, 1);
        assert_eq!(per_run.sum, 30);
        // The depth gauge is last-write-wins across racing pops, so only
        // its presence and plausibility are asserted here.
        let depth = snap.gauge("sched.pool.queue_depth").expect("depth gauge");
        assert!((0.0..=30.0).contains(&depth), "implausible depth {depth}");
        // Steals + helped are workload-dependent; the counters must at
        // least exist in the snapshot.
        assert!(snap.counter("sched.pool.steals").is_some());
        assert!(snap.counter("sched.pool.helped").is_some());
    }

    #[test]
    fn affinity_plan_balances_weights() {
        // Eight equal shards over four workers: two each.
        let plan = plan_affinity(&[10; 8], 4);
        for w in 0..4 {
            assert_eq!(plan.iter().filter(|&&a| a == w).count(), 2);
        }
        // A dominant shard gets a worker mostly to itself.
        let plan = plan_affinity(&[100, 10, 10, 10], 2);
        let big_worker = plan[0];
        let coloaded: usize = (1..4).filter(|&i| plan[i] == big_worker).count();
        assert!(
            coloaded <= 1,
            "heavy shard co-located with {coloaded} light shards"
        );
        // More workers than shards is fine.
        assert_eq!(plan_affinity(&[5], 8).len(), 1);
        assert!(plan_affinity(&[], 3).is_empty());
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
