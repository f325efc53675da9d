//! Async-style serving front-end: bounded admission queue, batch
//! coalescing, backpressure and graceful shutdown.
//!
//! Clients do not call the engine directly; they [`Server::submit`] (or
//! [`Server::try_submit`]) a batch of requests and receive a [`Ticket`] —
//! a one-shot future. The server owns admission control:
//!
//! * **Who runs a batch.** A blocking [`Server::submit`] that finds the
//!   server idle — nothing queued, no batch in flight — runs its batch on
//!   the submitting thread and returns a ticket that is already resolved:
//!   handing an uncontended batch to a dispatcher and waiting for it costs
//!   two condvar round trips, more than most batches. Everything else is
//!   queued for the dispatcher thread, which coalesces it.
//!   [`Server::try_submit`] always queues. Batches therefore *start* in
//!   admission order: a submitter runs its own batch only when nothing
//!   admitted before it is still waiting or running.
//! * **Bounded queue.** At most [`ServerConfig::queue_capacity`]
//!   submissions wait at any time. `try_submit` returns
//!   [`SubmitError::QueueFull`] instead of queueing unboundedly —
//!   backpressure the client can act on (shed, retry, slow down);
//!   `submit` blocks until space frees up.
//! * **Batch coalescing.** The dispatcher drains up to
//!   [`ServerConfig::max_coalesced_queries`] queued requests and executes
//!   them as *one* engine batch, so per-batch costs (name resolution,
//!   shard fan-out) amortize across clients under load — the
//!   server-level analogue of the paper's per-query budget amortization.
//!   If the coalesced batch fails (e.g. one client addressed an unknown
//!   column), the dispatcher falls back to executing each submission
//!   separately so one bad request cannot fail its neighbours.
//! * **Idle-cycle maintenance.** When the queue is empty the dispatcher
//!   donates its cycles to [`BatchExecutor::idle_maintain`], one bounded
//!   maintenance cycle per call (the engine's runs up to a column's shard
//!   count of budgeted steps under one shard lock), so cold shards keep
//!   converging even when no client ever queries their range.
//! * **Graceful shutdown.** [`Server::shutdown`] stops admissions
//!   (subsequent submits fail with [`SubmitError::ShutDown`]), lets the
//!   dispatcher drain every already-accepted submission, joins it and
//!   waits for the batches submitters are running themselves. Every
//!   accepted ticket is resolved when it returns.
//! * **Observability.** Admission, execution and coalescing land in a
//!   [`pi_obs::MetricsRegistry`] under `server.*` names (see
//!   [`Server::with_metrics`]); [`Server::stats`] is a consistent read of
//!   those metrics plus the queue depth under one lock. Clock-based
//!   metrics (queue wait, ticket latency) vanish when the `obs` feature
//!   is off.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pi_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// A batch-executing backend the server can serve. `pi-engine`'s
/// `Executor` is the canonical implementation; tests use mocks.
pub trait BatchExecutor: Send + Sync + 'static {
    /// One request (for the engine: a range-sum query on a named column).
    type Request: Send + 'static;
    /// One response, positionally matching the request.
    type Response: Send + 'static;
    /// Batch-level error. `Clone` because a coalesced failure may need to
    /// be delivered to several tickets.
    type Error: Send + Clone + std::fmt::Debug + 'static;

    /// Executes a batch; on success returns exactly one response per
    /// request, in request order.
    fn execute_batch(&self, batch: &[Self::Request]) -> Result<Vec<Self::Response>, Self::Error>;

    /// Performs one bounded background-maintenance cycle — as many
    /// budgeted steps as the implementation batches per call (the engine
    /// runs up to a column's shard count of steps under one shard lock).
    /// Returns `true` when work was performed, `false` when there is none
    /// left (the dispatcher then parks instead of spinning). Default: no
    /// maintenance.
    fn idle_maintain(&self) -> bool {
        false
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity — backpressure; retry later or
    /// shed the request.
    QueueFull,
    /// The server is shutting down and no longer accepts work.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue is full"),
            SubmitError::ShutDown => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Error of [`Server::try_submit`]. Carries the rejected batch back to
/// the caller (like `std::sync::mpsc::TrySendError`), so retrying under
/// backpressure does not rebuild the requests.
#[derive(Debug)]
pub struct TrySubmitError<R> {
    /// Why the submission was refused.
    pub error: SubmitError,
    /// The refused batch, returned unchanged.
    pub requests: Vec<R>,
}

impl<R> std::fmt::Display for TrySubmitError<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl<R: std::fmt::Debug> std::error::Error for TrySubmitError<R> {}

/// How long the idle dispatcher parks before asking
/// [`BatchExecutor::idle_maintain`] again; a submission wakes it sooner.
const IDLE_PARK: Duration = Duration::from_millis(20);

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum number of submissions waiting in the admission queue.
    pub queue_capacity: usize,
    /// The dispatcher stops coalescing once the combined batch reaches
    /// this many requests.
    pub max_coalesced_queries: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 128,
            max_coalesced_queries: 256,
        }
    }
}

/// Aggregate serving counters (monotonic since server start, except
/// `queue_depth` which is the instantaneous depth). Produced by
/// [`Server::stats`] as one consistent snapshot: the admission counters
/// and the queue depth are read under the same queue lock that guards
/// admission, so they cannot disagree mid-read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Submissions accepted into the queue.
    pub accepted: u64,
    /// `try_submit` rejections due to a full queue.
    pub rejected: u64,
    /// Engine batches executed (after coalescing).
    pub executed_batches: u64,
    /// Individual requests served successfully (failed batches resolve
    /// their tickets with the error and are not counted here).
    pub served_requests: u64,
    /// Idle cycles in which [`BatchExecutor::idle_maintain`] performed
    /// background maintenance. Counts cycles, not budgeted steps: one
    /// engine cycle runs up to a column's shard count of steps.
    pub maintenance_steps: u64,
    /// Dispatcher runs that combined two or more submissions into one
    /// engine batch.
    pub coalesced_batches: u64,
    /// Submissions waiting in the admission queue right now (excluding
    /// in-flight batches), read under the same lock as the counters.
    pub queue_depth: u64,
}

/// The server's metric handles, registered under `server.*` in the
/// registry the server was built with. Counters/gauges are always live
/// (they back [`ServerStats`]); the `_ns` histograms only receive
/// samples when [`pi_obs::ENABLED`] is true.
struct ServerObs {
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    executed_batches: Arc<Counter>,
    served_requests: Arc<Counter>,
    maintenance_steps: Arc<Counter>,
    coalesced_batches: Arc<Counter>,
    /// Batches run by their own submitter instead of a dispatcher.
    caller_runs: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    /// Requests per delivered engine batch (after coalescing).
    coalesced_size: Arc<Histogram>,
    /// Enqueue → dispatcher pop, nanoseconds; zero for a batch its
    /// submitter runs. Gated on the `obs` feature.
    queue_wait_ns: Arc<Histogram>,
    /// Enqueue → ticket fulfilled, nanoseconds. Gated on the `obs`
    /// feature.
    ticket_latency_ns: Arc<Histogram>,
}

impl ServerObs {
    fn register(registry: &MetricsRegistry) -> ServerObs {
        ServerObs {
            accepted: registry.counter("server.accepted"),
            rejected: registry.counter("server.rejected"),
            executed_batches: registry.counter("server.executed_batches"),
            served_requests: registry.counter("server.served_requests"),
            maintenance_steps: registry.counter("server.maintenance_steps"),
            coalesced_batches: registry.counter("server.coalesced_batches"),
            caller_runs: registry.counter("server.caller_runs"),
            queue_depth: registry.gauge("server.queue_depth"),
            coalesced_size: registry.histogram("server.coalesced_size"),
            queue_wait_ns: registry.histogram("server.queue_wait_ns"),
            ticket_latency_ns: registry.histogram("server.ticket_latency_ns"),
        }
    }

    /// Records enqueue-to-fulfilment latency for one resolved ticket.
    #[inline]
    fn note_ticket_latency(&self, enqueued_at: Option<Instant>) {
        if pi_obs::ENABLED {
            if let Some(enqueued_at) = enqueued_at {
                self.ticket_latency_ns
                    .record_duration(enqueued_at.elapsed());
            }
        }
    }
}

/// One-shot handle to a submission's eventual result.
pub struct Ticket<E: BatchExecutor> {
    slot: Arc<Slot<E>>,
}

/// A submission's eventual outcome: all responses, or the batch error.
type BatchResult<E> = Result<Vec<<E as BatchExecutor>::Response>, <E as BatchExecutor>::Error>;

struct Slot<E: BatchExecutor> {
    result: Mutex<Option<BatchResult<E>>>,
    ready: Condvar,
    /// Set when the executor panicked while serving this submission; the
    /// waiters re-raise instead of blocking forever (the dispatcher
    /// itself survives and keeps serving other submissions).
    poisoned: AtomicBool,
    /// Set once a waiter has taken the result, so a second `wait` after a
    /// successful `try_wait` fails loudly instead of blocking forever on
    /// a slot that will never be refilled.
    taken: AtomicBool,
}

impl<E: BatchExecutor> Slot<E> {
    fn new() -> Self {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
            poisoned: AtomicBool::new(false),
            taken: AtomicBool::new(false),
        }
    }

    fn fulfil(&self, result: Result<Vec<E::Response>, E::Error>) {
        let mut slot = self.result.lock().expect("ticket slot poisoned");
        debug_assert!(slot.is_none(), "ticket fulfilled twice");
        *slot = Some(result);
        self.ready.notify_all();
    }

    fn poison(&self) {
        let _slot = self.result.lock().expect("ticket slot poisoned");
        self.poisoned.store(true, Ordering::Release);
        self.ready.notify_all();
    }

    fn check_poison(&self) {
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "the executor panicked while serving this submission"
        );
    }
}

impl<E: BatchExecutor> Ticket<E> {
    /// Blocks until the submission has been served. Accepted submissions
    /// are always served, even across [`Server::shutdown`].
    ///
    /// # Panics
    /// Re-raises (as a panic) an executor panic that occurred while
    /// serving this submission, and panics if the result was already
    /// taken by an earlier [`Ticket::try_wait`].
    pub fn wait(self) -> Result<Vec<E::Response>, E::Error> {
        let mut slot = self.slot.result.lock().expect("ticket slot poisoned");
        loop {
            self.slot.check_poison();
            if let Some(result) = slot.take() {
                self.slot.taken.store(true, Ordering::Relaxed);
                return result;
            }
            assert!(
                !self.slot.taken.load(Ordering::Relaxed),
                "ticket result already taken by an earlier try_wait"
            );
            slot = self.slot.ready.wait(slot).expect("ticket slot poisoned");
        }
    }

    /// Non-blocking poll; `None` while the submission is still queued or
    /// executing.
    ///
    /// # Panics
    /// Re-raises (as a panic) an executor panic that occurred while
    /// serving this submission, and panics if the result was already
    /// taken by an earlier call.
    pub fn try_wait(&self) -> Option<Result<Vec<E::Response>, E::Error>> {
        let mut slot = self.slot.result.lock().expect("ticket slot poisoned");
        self.slot.check_poison();
        let result = slot.take();
        if result.is_some() {
            self.slot.taken.store(true, Ordering::Relaxed);
        } else {
            assert!(
                !self.slot.taken.load(Ordering::Relaxed),
                "ticket result already taken by an earlier try_wait"
            );
        }
        result
    }
}

struct Submission<E: BatchExecutor> {
    requests: Vec<E::Request>,
    slot: Arc<Slot<E>>,
    /// Admission time; `Some` only when [`pi_obs::ENABLED`] (the clock
    /// call is part of the gated cost).
    enqueued_at: Option<Instant>,
}

impl<E: BatchExecutor> Submission<E> {
    /// Stamps `requests` as admitted now; the ticket shares its slot.
    fn admit(requests: Vec<E::Request>) -> (Self, Ticket<E>) {
        let slot = Arc::new(Slot::new());
        let submission = Submission {
            requests,
            slot: Arc::clone(&slot),
            enqueued_at: pi_obs::ENABLED.then(Instant::now),
        };
        (submission, Ticket { slot })
    }
}

/// What the queue lock guards.
struct Admission<E: BatchExecutor> {
    waiting: VecDeque<Submission<E>>,
    /// Batches taken for execution and not yet resolved, by the
    /// dispatcher and by submitters running their own.
    in_flight: usize,
}

struct ServerShared<E: BatchExecutor> {
    executor: Arc<E>,
    config: ServerConfig,
    queue: Mutex<Admission<E>>,
    /// Wakes the dispatcher (new submission / shutdown).
    dispatch: Condvar,
    /// Wakes blocked `submit` callers (space freed / shutdown).
    space: Condvar,
    /// Wakes a `shutdown` waiting for the last in-flight batch.
    drained: Condvar,
    shutdown: AtomicBool,
    registry: Arc<MetricsRegistry>,
    obs: ServerObs,
}

impl<E: BatchExecutor> ServerShared<E> {
    /// Marks one batch taken by [`Admission::in_flight`] as resolved.
    fn batch_done(&self) {
        let mut queue = self.queue.lock().expect("server queue poisoned");
        queue.in_flight -= 1;
        if queue.in_flight == 0 && self.shutdown.load(Ordering::Acquire) {
            self.drained.notify_all();
        }
    }

    /// Calls the executor, catching a panic so the dispatcher thread
    /// survives: a dead dispatcher would strand every queued and future
    /// ticket. `None` means the executor panicked.
    fn execute_caught(&self, batch: &[E::Request]) -> Option<BatchResult<E>> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.executor.execute_batch(batch)
        }))
        .ok()
    }

    fn deliver(&self, submission: Submission<E>) {
        match self.execute_caught(&submission.requests) {
            Some(result) => {
                self.obs.executed_batches.inc();
                if result.is_ok() {
                    self.obs
                        .served_requests
                        .add(submission.requests.len() as u64);
                }
                submission.slot.fulfil(result);
                self.obs.note_ticket_latency(submission.enqueued_at);
            }
            None => submission.slot.poison(),
        }
    }

    /// Executes a coalesced run of submissions as one engine batch,
    /// splitting the responses back per submission. Falls back to
    /// per-submission execution when the combined batch fails, so one bad
    /// request only fails its own ticket.
    fn deliver_coalesced(&self, submissions: Vec<Submission<E>>) {
        let total: usize = submissions.iter().map(|s| s.requests.len()).sum();
        self.obs.coalesced_size.record(total as u64);
        if submissions.len() > 1 {
            self.obs.coalesced_batches.inc();
        }
        if submissions.len() == 1 {
            let submission = submissions.into_iter().next().expect("len checked");
            self.deliver(submission);
            return;
        }
        let mut sizes = Vec::with_capacity(submissions.len());
        let mut batch = Vec::new();
        let mut slots = Vec::with_capacity(submissions.len());
        let mut stamps = Vec::with_capacity(submissions.len());
        for submission in submissions {
            sizes.push(submission.requests.len());
            batch.extend(submission.requests);
            slots.push(submission.slot);
            stamps.push(submission.enqueued_at);
        }
        match self.execute_caught(&batch) {
            None => {
                // The executor panicked somewhere in the combined batch;
                // retrying the parts would panic again. Poison the run so
                // every waiter re-raises instead of hanging.
                for slot in &slots {
                    slot.poison();
                }
            }
            Some(Ok(mut responses)) => {
                self.obs.executed_batches.inc();
                self.obs.served_requests.add(batch.len() as u64);
                debug_assert_eq!(
                    responses.len(),
                    batch.len(),
                    "executor returned a response count mismatching the batch"
                );
                for (size, slot) in sizes.iter().zip(&slots).rev() {
                    let tail = responses.split_off(responses.len() - size);
                    slot.fulfil(Ok(tail));
                }
                for stamp in stamps {
                    self.obs.note_ticket_latency(stamp);
                }
            }
            Some(Err(_)) => {
                // Re-slice the moved batch back into per-submission
                // request lists and execute them in isolation.
                let mut rest = batch;
                let mut parts = Vec::with_capacity(sizes.len());
                for &size in sizes.iter().rev() {
                    let tail = rest.split_off(rest.len() - size);
                    parts.push(tail);
                }
                parts.reverse();
                for ((requests, slot), enqueued_at) in parts.into_iter().zip(slots).zip(stamps) {
                    self.deliver(Submission {
                        requests,
                        slot,
                        enqueued_at,
                    });
                }
            }
        }
    }

    fn dispatcher_loop(&self) {
        loop {
            let run = {
                let mut queue = self.queue.lock().expect("server queue poisoned");
                let mut run = Vec::new();
                let mut queries = 0;
                while let Some(front) = queue.waiting.front() {
                    if !run.is_empty()
                        && queries + front.requests.len() > self.config.max_coalesced_queries
                    {
                        break;
                    }
                    let submission = queue.waiting.pop_front().expect("front checked");
                    queries += submission.requests.len();
                    run.push(submission);
                    if queries >= self.config.max_coalesced_queries {
                        break;
                    }
                }
                self.obs.queue_depth.set_u64(queue.waiting.len() as u64);
                queue.in_flight += usize::from(!run.is_empty());
                run
            };
            if run.is_empty() {
                if self.shutdown.load(Ordering::Acquire) {
                    // Final drain check under the lock: `shutdown` is only
                    // set while holding the queue lock, so a submission
                    // that won the admission race is visible here — exit
                    // only when the queue is truly empty, or it would
                    // strand an accepted ticket.
                    let queue = self.queue.lock().expect("server queue poisoned");
                    if queue.waiting.is_empty() {
                        return;
                    }
                    continue;
                }
                if self.executor.idle_maintain() {
                    self.obs.maintenance_steps.inc();
                    continue;
                }
                let queue = self.queue.lock().expect("server queue poisoned");
                if queue.waiting.is_empty() && !self.shutdown.load(Ordering::Acquire) {
                    let _ = self
                        .dispatch
                        .wait_timeout(queue, IDLE_PARK)
                        .expect("server queue poisoned");
                }
                continue;
            }
            // Space freed: wake one blocked submitter per popped entry.
            self.space.notify_all();
            if pi_obs::ENABLED {
                let now = Instant::now();
                for submission in &run {
                    if let Some(enqueued_at) = submission.enqueued_at {
                        self.obs
                            .queue_wait_ns
                            .record_duration(now.saturating_duration_since(enqueued_at));
                    }
                }
            }
            self.deliver_coalesced(run);
            self.batch_done();
        }
    }
}

/// The serving front-end. See the module docs.
pub struct Server<E: BatchExecutor> {
    shared: Arc<ServerShared<E>>,
    /// Taken by the first `shutdown`, which joins it.
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<E: BatchExecutor> Server<E> {
    /// Starts a server (and its dispatcher thread) over `executor`.
    ///
    /// Metrics land in a fresh private registry (see
    /// [`Server::metrics`]); use [`Server::with_metrics`] to aggregate
    /// them into a shared registry instead.
    ///
    /// # Panics
    /// Panics when `config.queue_capacity` or
    /// `config.max_coalesced_queries` is zero.
    pub fn new(executor: Arc<E>, config: ServerConfig) -> Self {
        Self::with_metrics(executor, config, Arc::new(MetricsRegistry::new()))
    }

    /// Starts a server whose `server.*` metrics are registered in
    /// `registry`, so one snapshot can cover the server together with
    /// the pool, executor and index layers below it.
    ///
    /// Two servers sharing one registry share the same `server.*`
    /// handles — their [`Server::stats`] then aggregate across both.
    /// Give each server its own registry (the [`Server::new`] default)
    /// when per-server numbers matter.
    ///
    /// # Panics
    /// Panics when `config.queue_capacity` or
    /// `config.max_coalesced_queries` is zero.
    pub fn with_metrics(
        executor: Arc<E>,
        config: ServerConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(
            config.max_coalesced_queries > 0,
            "coalescing limit must be positive"
        );
        let obs = ServerObs::register(&registry);
        let shared = Arc::new(ServerShared {
            executor,
            config,
            queue: Mutex::new(Admission {
                waiting: VecDeque::new(),
                in_flight: 0,
            }),
            dispatch: Condvar::new(),
            space: Condvar::new(),
            drained: Condvar::new(),
            shutdown: AtomicBool::new(false),
            registry,
            obs,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pi-serve".into())
                .spawn(move || shared.dispatcher_loop())
                .expect("failed to spawn dispatcher")
        };
        Server {
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// The executor this server fronts.
    pub fn executor(&self) -> &Arc<E> {
        &self.shared.executor
    }

    /// The registry this server's `server.*` metrics live in — the one
    /// passed to [`Server::with_metrics`], or the private per-server
    /// registry created by [`Server::new`].
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// Non-blocking admission: enqueues `requests` for the dispatcher or
    /// hands them back with the backpressure reason. Never runs the batch
    /// itself, so it returns without waiting for any execution.
    pub fn try_submit(
        &self,
        requests: Vec<E::Request>,
    ) -> Result<Ticket<E>, TrySubmitError<E::Request>> {
        let mut queue = self.shared.queue.lock().expect("server queue poisoned");
        // Checked under the queue lock — see `shutdown` for the protocol.
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(TrySubmitError {
                error: SubmitError::ShutDown,
                requests,
            });
        }
        if queue.waiting.len() >= self.shared.config.queue_capacity {
            self.shared.obs.rejected.inc();
            return Err(TrySubmitError {
                error: SubmitError::QueueFull,
                requests,
            });
        }
        Ok(self.enqueue(&mut queue, requests))
    }

    /// Blocking admission: waits for queue space. Fails only with
    /// [`SubmitError::ShutDown`].
    ///
    /// When nothing is queued and no batch is in flight, the batch runs
    /// here, on the submitting thread, and the returned ticket is already
    /// resolved (or poisoned, if the executor panicked — [`Ticket::wait`]
    /// re-raises that, exactly as for a dispatcher-run batch).
    pub fn submit(&self, requests: Vec<E::Request>) -> Result<Ticket<E>, SubmitError> {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().expect("server queue poisoned");
        while queue.waiting.len() >= shared.config.queue_capacity {
            if shared.shutdown.load(Ordering::Acquire) {
                return Err(SubmitError::ShutDown);
            }
            queue = shared
                .space
                .wait_timeout(queue, Duration::from_millis(20))
                .expect("server queue poisoned")
                .0;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShutDown);
        }
        if !queue.waiting.is_empty() || queue.in_flight > 0 {
            return Ok(self.enqueue(&mut queue, requests));
        }
        // Taken under the same lock hold that saw the server idle and not
        // shut down: a later admission queues behind this batch, and a
        // later `shutdown` waits for it.
        queue.in_flight += 1;
        drop(queue);
        let obs = &shared.obs;
        obs.accepted.inc();
        obs.caller_runs.inc();
        obs.coalesced_size.record(requests.len() as u64);
        if pi_obs::ENABLED {
            obs.queue_wait_ns.record(0);
        }
        let (submission, ticket) = Submission::admit(requests);
        shared.deliver(submission);
        shared.batch_done();
        Ok(ticket)
    }

    fn enqueue(&self, queue: &mut Admission<E>, requests: Vec<E::Request>) -> Ticket<E> {
        let (submission, ticket) = Submission::admit(requests);
        queue.waiting.push_back(submission);
        self.shared.obs.accepted.inc();
        self.shared
            .obs
            .queue_depth
            .set_u64(queue.waiting.len() as u64);
        self.shared.dispatch.notify_one();
        ticket
    }

    /// One consistent snapshot of the serving counters and the queue
    /// depth: everything is read while holding the queue lock that also
    /// guards admission, so `accepted`, `rejected` and `queue_depth`
    /// cannot disagree mid-read.
    pub fn stats(&self) -> ServerStats {
        let queue = self.shared.queue.lock().expect("server queue poisoned");
        let obs = &self.shared.obs;
        ServerStats {
            accepted: obs.accepted.get(),
            rejected: obs.rejected.get(),
            executed_batches: obs.executed_batches.get(),
            served_requests: obs.served_requests.get(),
            maintenance_steps: obs.maintenance_steps.get(),
            coalesced_batches: obs.coalesced_batches.get(),
            queue_depth: queue.waiting.len() as u64,
        }
    }

    /// Graceful shutdown: stops admissions (subsequent submits fail with
    /// [`SubmitError::ShutDown`]), drains every accepted submission (all
    /// tickets resolve), joins the dispatcher and waits for batches that
    /// submitters are still running themselves. Idempotent, and callable
    /// through a shared reference — clients typically hold the server in
    /// an `Arc` while an owner shuts it down. Dropping the server does
    /// the same.
    pub fn shutdown(&self) {
        {
            // The flag flips under the queue lock: every admission checks
            // it under the same lock, so a submission either lands before
            // the flip (and the dispatcher's final drain serves it) or
            // observes `ShutDown` — no ticket can be stranded.
            let _queue = self.shared.queue.lock().expect("server queue poisoned");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.dispatch.notify_all();
            self.shared.space.notify_all();
        }
        let handle = self
            .dispatcher
            .lock()
            .expect("dispatcher handle poisoned")
            .take();
        if let Some(handle) = handle {
            handle.join().expect("dispatcher panicked");
        }
        // The dispatcher is gone and admissions are closed: what is
        // still in flight is on its submitter's own thread.
        let mut queue = self.shared.queue.lock().expect("server queue poisoned");
        while queue.in_flight > 0 {
            queue = self
                .shared
                .drained
                .wait(queue)
                .expect("server queue poisoned");
        }
    }
}

impl<E: BatchExecutor> Drop for Server<E> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
