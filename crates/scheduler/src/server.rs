//! Serving front-end: bounded admission, backpressure and graceful
//! shutdown. The server owns no thread: every admitted batch runs on the
//! thread that submitted it.
//!
//! * **Bounded admission.** At most [`ServerConfig::max_in_flight`]
//!   batches run at any time. [`Server::submit`] waits for room;
//!   [`Server::try_submit`] returns [`SubmitError::QueueFull`] with the
//!   requests handed back instead — backpressure the client can act on
//!   (shed, retry, slow down).
//! * **The caller runs.** An admitted batch calls
//!   [`BatchExecutor::execute_batch`] on the submitting thread, so K
//!   clients run K engine batches side by side, and the returned
//!   [`Ticket`] already holds the result. A panicking executor gives its
//!   admission slot back and unwinds out of that `submit`.
//! * **Graceful shutdown.** [`Server::shutdown`] refuses new admissions
//!   (they fail with [`SubmitError::ShutDown`]) and waits until every
//!   admitted batch has finished.
//! * **Observability.** Admission and execution land in a
//!   [`pi_obs::MetricsRegistry`] under `server.*` names (see
//!   [`Server::with_metrics`]); [`Server::stats`] reads them under the
//!   admission lock. Clock-based metrics (admission wait, ticket latency)
//!   vanish when the `obs` feature is off.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pi_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// A batch-executing backend the server can serve. `pi-engine`'s
/// `Executor` is the canonical implementation; tests use mocks.
pub trait BatchExecutor {
    /// One request (for the engine: a range-sum query on a named column).
    type Request;
    /// One response, positionally matching the request.
    type Response;
    /// Batch-level error.
    type Error: std::fmt::Debug;

    /// Executes a batch; on success returns exactly one response per
    /// request, in request order.
    fn execute_batch(&self, batch: &[Self::Request]) -> Result<Vec<Self::Response>, Self::Error>;
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// [`ServerConfig::max_in_flight`] batches are running —
    /// backpressure; retry later or shed the request.
    QueueFull,
    /// The server is shutting down and no longer accepts work.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "server is at its in-flight bound"),
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

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum number of batches running at once.
    pub max_in_flight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_in_flight: 128 }
    }
}

/// Aggregate serving counters (monotonic since server start, except
/// `queue_depth`). Produced by [`Server::stats`] under the admission
/// lock, which `accepted` and `rejected` also move under, so the two
/// cannot disagree with `queue_depth` mid-read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Batches admitted.
    pub accepted: u64,
    /// `try_submit` rejections at the in-flight bound.
    pub rejected: u64,
    /// Engine batches that returned (with responses or an error).
    pub executed_batches: u64,
    /// Individual requests served successfully (requests of failed
    /// batches are not counted).
    pub served_requests: u64,
    /// Blocked [`Server::submit`] calls waiting for room right now.
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
    queue_depth: Arc<Gauge>,
    /// Submit → admission, nanoseconds, one sample per admitted batch;
    /// zero when admission did not wait.
    queue_wait_ns: Arc<Histogram>,
    /// Submit → result, nanoseconds.
    ticket_latency_ns: Arc<Histogram>,
}

impl ServerObs {
    fn register(registry: &MetricsRegistry) -> ServerObs {
        // Nothing coalesces any more; the counter stays registered, at 0,
        // because pibench's peel reads it.
        registry.counter("server.coalesced_batches");
        ServerObs {
            accepted: registry.counter("server.accepted"),
            rejected: registry.counter("server.rejected"),
            executed_batches: registry.counter("server.executed_batches"),
            served_requests: registry.counter("server.served_requests"),
            queue_depth: registry.gauge("server.queue_depth"),
            queue_wait_ns: registry.histogram("server.queue_wait_ns"),
            ticket_latency_ns: registry.histogram("server.ticket_latency_ns"),
        }
    }
}

/// A served submission's result: [`Server::submit`] and
/// [`Server::try_submit`] return once the batch has run.
pub struct Ticket<E: BatchExecutor>(Result<Vec<E::Response>, E::Error>);

impl<E: BatchExecutor> Ticket<E> {
    /// The batch's responses, or its error.
    pub fn wait(self) -> Result<Vec<E::Response>, E::Error> {
        self.0
    }
}

/// What the admission lock guards.
struct Admission {
    /// Batches admitted and not yet finished.
    running: usize,
    /// `submit` calls blocked for room.
    waiting: usize,
    shut_down: bool,
}

/// One admitted batch's slot; dropping it — also while an executor panic
/// unwinds — gives the slot back and wakes whoever waits for one.
struct InFlight<'a, E: BatchExecutor>(&'a Server<E>);

impl<E: BatchExecutor> Drop for InFlight<'_, E> {
    fn drop(&mut self) {
        // Every update of `Admission` is one field at a time, so a
        // poisoned guard still holds valid counts, and `drop` must not
        // panic while an executor panic unwinds.
        let mut admission = self
            .0
            .admission
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        admission.running -= 1;
        if admission.waiting > 0 || admission.shut_down {
            self.0.room.notify_all();
        }
    }
}

/// The serving front-end. See the module docs.
pub struct Server<E: BatchExecutor> {
    executor: Arc<E>,
    config: ServerConfig,
    admission: Mutex<Admission>,
    /// Wakes blocked `submit` calls (room freed, shutdown) and a
    /// `shutdown` waiting for the last running batch.
    room: Condvar,
    registry: Arc<MetricsRegistry>,
    obs: ServerObs,
}

impl<E: BatchExecutor> Server<E> {
    /// A server over `executor`, its metrics in a fresh private registry
    /// (see [`Server::metrics`]); use [`Server::with_metrics`] to
    /// aggregate them into a shared registry instead.
    ///
    /// # Panics
    /// Panics when `config.max_in_flight` is zero.
    pub fn new(executor: Arc<E>, config: ServerConfig) -> Self {
        Self::with_metrics(executor, config, Arc::new(MetricsRegistry::new()))
    }

    /// A server whose `server.*` metrics are registered in `registry`, so
    /// one snapshot can cover the server together with the pool,
    /// executor and index layers below it.
    ///
    /// Two servers sharing one registry share the same `server.*`
    /// handles — their [`Server::stats`] then aggregate across both.
    /// Give each server its own registry (the [`Server::new`] default)
    /// when per-server numbers matter.
    ///
    /// # Panics
    /// Panics when `config.max_in_flight` is zero.
    pub fn with_metrics(
        executor: Arc<E>,
        config: ServerConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        assert!(config.max_in_flight > 0, "in-flight bound must be positive");
        Server {
            executor,
            config,
            admission: Mutex::new(Admission {
                running: 0,
                waiting: 0,
                shut_down: false,
            }),
            room: Condvar::new(),
            obs: ServerObs::register(&registry),
            registry,
        }
    }

    /// The executor this server fronts.
    pub fn executor(&self) -> &Arc<E> {
        &self.executor
    }

    /// The registry this server's `server.*` metrics live in — the one
    /// passed to [`Server::with_metrics`], or the private per-server
    /// registry created by [`Server::new`].
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn lock(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().expect("server admission poisoned")
    }

    /// Non-blocking admission: runs `requests` on this thread if fewer
    /// than [`ServerConfig::max_in_flight`] batches are running, or hands
    /// them back with the reason.
    pub fn try_submit(
        &self,
        requests: Vec<E::Request>,
    ) -> Result<Ticket<E>, TrySubmitError<E::Request>> {
        let start = pi_obs::ENABLED.then(Instant::now);
        let admission = self.lock();
        let error = if admission.shut_down {
            SubmitError::ShutDown
        } else if admission.running >= self.config.max_in_flight {
            self.obs.rejected.inc();
            SubmitError::QueueFull
        } else {
            return Ok(self.run(admission, requests, start, false));
        };
        Err(TrySubmitError { error, requests })
    }

    /// Blocking admission: waits for room, then runs `requests` on this
    /// thread. Fails only with [`SubmitError::ShutDown`].
    ///
    /// # Panics
    /// Re-raises a panic of the executor, after giving the slot back.
    pub fn submit(&self, requests: Vec<E::Request>) -> Result<Ticket<E>, SubmitError> {
        let start = pi_obs::ENABLED.then(Instant::now);
        let mut admission = self.lock();
        let mut waited = false;
        while !admission.shut_down && admission.running >= self.config.max_in_flight {
            waited = true;
            admission.waiting += 1;
            self.obs.queue_depth.set_u64(admission.waiting as u64);
            admission = self
                .room
                .wait(admission)
                .expect("server admission poisoned");
            admission.waiting -= 1;
            self.obs.queue_depth.set_u64(admission.waiting as u64);
        }
        if admission.shut_down {
            return Err(SubmitError::ShutDown);
        }
        Ok(self.run(admission, requests, start, waited))
    }

    /// Admits one batch under `admission`, then runs it with the lock
    /// released.
    fn run(
        &self,
        mut admission: MutexGuard<'_, Admission>,
        requests: Vec<E::Request>,
        start: Option<Instant>,
        waited: bool,
    ) -> Ticket<E> {
        admission.running += 1;
        self.obs.accepted.inc();
        drop(admission);
        let _slot = InFlight(self);
        if let Some(start) = start {
            let wait = if waited {
                start.elapsed()
            } else {
                Duration::ZERO
            };
            self.obs.queue_wait_ns.record_duration(wait);
        }
        let result = self.executor.execute_batch(&requests);
        self.obs.executed_batches.inc();
        if result.is_ok() {
            self.obs.served_requests.add(requests.len() as u64);
        }
        if let Some(start) = start {
            self.obs.ticket_latency_ns.record_duration(start.elapsed());
        }
        Ticket(result)
    }

    /// One snapshot of the serving counters, read under the admission
    /// lock.
    pub fn stats(&self) -> ServerStats {
        let admission = self.lock();
        ServerStats {
            accepted: self.obs.accepted.get(),
            rejected: self.obs.rejected.get(),
            executed_batches: self.obs.executed_batches.get(),
            served_requests: self.obs.served_requests.get(),
            queue_depth: admission.waiting as u64,
        }
    }

    /// Graceful shutdown: refuses new admissions (they fail with
    /// [`SubmitError::ShutDown`]) and waits until every admitted batch
    /// has finished. Idempotent, and callable through a shared reference
    /// — clients typically hold the server in an `Arc` while an owner
    /// shuts it down. Must not be called from inside the executor.
    pub fn shutdown(&self) {
        let mut admission = self.lock();
        admission.shut_down = true;
        self.room.notify_all();
        while admission.running > 0 {
            admission = self
                .room
                .wait(admission)
                .expect("server admission poisoned");
        }
    }
}
