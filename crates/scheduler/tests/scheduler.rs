//! Integration tests for the scheduler: backpressure, graceful shutdown
//! with in-flight batches, batch coalescing with error isolation, and a
//! pool worker taking queued jobs. Deterministic mock executors stand in
//! for the engine so every scenario is forced, not raced.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pi_sched::{BatchExecutor, Job, Pool, Server, ServerConfig, SubmitError};

/// Doubles every request; can be gated so a batch blocks inside the
/// executor until the test releases it, and fails any batch containing
/// the poison value 13.
struct MockExec {
    /// `Some(state)`: batches block while `state == true`.
    gate: Mutex<bool>,
    gate_change: Condvar,
    /// Signals how many batches have *entered* the executor.
    entered: Mutex<usize>,
    entered_change: Condvar,
    batches: AtomicUsize,
    /// Largest single batch this executor was handed (coalescing proof).
    max_batch: AtomicUsize,
}

impl MockExec {
    fn new(gated: bool) -> Self {
        MockExec {
            gate: Mutex::new(gated),
            gate_change: Condvar::new(),
            entered: Mutex::new(0),
            entered_change: Condvar::new(),
            batches: AtomicUsize::new(0),
            max_batch: AtomicUsize::new(0),
        }
    }

    fn release(&self) {
        *self.gate.lock().unwrap() = false;
        self.gate_change.notify_all();
    }

    fn wait_entered(&self, count: usize) {
        let mut entered = self.entered.lock().unwrap();
        while *entered < count {
            entered = self.entered_change.wait(entered).unwrap();
        }
    }
}

impl BatchExecutor for MockExec {
    type Request = u64;
    type Response = u64;
    type Error = String;

    fn execute_batch(&self, batch: &[u64]) -> Result<Vec<u64>, String> {
        {
            let mut entered = self.entered.lock().unwrap();
            *entered += 1;
            self.entered_change.notify_all();
        }
        let mut gate = self.gate.lock().unwrap();
        while *gate {
            gate = self.gate_change.wait(gate).unwrap();
        }
        drop(gate);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(batch.len(), Ordering::Relaxed);
        if batch.contains(&13) {
            return Err("poison".into());
        }
        Ok(batch.iter().map(|x| x * 2).collect())
    }
}

#[test]
fn try_submit_reports_queue_full_backpressure() {
    let exec = Arc::new(MockExec::new(true));
    let server = Server::new(
        Arc::clone(&exec),
        ServerConfig {
            queue_capacity: 2,
            ..ServerConfig::default()
        },
    );
    // First submission is popped by the dispatcher and blocks inside the
    // executor, leaving the queue empty again.
    let inflight = server.try_submit(vec![1]).unwrap();
    exec.wait_entered(1);
    // Fill the queue to capacity behind the blocked dispatcher.
    let queued_a = server.try_submit(vec![2]).unwrap();
    let queued_b = server.try_submit(vec![3]).unwrap();
    // Backpressure: the queue is full, and the refused batch comes back
    // to the caller intact for resubmission.
    match server.try_submit(vec![4]) {
        Err(rejected) => {
            assert_eq!(rejected.error, SubmitError::QueueFull);
            assert_eq!(rejected.requests, vec![4]);
        }
        Ok(_) => panic!("expected QueueFull, got a ticket"),
    }
    assert_eq!(server.stats().rejected, 1);
    assert_eq!(server.stats().queue_depth, 2);
    // Releasing the gate drains everything; every accepted ticket
    // resolves.
    exec.release();
    assert_eq!(inflight.wait(), Ok(vec![2]));
    assert_eq!(queued_a.wait(), Ok(vec![4]));
    assert_eq!(queued_b.wait(), Ok(vec![6]));
    server.shutdown();
}

#[test]
fn graceful_shutdown_resolves_every_inflight_ticket() {
    let exec = Arc::new(MockExec::new(true));
    let server = Server::new(
        Arc::clone(&exec),
        ServerConfig {
            queue_capacity: 64,
            // Coalescing off: every submission is its own engine batch,
            // so the drain visibly executes each one.
            max_coalesced_queries: 1,
        },
    );
    let tickets: Vec<_> = (0..10)
        .map(|i| server.try_submit(vec![i, i + 100]).unwrap())
        .collect();
    exec.wait_entered(1);
    // Shut down while one batch is in-flight and nine are queued; the
    // gate opens from a helper thread so `shutdown` can drain.
    let release = {
        let exec = Arc::clone(&exec);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            exec.release();
        })
    };
    server.shutdown();
    release.join().unwrap();
    // Every accepted submission was served before shutdown returned.
    assert_eq!(exec.batches.load(Ordering::Relaxed), 10);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let i = i as u64;
        assert_eq!(
            ticket.try_wait(),
            Some(Ok(vec![i * 2, (i + 100) * 2])),
            "ticket {i} unresolved after graceful shutdown"
        );
    }
}

#[test]
fn submits_after_shutdown_are_refused() {
    let exec = Arc::new(MockExec::new(false));
    let server = Arc::new(Server::new(Arc::clone(&exec), ServerConfig::default()));
    let ticket = server.submit(vec![5]).unwrap();
    assert_eq!(ticket.wait(), Ok(vec![10]));
    // Shutdown through one Arc handle while another still submits — the
    // production shape (clients keep their handles across shutdown).
    let client = Arc::clone(&server);
    server.shutdown();
    assert!(matches!(
        client.try_submit(vec![1]),
        Err(pi_sched::TrySubmitError {
            error: SubmitError::ShutDown,
            ..
        })
    ));
    assert!(matches!(client.submit(vec![1]), Err(SubmitError::ShutDown)));
    // Idempotent.
    client.shutdown();
}

#[test]
fn coalescing_merges_queued_submissions_and_isolates_errors() {
    let exec = Arc::new(MockExec::new(true));
    let server = Server::new(
        Arc::clone(&exec),
        ServerConfig {
            queue_capacity: 64,
            max_coalesced_queries: 256,
        },
    );
    // Block the dispatcher, then queue ten submissions — including one
    // poisoned — so the drain coalesces them.
    let blocker = server.try_submit(vec![0]).unwrap();
    exec.wait_entered(1);
    let good: Vec<_> = (1..=9)
        .map(|i| server.try_submit(vec![i, i * 10]).unwrap())
        .collect();
    let poisoned = server.try_submit(vec![13]).unwrap();
    exec.release();
    assert_eq!(blocker.wait(), Ok(vec![0]));
    for (i, ticket) in good.into_iter().enumerate() {
        let i = i as u64 + 1;
        assert_eq!(ticket.wait(), Ok(vec![i * 2, i * 20]), "submission {i}");
    }
    // The poisoned submission fails alone; its neighbours above all
    // succeeded despite sharing a coalesced batch with it.
    assert_eq!(poisoned.wait(), Err("poison".into()));
    // Coalescing actually happened: the executor saw one combined batch
    // holding all ten queued submissions (9 × 2 queries + 1 poison).
    assert_eq!(exec.max_batch.load(Ordering::Relaxed), 19);
    assert_eq!(server.stats().accepted, 11);

    // A clean coalesced round (no poison) needs exactly one engine batch
    // for many submissions.
    let before = exec.batches.load(Ordering::Relaxed);
    *exec.gate.lock().unwrap() = true;
    let blocker = server.try_submit(vec![0]).unwrap();
    // Phase 1 entered the executor 12 times (1 blocker + 1 combined + 10
    // isolation retries); wait for this blocker to be the 13th.
    exec.wait_entered(13);
    let round: Vec<_> = (1..=5)
        .map(|i| server.try_submit(vec![i]).unwrap())
        .collect();
    exec.release();
    assert_eq!(blocker.wait(), Ok(vec![0]));
    for (i, ticket) in round.into_iter().enumerate() {
        assert_eq!(ticket.wait(), Ok(vec![(i as u64 + 1) * 2]));
    }
    assert_eq!(
        exec.batches.load(Ordering::Relaxed) - before,
        2,
        "expected one blocker batch plus one coalesced batch"
    );
    server.shutdown();
}

#[test]
fn a_worker_takes_queued_jobs_while_the_caller_is_busy() {
    let pool = Pool::new(1);
    let started = Arc::new(AtomicUsize::new(0));
    let deadline = Instant::now() + Duration::from_secs(10);
    // Neither job finishes until both have started, so the helping caller
    // cannot run them one after the other: the one worker has to be woken
    // for the job the caller is not running.
    let jobs: Vec<(usize, Job)> = (0..2)
        .map(|i| {
            let started = Arc::clone(&started);
            let job: Job = Box::new(move || {
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::hint::spin_loop();
                }
                assert_eq!(started.load(Ordering::SeqCst), 2, "the worker never ran");
            });
            (i, job)
        })
        .collect();
    // A wake-up can only be lost once the worker waits, and nothing says
    // when it does: give it time to find the queue empty and park.
    std::thread::sleep(Duration::from_millis(100));
    pool.run(jobs);
    let stats = pool.stats();
    assert_eq!((stats.executed, stats.helped), (1, 1), "{stats:?}");
    pool.shutdown();
}

#[test]
fn server_stats_and_registry_agree() {
    let registry = Arc::new(pi_obs::MetricsRegistry::new());
    let exec = Arc::new(MockExec::new(true));
    let server = Server::with_metrics(
        Arc::clone(&exec),
        ServerConfig {
            queue_capacity: 2,
            max_coalesced_queries: 256,
        },
        Arc::clone(&registry),
    );
    // One in-flight blocker, two queued behind it (they will coalesce),
    // one rejection once the queue is full.
    let blocker = server.try_submit(vec![1]).unwrap();
    exec.wait_entered(1);
    let queued_a = server.try_submit(vec![2]).unwrap();
    let queued_b = server.try_submit(vec![3, 4]).unwrap();
    assert!(server.try_submit(vec![5]).is_err());
    exec.release();
    assert_eq!(blocker.wait(), Ok(vec![2]));
    assert_eq!(queued_a.wait(), Ok(vec![4]));
    assert_eq!(queued_b.wait(), Ok(vec![6, 8]));
    server.shutdown();

    // ServerStats and the registry are two views of the same handles.
    let stats = server.stats();
    let snap = server.metrics().snapshot();
    assert!(Arc::ptr_eq(server.metrics(), &registry));
    assert_eq!(snap.counter("server.accepted"), Some(stats.accepted));
    assert_eq!(snap.counter("server.rejected"), Some(stats.rejected));
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.served_requests, 4);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(
        snap.counter("server.coalesced_batches"),
        Some(stats.coalesced_batches)
    );
    assert_eq!(
        stats.coalesced_batches, 1,
        "the two queued submissions must coalesce into one run"
    );
    // Every delivered run records its size.
    let sizes = snap.histogram("server.coalesced_size").unwrap();
    assert_eq!(sizes.count, stats.executed_batches);
    assert_eq!(sizes.sum, stats.served_requests);
    // Clock-based histograms only fill when the obs feature is on.
    let waits = snap.histogram("server.queue_wait_ns").unwrap();
    let latencies = snap.histogram("server.ticket_latency_ns").unwrap();
    if pi_obs::ENABLED {
        assert_eq!(waits.count, 3, "each accepted submission waits once");
        assert_eq!(latencies.count, 3, "each resolved ticket has a latency");
    } else {
        assert_eq!(waits.count + latencies.count, 0);
    }
}

/// An executor that panics on request value 99 — the dispatcher must
/// survive, poison only the affected ticket (whose `wait` re-raises
/// instead of hanging), and keep serving later submissions.
struct PanickyExec;

impl BatchExecutor for PanickyExec {
    type Request = u64;
    type Response = u64;
    type Error = String;

    fn execute_batch(&self, batch: &[u64]) -> Result<Vec<u64>, String> {
        if batch.contains(&99) {
            panic!("executor boom");
        }
        Ok(batch.iter().map(|x| x + 1).collect())
    }
}

#[test]
fn executor_panic_poisons_the_ticket_but_not_the_server() {
    let server = Server::new(
        Arc::new(PanickyExec),
        ServerConfig {
            // Coalescing off so the panicking submission is its own batch.
            max_coalesced_queries: 1,
            ..ServerConfig::default()
        },
    );
    let poisoned = server.submit(vec![99]).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || poisoned.wait()));
    assert!(result.is_err(), "wait() must re-raise the executor panic");
    // The dispatcher survived: later submissions are served normally.
    let ok = server.submit(vec![1, 2]).unwrap();
    assert_eq!(ok.wait(), Ok(vec![2, 3]));
    let stats = server.stats();
    assert_eq!(stats.served_requests, 2, "panicked batch must not count");
    server.shutdown();
}

/// Answers every request with the thread it ran on.
struct RanOn;

impl BatchExecutor for RanOn {
    type Request = ();
    type Response = std::thread::ThreadId;
    type Error = String;

    fn execute_batch(&self, batch: &[()]) -> Result<Vec<std::thread::ThreadId>, String> {
        Ok(vec![std::thread::current().id(); batch.len()])
    }
}

fn caller_runs<E: BatchExecutor>(server: &Server<E>) -> u64 {
    server
        .metrics()
        .snapshot()
        .counter("server.caller_runs")
        .expect("registered whether or not it fires")
}

#[test]
fn uncontended_submit_runs_on_the_submitter_and_returns_a_resolved_ticket() {
    let server = Server::new(Arc::new(RanOn), ServerConfig::default());
    assert_eq!(caller_runs(&server), 0);
    let me = std::thread::current().id();
    for round in 1..=3 {
        let ticket = server.submit(vec![(), ()]).unwrap();
        assert_eq!(ticket.try_wait(), Some(Ok(vec![me, me])));
        assert_eq!(caller_runs(&server), round);
    }
    // `try_submit` never runs the batch itself, idle server or not.
    let queued = server.try_submit(vec![()]).unwrap().wait().unwrap();
    assert_ne!(queued, vec![me]);
    let stats = server.stats();
    assert_eq!(caller_runs(&server), 3);
    assert_eq!((stats.accepted, stats.executed_batches), (4, 4));
    assert_eq!(stats.served_requests, 7);
    let snap = server.metrics().snapshot();
    let waits = snap.histogram("server.queue_wait_ns").unwrap();
    let latencies = snap.histogram("server.ticket_latency_ns").unwrap();
    if pi_obs::ENABLED {
        assert_eq!((waits.count, latencies.count), (4, 4));
    } else {
        assert_eq!(waits.count + latencies.count, 0);
    }
    server.shutdown();
}

#[test]
fn panic_on_the_submitter_poisons_only_its_ticket() {
    let server = Server::new(Arc::new(PanickyExec), ServerConfig::default());
    // The panic happens on this thread, inside `submit`, and must not
    // escape it: it comes out of the ticket, as on the dispatcher path.
    let poisoned = server.submit(vec![99]).unwrap();
    assert_eq!(caller_runs(&server), 1);
    let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| poisoned.try_wait()));
    assert!(
        polled.is_err(),
        "try_wait() must re-raise the executor panic"
    );
    let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || poisoned.wait()));
    assert!(waited.is_err(), "wait() must re-raise the executor panic");
    // The server is idle again and serves both admission paths.
    assert_eq!(
        server.submit(vec![1]).unwrap().try_wait(),
        Some(Ok(vec![2]))
    );
    assert_eq!(server.try_submit(vec![2]).unwrap().wait(), Ok(vec![3]));
    assert_eq!(caller_runs(&server), 2);
    assert_eq!(server.stats().served_requests, 2);
    server.shutdown();
}

#[test]
fn busy_server_queues_blocking_submits_behind_the_batch_in_flight() {
    let exec = Arc::new(MockExec::new(true));
    let server = Arc::new(Server::new(Arc::clone(&exec), ServerConfig::default()));
    // A submitter-run batch blocks inside the executor on its own thread.
    let first = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.submit(vec![1]).unwrap())
    };
    exec.wait_entered(1);
    // The server is no longer idle: a second blocking submit is queued and
    // returns at once, its batch handed to the dispatcher.
    let second = server.submit(vec![2]).unwrap();
    exec.wait_entered(2);
    assert_eq!(second.try_wait(), None);
    assert_eq!(caller_runs(&server), 1);
    exec.release();
    assert_eq!(first.join().unwrap().try_wait(), Some(Ok(vec![2])));
    assert_eq!(second.wait(), Ok(vec![4]));
    server.shutdown();
}

#[test]
fn shutdown_waits_for_a_batch_its_submitter_is_still_running() {
    let exec = Arc::new(MockExec::new(true));
    let server = Arc::new(Server::new(Arc::clone(&exec), ServerConfig::default()));
    let submitter = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.submit(vec![1]).unwrap())
    };
    exec.wait_entered(1);
    // The only batch is blocked on its submitter's thread and the
    // dispatcher has nothing to drain: joining it is not enough, `shutdown`
    // has to wait for the submitter. The gate opens 20 ms after `shutdown`
    // was called, so one that does not wait returns with no batch done.
    let (starting, started) = std::sync::mpsc::channel();
    let stopper = {
        let (server, exec) = (Arc::clone(&server), Arc::clone(&exec));
        std::thread::spawn(move || {
            starting.send(()).unwrap();
            server.shutdown();
            exec.batches.load(Ordering::Relaxed)
        })
    };
    started.recv().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    exec.release();
    assert_eq!(stopper.join().unwrap(), 1, "shutdown returned early");
    assert_eq!(submitter.join().unwrap().try_wait(), Some(Ok(vec![2])));
    assert!(matches!(server.submit(vec![3]), Err(SubmitError::ShutDown)));
}
