//! Integration tests for the scheduler: bounded admission with clients
//! running side by side, backpressure, panic isolation, graceful shutdown
//! with batches in flight, and a pool worker taking queued jobs.
//! Deterministic mock executors stand in for the engine so every scenario
//! is forced, not raced.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pi_sched::{BatchExecutor, Job, Pool, Server, ServerConfig, SubmitError, TrySubmitError};

/// Doubles every request; can be gated so a batch blocks inside the
/// executor until the test releases it, fails any batch containing the
/// poison value 13 and panics on one containing 99.
struct MockExec {
    /// Batches block while this is `true`.
    gate: Mutex<bool>,
    gate_change: Condvar,
    /// How many batches are inside the executor right now, and how many
    /// have entered it in total.
    inside: Mutex<(usize, usize)>,
    inside_change: Condvar,
    batches: AtomicUsize,
}

impl MockExec {
    fn new(gated: bool) -> Self {
        MockExec {
            gate: Mutex::new(gated),
            gate_change: Condvar::new(),
            inside: Mutex::new((0, 0)),
            inside_change: Condvar::new(),
            batches: AtomicUsize::new(0),
        }
    }

    fn close(&self) {
        *self.gate.lock().unwrap() = true;
    }

    fn release(&self) {
        *self.gate.lock().unwrap() = false;
        self.gate_change.notify_all();
    }

    /// Blocks until `count` batches are inside the executor at once.
    fn wait_inside(&self, count: usize) {
        let mut inside = self.inside.lock().unwrap();
        while inside.0 < count {
            inside = self.inside_change.wait(inside).unwrap();
        }
    }

    fn entered(&self) -> usize {
        self.inside.lock().unwrap().1
    }
}

impl BatchExecutor for MockExec {
    type Request = u64;
    type Response = u64;
    type Error = String;

    fn execute_batch(&self, batch: &[u64]) -> Result<Vec<u64>, String> {
        {
            let mut inside = self.inside.lock().unwrap();
            inside.0 += 1;
            inside.1 += 1;
            self.inside_change.notify_all();
        }
        let mut gate = self.gate.lock().unwrap();
        while *gate {
            gate = self.gate_change.wait(gate).unwrap();
        }
        drop(gate);
        self.inside.lock().unwrap().0 -= 1;
        if batch.contains(&99) {
            panic!("executor boom");
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        if batch.contains(&13) {
            return Err("poison".into());
        }
        Ok(batch.iter().map(|x| x * 2).collect())
    }
}

/// A server over a gated [`MockExec`] that admits two batches at once.
fn gated_pair() -> (Arc<MockExec>, Arc<Server<MockExec>>) {
    let exec = Arc::new(MockExec::new(true));
    let server = Server::new(Arc::clone(&exec), ServerConfig { max_in_flight: 2 });
    (exec, Arc::new(server))
}

/// Submits `requests` from a new thread; joins to the batch's result.
fn submit_from_thread(
    server: &Arc<Server<MockExec>>,
    requests: Vec<u64>,
) -> std::thread::JoinHandle<Result<Vec<u64>, String>> {
    let server = Arc::clone(server);
    std::thread::spawn(move || server.submit(requests).expect("admitted").wait())
}

#[test]
fn try_submit_reports_queue_full_backpressure() {
    let (exec, server) = gated_pair();
    // Two clients are inside the executor at the same moment: the server
    // does not serialise them.
    let first = submit_from_thread(&server, vec![1]);
    let second = submit_from_thread(&server, vec![2]);
    exec.wait_inside(2);
    // Backpressure: the bound is reached, and the refused batch comes
    // back to the caller intact for resubmission.
    match server.try_submit(vec![3, 4]) {
        Err(rejected) => {
            assert_eq!(rejected.error, SubmitError::QueueFull);
            assert_eq!(rejected.requests, vec![3, 4]);
        }
        Ok(_) => panic!("expected QueueFull, got a ticket"),
    }
    assert_eq!(server.stats().rejected, 1);
    exec.release();
    assert_eq!(first.join().unwrap(), Ok(vec![2]));
    assert_eq!(second.join().unwrap(), Ok(vec![4]));
    assert_eq!(
        server.try_submit(vec![3, 4]).unwrap().wait(),
        Ok(vec![6, 8])
    );
    let stats = server.stats();
    assert_eq!((stats.accepted, stats.rejected), (3, 1));
}

#[test]
fn busy_server_queues_blocking_submits_behind_the_batch_in_flight() {
    let (exec, server) = gated_pair();
    let running = [
        submit_from_thread(&server, vec![1]),
        submit_from_thread(&server, vec![2]),
    ];
    exec.wait_inside(2);
    // A third blocking submit finds the bound reached and waits for room
    // without entering the executor.
    let third = submit_from_thread(&server, vec![3]);
    while server.stats().queue_depth == 0 {
        std::thread::yield_now();
    }
    assert_eq!(exec.entered(), 2);
    // Opening the gate lets the two finish; the waiter is admitted into a
    // freed slot.
    exec.release();
    assert_eq!(third.join().unwrap(), Ok(vec![6]));
    for (i, handle) in running.into_iter().enumerate() {
        assert_eq!(handle.join().unwrap(), Ok(vec![(i as u64 + 1) * 2]));
    }
    let stats = server.stats();
    assert_eq!((stats.accepted, stats.queue_depth), (3, 0));
    assert_eq!(exec.entered(), 3);
}

/// Spins until admission is closed. `server` must be at its in-flight
/// bound, so every probe before that is answered `QueueFull`.
fn wait_for_shutdown_flag(server: &Server<MockExec>) {
    loop {
        match server.try_submit(vec![3]) {
            Err(TrySubmitError {
                error: SubmitError::ShutDown,
                requests,
            }) => {
                assert_eq!(requests, vec![3]);
                return;
            }
            Err(rejected) => assert_eq!(rejected.error, SubmitError::QueueFull),
            Ok(_) => panic!("admitted past the in-flight bound"),
        }
        std::thread::yield_now();
    }
}

/// Shuts `server` down from a new thread; joins to the batches `exec`
/// had finished when `shutdown` returned.
fn shut_down_from_thread(
    server: &Arc<Server<MockExec>>,
    exec: &Arc<MockExec>,
) -> std::thread::JoinHandle<usize> {
    let (server, exec) = (Arc::clone(server), Arc::clone(exec));
    std::thread::spawn(move || {
        server.shutdown();
        exec.batches.load(Ordering::Relaxed)
    })
}

#[test]
fn graceful_shutdown_resolves_every_inflight_ticket() {
    let (exec, server) = gated_pair();
    let running = [
        submit_from_thread(&server, vec![1, 101]),
        submit_from_thread(&server, vec![2, 102]),
    ];
    exec.wait_inside(2);
    let blocked = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.submit(vec![3]).map(|_| ()))
    };
    while server.stats().queue_depth == 0 {
        std::thread::yield_now();
    }
    let stopper = shut_down_from_thread(&server, &exec);
    // The submit blocked for room is refused while both batches are still
    // gated, and so is any later one.
    assert_eq!(blocked.join().unwrap(), Err(SubmitError::ShutDown));
    wait_for_shutdown_flag(&server);
    assert!(matches!(server.submit(vec![3]), Err(SubmitError::ShutDown)));
    assert_eq!(exec.batches.load(Ordering::Relaxed), 0);
    // `shutdown` returns only once both admitted batches have finished.
    exec.release();
    assert_eq!(stopper.join().unwrap(), 2, "shutdown returned early");
    for (i, handle) in running.into_iter().enumerate() {
        let i = i as u64 + 1;
        assert_eq!(handle.join().unwrap(), Ok(vec![i * 2, (i + 100) * 2]));
    }
    assert_eq!(server.stats().accepted, 2);
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
        Err(TrySubmitError {
            error: SubmitError::ShutDown,
            ..
        })
    ));
    assert!(matches!(client.submit(vec![1]), Err(SubmitError::ShutDown)));
    // Idempotent.
    client.shutdown();
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
    let server = Arc::new(Server::with_metrics(
        Arc::clone(&exec),
        ServerConfig { max_in_flight: 2 },
        Arc::clone(&registry),
    ));
    // Two batches in flight, one rejection at the bound, one failed batch.
    let running = [
        submit_from_thread(&server, vec![1]),
        submit_from_thread(&server, vec![2, 3]),
    ];
    exec.wait_inside(2);
    assert!(server.try_submit(vec![4]).is_err());
    exec.release();
    for handle in running {
        handle.join().unwrap().unwrap();
    }
    assert_eq!(
        server.submit(vec![13]).unwrap().wait(),
        Err("poison".into())
    );
    server.shutdown();

    // ServerStats and the registry are two views of the same handles.
    let stats = server.stats();
    let snap = server.metrics().snapshot();
    assert!(Arc::ptr_eq(server.metrics(), &registry));
    assert_eq!(snap.counter("server.accepted"), Some(stats.accepted));
    assert_eq!(snap.counter("server.rejected"), Some(stats.rejected));
    assert_eq!(
        snap.counter("server.executed_batches"),
        Some(stats.executed_batches)
    );
    assert_eq!(
        snap.counter("server.served_requests"),
        Some(stats.served_requests)
    );
    assert_eq!(snap.gauge("server.queue_depth"), Some(0.0));
    assert_eq!((stats.accepted, stats.rejected), (3, 1));
    assert_eq!((stats.executed_batches, stats.served_requests), (3, 3));
    assert_eq!(stats.queue_depth, 0);
    // Nothing coalesces; the counter stays registered for pibench's peel.
    assert_eq!(snap.counter("server.coalesced_batches"), Some(0));
    // Clock-based histograms only fill when the obs feature is on, one
    // sample per admitted batch.
    let waits = snap.histogram("server.queue_wait_ns").unwrap();
    let latencies = snap.histogram("server.ticket_latency_ns").unwrap();
    if pi_obs::ENABLED {
        assert_eq!(waits.count, 3, "each admitted batch waits once");
        assert_eq!(latencies.count, 3, "each admitted batch has a latency");
    } else {
        assert_eq!(waits.count + latencies.count, 0);
    }
}

/// An executor that panics on request value 99.
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

/// A ticket is no longer poisoned: the executor panic unwinds out of the
/// `submit` or `try_submit` that ran the batch, which is how that client
/// learns its batch failed, and the server keeps serving.
#[test]
fn executor_panic_poisons_the_ticket_but_not_the_server() {
    // One slot: had a panicking batch kept it, `try_submit` would answer
    // `QueueFull` from then on.
    let server = Server::new(Arc::new(PanickyExec), ServerConfig { max_in_flight: 1 });
    let unwound =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.submit(vec![99])));
    assert!(unwound.is_err(), "submit must re-raise the executor panic");
    let served = server
        .try_submit(vec![1, 2])
        .expect("the slot was given back");
    assert_eq!(served.wait(), Ok(vec![2, 3]));
    let unwound =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.try_submit(vec![99])));
    assert!(unwound.is_err(), "try_submit must re-raise it too");
    let served = server.try_submit(vec![3]).expect("the slot was given back");
    assert_eq!(served.wait(), Ok(vec![4]));
    assert_eq!(server.submit(vec![5]).unwrap().wait(), Ok(vec![6]));
    let stats = server.stats();
    assert_eq!((stats.accepted, stats.executed_batches), (5, 3));
    assert_eq!(stats.served_requests, 4, "panicked batches must not count");
    server.shutdown();
}

/// Two clients inside the executor at once, one of whose batches panics:
/// the panic reaches only the thread that submitted it, and the other
/// client gets its result.
#[test]
fn panic_on_the_submitter_poisons_only_its_ticket() {
    let (exec, server) = gated_pair();
    let healthy = submit_from_thread(&server, vec![1]);
    let panicking = submit_from_thread(&server, vec![99]);
    exec.wait_inside(2);
    exec.release();
    assert!(
        panicking.join().is_err(),
        "the panic must unwind out of its own submit"
    );
    assert_eq!(healthy.join().unwrap(), Ok(vec![2]));
    // Both slots are free again: two more batches are inside at once.
    exec.close();
    let again = [
        submit_from_thread(&server, vec![3]),
        submit_from_thread(&server, vec![4]),
    ];
    exec.wait_inside(2);
    exec.release();
    for (handle, want) in again.into_iter().zip([6, 8]) {
        assert_eq!(handle.join().unwrap(), Ok(vec![want]));
    }
    let stats = server.stats();
    assert_eq!((stats.accepted, stats.executed_batches), (4, 3));
    assert_eq!((stats.served_requests, stats.queue_depth), (3, 0));
    assert_eq!(exec.batches.load(Ordering::Relaxed), 3);
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

#[test]
fn uncontended_submit_runs_on_the_submitter_and_returns_a_resolved_ticket() {
    let server = Arc::new(Server::new(Arc::new(RanOn), ServerConfig::default()));
    let me = std::thread::current().id();
    // Both admission paths run the batch on the calling thread, from
    // every client thread.
    assert_eq!(
        server.submit(vec![(), ()]).unwrap().wait(),
        Ok(vec![me, me])
    );
    assert_eq!(server.try_submit(vec![()]).unwrap().wait(), Ok(vec![me]));
    let other = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let me = std::thread::current().id();
            assert_eq!(server.submit(vec![()]).unwrap().wait(), Ok(vec![me]));
            me
        })
    };
    assert_ne!(other.join().unwrap(), me);
    let stats = server.stats();
    assert_eq!((stats.accepted, stats.executed_batches), (3, 3));
    assert_eq!(stats.served_requests, 4);
    server.shutdown();
}

#[test]
fn shutdown_waits_for_a_batch_its_submitter_is_still_running() {
    let exec = Arc::new(MockExec::new(true));
    // One slot, so probing admission below never runs a batch itself.
    let server = Arc::new(Server::new(
        Arc::clone(&exec),
        ServerConfig { max_in_flight: 1 },
    ));
    let submitter = submit_from_thread(&server, vec![1]);
    exec.wait_inside(1);
    // The only batch is blocked on its submitter's thread. The gate opens
    // only once `shutdown` has closed admission, so one that does not
    // wait for the batch returns with none done.
    let stopper = shut_down_from_thread(&server, &exec);
    wait_for_shutdown_flag(&server);
    exec.release();
    assert_eq!(stopper.join().unwrap(), 1, "shutdown returned early");
    assert_eq!(submitter.join().unwrap(), Ok(vec![2]));
    assert!(matches!(server.submit(vec![3]), Err(SubmitError::ShutDown)));
}
