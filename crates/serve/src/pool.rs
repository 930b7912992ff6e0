//! Supervised worker pool with a bounded queue, explicit backpressure,
//! panic containment and graceful drain.
//!
//! # Failure model
//!
//! A job-level panic is caught inside the worker and converted to a
//! retryable error response — the worker survives. A *worker-level*
//! panic (anything escaping the job boundary: a fault injected at
//! `pool.job`/`pool.spawn`, a poisoned dequeue, a bug in the loop
//! itself) kills the thread; the supervisor then
//!
//! 1. **quarantines** the in-flight job — its caller gets an explicit
//!    `quarantined` (retryable) response instead of a silent drop, and
//!    the job is *not* re-executed server-side in case it is the poison
//!    that killed the worker, and
//! 2. **respawns** a replacement worker into the same slot (with a small
//!    backoff against crash loops), so pool capacity never decays.
//!
//! On shutdown the pool stops accepting work (`Submit::ShuttingDown`),
//! queues one stop sentinel per worker *behind* outstanding jobs so
//! accepted work completes, joins every thread (dead or alive — no
//! leaked handles), and finally drains whatever still sits in the queue
//! with explicit `shutting_down` responses.
//!
//! # Injection points
//!
//! * `pool.spawn` — fires as a worker thread enters its loop; a panic
//!   here simulates a worker that dies on arrival (the supervisor keeps
//!   respawning until one survives).
//! * `pool.job` — fires after a job is dequeued but *outside* the
//!   job-level `catch_unwind`; any action kills the worker with the job
//!   in flight, exercising quarantine + respawn.

use crate::jobs;
use crate::json::Json;
use crate::protocol::{quarantined_response, retryable_err_response, shutting_down_response, Request};
use crate::state::ServeState;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xtalk_budget::Budget;

/// A unit of work: the decoded request plus the channel the connection
/// thread is waiting on.
pub struct Job {
    /// The request to execute.
    pub request: Request,
    /// Where the response goes; the send is allowed to fail (the
    /// connection may have hung up).
    pub reply: mpsc::Sender<Json>,
    /// When the request was admitted; the gap to dequeue is the queue
    /// wait, recorded into the admission-control histogram.
    pub enqueued_at: Instant,
    /// The job's one budget, built at admission: its deadline is absolute,
    /// so queue wait counts against it, and its cancel token is the one a
    /// `cancel` request can trip while the job is queued or running.
    pub budget: Budget,
}

impl Job {
    /// An unbudgeted job admitted now — the common case for pool tests.
    pub fn new(request: Request, reply: mpsc::Sender<Json>) -> Job {
        Job { request, reply, enqueued_at: Instant::now(), budget: Budget::unlimited() }
    }
}

/// What flows through the queue: work, or a stop sentinel consumed by
/// exactly one worker during shutdown.
pub enum WorkItem {
    /// A request to execute.
    Job(Job),
    /// Terminate the receiving worker.
    Stop,
}

/// Lifecycle notifications from workers to the supervisor.
enum Event {
    /// The worker in this slot panicked out of its loop.
    Died(usize),
    /// The worker in this slot exited cleanly (stop sentinel).
    Stopped(usize),
}

/// A worker slot's currently-executing job: its kind and a clone of
/// its reply channel, reachable from the supervisor's quarantine path
/// when the worker dies mid-job.
type InflightSlot = Mutex<Option<(&'static str, mpsc::Sender<Json>)>>;

/// State shared between workers, the supervisor and submission handles.
struct Shared {
    rx: Mutex<Receiver<WorkItem>>,
    state: Arc<ServeState>,
    /// Per-worker-slot record of the job currently executing.
    inflight: Vec<InflightSlot>,
    /// Set once shutdown begins; gates submission and respawning.
    stopping: AtomicBool,
}

/// A fixed set of supervised worker threads pulling jobs from one
/// bounded channel.
pub struct Pool {
    tx: SyncSender<WorkItem>,
    shared: Arc<Shared>,
    supervisor: JoinHandle<()>,
}

impl Pool {
    /// Spawns `workers` threads with room for `queue_cap` waiting jobs,
    /// plus a supervisor that respawns workers that die.
    pub fn new(workers: usize, queue_cap: usize, state: Arc<ServeState>) -> Pool {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<WorkItem>(queue_cap.max(1));
        let shared = Arc::new(Shared {
            rx: Mutex::new(rx),
            state,
            inflight: (0..workers).map(|_| Mutex::new(None)).collect(),
            stopping: AtomicBool::new(false),
        });
        let (events_tx, events_rx) = mpsc::channel::<Event>();
        let handles: Vec<Option<JoinHandle<()>>> = (0..workers)
            .map(|i| Some(spawn_worker(i, shared.clone(), events_tx.clone())))
            .collect();
        let supervisor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("xtalk-supervisor".to_string())
                .spawn(move || supervise(&shared, &events_rx, &events_tx, handles))
                .expect("spawn supervisor thread")
        };
        Pool { tx, shared, supervisor }
    }

    /// A submission handle for connection threads.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle { tx: self.tx.clone(), shared: self.shared.clone() }
    }

    /// Graceful drain: refuses new submissions, queues one `Stop` per
    /// worker *behind* any outstanding work (blocking on queue space) so
    /// accepted jobs still complete, joins every worker thread, and
    /// answers anything left in the queue with an explicit
    /// `shutting_down` response instead of dropping it.
    pub fn shutdown(self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        for _ in 0..self.shared.inflight.len() {
            let _ = self.tx.send(WorkItem::Stop);
        }
        drop(self.tx);
        let _ = self.supervisor.join();
    }
}

/// A clonable submission handle that knows when the pool is draining.
#[derive(Clone)]
pub struct PoolHandle {
    tx: SyncSender<WorkItem>,
    shared: Arc<Shared>,
}

impl PoolHandle {
    /// Submits without blocking.
    pub fn try_submit(&self, job: Job) -> Submit {
        if self.shared.stopping.load(Ordering::SeqCst) {
            return Submit::ShuttingDown;
        }
        match self.tx.try_send(WorkItem::Job(job)) {
            Ok(()) => Submit::Accepted,
            Err(TrySendError::Full(_)) => Submit::Full,
            Err(TrySendError::Disconnected(_)) => Submit::ShuttingDown,
        }
    }
}

/// Outcome of a non-blocking submission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Submit {
    /// Job accepted into the queue.
    Accepted,
    /// Queue full — the caller should answer busy.
    Full,
    /// The pool is draining or gone — the caller should answer
    /// `shutting_down`.
    ShuttingDown,
}

fn spawn_worker(slot: usize, shared: Arc<Shared>, events: Sender<Event>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("xtalk-worker-{slot}"))
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, slot)));
            match outcome {
                Ok(()) => {
                    let _ = events.send(Event::Stopped(slot));
                }
                Err(panic) => {
                    quarantine_inflight(&shared, slot, panic_text(&panic));
                    let _ = events.send(Event::Died(slot));
                }
            }
        })
        .expect("spawn worker thread")
}

/// Supervisor: joins dead workers, respawns them (unless the pool is
/// stopping), and drains the queue once every worker has exited.
fn supervise(
    shared: &Arc<Shared>,
    events_rx: &Receiver<Event>,
    events_tx: &Sender<Event>,
    mut handles: Vec<Option<JoinHandle<()>>>,
) {
    let mut alive = handles.len();
    let mut consecutive_deaths: u64 = 0;
    while alive > 0 {
        let Ok(event) = events_rx.recv() else { break };
        match event {
            Event::Stopped(slot) => {
                if let Some(h) = handles[slot].take() {
                    let _ = h.join();
                }
                alive -= 1;
            }
            Event::Died(slot) => {
                if let Some(h) = handles[slot].take() {
                    let _ = h.join();
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    // Its stop sentinel stays queued; the drain below
                    // discards it.
                    alive -= 1;
                    continue;
                }
                crate::metrics::Metrics::inc(&shared.state.metrics.workers_respawned);
                xtalk_obs::counter!("serve.pool.respawn");
                // Back off a little against crash loops (e.g. a
                // `pool.spawn` fault killing every replacement).
                consecutive_deaths += 1;
                if consecutive_deaths > 1 {
                    std::thread::sleep(Duration::from_millis(
                        (5 * consecutive_deaths).min(100),
                    ));
                }
                handles[slot] = Some(spawn_worker(slot, shared.clone(), events_tx.clone()));
            }
        }
    }
    drain_queue(shared);
}

/// Answers every job still queued after the workers exited with an
/// explicit `shutting_down` response, and discards leftover sentinels.
/// A short grace timeout covers submissions that raced the stopping
/// flag.
fn drain_queue(shared: &Shared) {
    let rx = shared.rx.lock().unwrap();
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(WorkItem::Job(job)) => {
                crate::metrics::Metrics::inc(&shared.state.metrics.jobs_drained);
                xtalk_obs::counter!("serve.pool.drained");
                // Reverse the submitter's `job_enqueued` gauge bump.
                shared.state.metrics.job_rejected();
                let _ = job.reply.send(shutting_down_response());
            }
            Ok(WorkItem::Stop) => {}
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    // A worker may be configured to die on arrival; the supervisor keeps
    // respawning until one survives.
    if let Some(msg) = xtalk_fault::fire("pool.spawn") {
        panic!("{msg}");
    }
    loop {
        // Hold the lock only for the dequeue, not the job.
        let job = match shared.rx.lock().unwrap().recv() {
            Ok(WorkItem::Job(job)) => job,
            Ok(WorkItem::Stop) | Err(_) => return,
        };
        // Record the job before anything fallible: if this worker dies
        // with the job in flight, the supervisor quarantines it.
        *shared.inflight[slot].lock().unwrap() =
            Some((job.request.kind(), job.reply.clone()));
        // Worker-killing fault: fires *outside* the job-level
        // catch_unwind, so any action takes the whole worker down.
        if let Some(msg) = xtalk_fault::fire("pool.job") {
            panic!("{msg}");
        }
        // Queue wait is over: record it (it feeds admission control). The
        // budget's deadline is absolute, so the wait is already deducted;
        // an already-expired job still runs its handler, which sees a dead
        // budget at its first checkpoint and answers with a zero-progress
        // partial.
        shared
            .state
            .metrics
            .queue_wait_recorded(job.enqueued_at.elapsed().as_micros() as u64);
        let start = Instant::now();
        let response = {
            // Per-job span: formats the path only when profiling is on.
            let _job_span = if xtalk_obs::enabled() {
                Some(xtalk_obs::span(&format!("serve.job.{}", job.request.kind())))
            } else {
                None
            };
            catch_unwind(AssertUnwindSafe(|| jobs::handle(&shared.state, &job.request, &job.budget)))
                .unwrap_or_else(|panic| {
                    // A panic under fault injection (or any other
                    // transient) may not recur: let the client retry.
                    retryable_err_response(format!(
                        "job panicked: {}",
                        panic_text(&panic)
                    ))
                })
        };
        if response.get("budget_exhausted").and_then(Json::as_bool) == Some(true) {
            crate::metrics::Metrics::inc(&shared.state.metrics.partial_results);
            xtalk_obs::counter!("serve.job.partial");
        }
        let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
        shared.state.metrics.job_finished(start.elapsed().as_micros() as u64, ok);
        *shared.inflight[slot].lock().unwrap() = None;
        let _ = job.reply.send(response);
    }
}

/// Replies to (and clears) the job that was executing in `slot` when its
/// worker died.
fn quarantine_inflight(shared: &Shared, slot: usize, reason: &str) {
    if let Some((kind, reply)) = shared.inflight[slot].lock().unwrap().take() {
        crate::metrics::Metrics::inc(&shared.state.metrics.jobs_quarantined);
        xtalk_obs::counter!("serve.pool.quarantined");
        shared.state.metrics.job_finished(0, false);
        let _ = reply.send(quarantined_response(kind, reason));
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeConfig;

    fn sleep_job(ms: u64, reply: mpsc::Sender<Json>) -> Job {
        Job::new(Request::Sleep { ms }, reply)
    }

    #[test]
    fn executes_jobs_and_counts_latency() {
        let state = ServeState::new(ServeConfig::default());
        let pool = Pool::new(2, 4, state.clone());
        let (tx, rx) = mpsc::channel();
        state.metrics.job_enqueued();
        assert_eq!(pool.handle().try_submit(sleep_job(1, tx)), Submit::Accepted);
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        pool.shutdown();
        assert_eq!(state.metrics.jobs_ok.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn full_queue_reports_backpressure() {
        let state = ServeState::new(ServeConfig::default());
        // One worker, queue of one: the third submission must shed.
        let pool = Pool::new(1, 1, state.clone());
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        // Submit back-to-back until the bounded queue sheds: the worker
        // needs 200 ms per job, the submissions are instantaneous, so
        // only worker + queue slot (≈2) can be accepted.
        let mut accepted = 0;
        let mut shed = false;
        for _ in 0..10 {
            match handle.try_submit(sleep_job(200, tx.clone())) {
                Submit::Accepted => accepted += 1,
                Submit::Full => {
                    shed = true;
                    break;
                }
                Submit::ShuttingDown => panic!("pool is not shutting down"),
            }
        }
        assert!(shed, "bounded queue never filled after {accepted} accepts");
        assert!((1..=3).contains(&accepted), "accepted {accepted}");
        // Accepted jobs still complete.
        drop(tx);
        drop(handle);
        for _ in 0..accepted {
            let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        }
        pool.shutdown();
    }

    #[test]
    fn panicking_job_yields_retryable_error_response() {
        let state = ServeState::new(ServeConfig::default());
        let pool = Pool::new(1, 2, state.clone());
        let (tx, rx) = mpsc::channel();
        state.metrics.job_enqueued();
        // `Stats` is a light request; handing it to the pool is a coding
        // error that `jobs::handle` turns into an error response (not a
        // panic) — exercise the error path end to end.
        assert_eq!(
            pool.handle().try_submit(Job::new(Request::Stats, tx)),
            Submit::Accepted
        );
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        pool.shutdown();
    }

    #[test]
    fn expired_deadline_yields_partial_and_worker_survives() {
        let state = ServeState::new(ServeConfig::default());
        let pool = Pool::new(1, 4, state.clone());
        let (tx, rx) = mpsc::channel();
        // Queue wait ate the whole budget: the handler sees a dead budget
        // at its first checkpoint and answers a zero-progress partial.
        state.metrics.job_enqueued();
        let mut job = Job::new(Request::Sleep { ms: 5_000 }, tx.clone());
        job.budget = Budget::with_deadline_at(Instant::now() - Duration::from_millis(1));
        assert_eq!(pool.handle().try_submit(job), Submit::Accepted);
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("budget_exhausted").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("slept_ms").and_then(Json::as_u64), Some(0));
        // The same worker slot takes the next job — no quarantine, no
        // respawn.
        state.metrics.job_enqueued();
        assert_eq!(pool.handle().try_submit(sleep_job(1, tx)), Submit::Accepted);
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("budget_exhausted"), None);
        pool.shutdown();
        let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(load(&state.metrics.workers_respawned), 0);
        assert_eq!(load(&state.metrics.partial_results), 1);
        assert_eq!(load(&state.metrics.jobs_ok), 2, "partials still count as served");
        assert!(state.metrics.queue_wait_micros.count() >= 2);
    }

    #[test]
    fn queued_jobs_complete_during_shutdown() {
        // One worker, several queued jobs: shutdown's stop sentinel
        // queues *behind* them, so all of them complete (nothing is
        // silently dropped).
        let state = ServeState::new(ServeConfig::default());
        let pool = Pool::new(1, 8, state.clone());
        let handle = pool.handle();
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            state.metrics.job_enqueued();
            assert_eq!(handle.try_submit(sleep_job(30, tx.clone())), Submit::Accepted);
        }
        pool.shutdown();
        drop(tx);
        let mut ok = 0;
        while let Ok(resp) = rx.recv_timeout(Duration::from_secs(5)) {
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            ok += 1;
        }
        assert_eq!(ok, 4, "every queued job must complete before shutdown");
        assert_eq!(state.metrics.jobs_drained.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn submissions_after_shutdown_get_shutting_down() {
        let state = ServeState::new(ServeConfig::default());
        let pool = Pool::new(1, 4, state.clone());
        let handle = pool.handle();
        pool.shutdown();
        let (tx, _rx) = mpsc::channel();
        assert_eq!(handle.try_submit(sleep_job(1, tx)), Submit::ShuttingDown);
    }
}
