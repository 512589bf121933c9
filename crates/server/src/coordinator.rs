//! The fleet control plane: a coordinator that speaks the **same**
//! client-facing protocol as the standalone server, but dispatches every job
//! to a registered worker over that same wire format (DESIGN.md §13).
//!
//! # Design
//!
//! * **Clients see no new protocol.** `SUBMIT`/`STATUS`/`RESULT`/`CANCEL`/
//!   `METRICS`/`SHUTDOWN` behave exactly as against a standalone server; the
//!   only client-visible novelty is the additive `ASSIGNED` state word and
//!   the coordinator-only `FLEET` status verb.
//! * **Workers are plain servers.** The coordinator is a protocol *client*
//!   of each worker: a dispatch is a `SUBMIT` to the chosen worker followed
//!   by one blocking `RESULT WAIT` — the worker pushes the payload when the
//!   job completes, so no coordinator code path polls. Workers register by
//!   sending `HEARTBEAT <id> <addr>` periodically; a worker whose beats stop
//!   for longer than the configured timeout is deregistered and its
//!   in-flight jobs re-queued.
//! * **Lifecycle.** Every job walks the [`JobState`] machine
//!   (`QUEUED → ASSIGNED → RUNNING → DONE/FAILED`, with the two loss
//!   transitions back to `QUEUED`); illegal transitions panic rather than
//!   corrupt the table.
//! * **Determinism under failure.** [`crate::job::run`] is pure in the spec,
//!   so *which* worker runs a job — and how many times it is re-dispatched —
//!   cannot change the payload bytes. Deterministic assignment
//!   (`splitmix64(job id)` over the sorted live-worker set) additionally
//!   pins *where* a job runs for a given fleet shape, which keeps scheduling
//!   reproducible, but byte-identical results need only purity. See the
//!   determinism argument in DESIGN.md §13.
//!
//! # Retry semantics
//!
//! A worker loss (heartbeat timeout, connection failure, or read timeout)
//! re-queues the lost worker's non-terminal jobs and bumps their retry
//! count; a job whose retry count exceeds `max_retries` fails instead. A
//! `BUSY` answer from a worker is *not* a retry — the job simply returns to
//! the queue with a short back-off. Each (re)assignment bumps the job's
//! epoch; a dispatch thread only writes back under its own epoch, so a
//! stale dispatcher racing a re-queue can never clobber the table.

use crate::client::{Client, ClientError, Reply};
use crate::event_loop::{run_event_loop, EventLoopConfig, Service};
use crate::job::JobSpec;
use crate::protocol::{Request, Response};
use crate::scheduler::{CompletionHook, JobId, JobState, Outcome, ServeSummary};
use crate::server::ServerHandle;
use kecss_obs::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Cached handles into the global registry (the fixed-name fleet series);
/// per-worker labelled series are resolved on demand — dispatch is a
/// millisecond-scale path, not the scheduler's ~50 µs submit path.
struct Metrics {
    workers_live: Arc<Gauge>,
    retries: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    assignment_wait_ns: Arc<Histogram>,
    heartbeat_gap_ns: Arc<Histogram>,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        workers_live: kecss_obs::gauge("fleet_workers_live"),
        retries: kecss_obs::counter("fleet_job_retries_total"),
        completed: kecss_obs::counter_with("fleet_jobs_total", &[("state", "completed")]),
        failed: kecss_obs::counter_with("fleet_jobs_total", &[("state", "failed")]),
        cancelled: kecss_obs::counter_with("fleet_jobs_total", &[("state", "cancelled")]),
        assignment_wait_ns: kecss_obs::histogram("fleet_assignment_wait_ns"),
        heartbeat_gap_ns: kecss_obs::histogram("fleet_heartbeat_gap_ns"),
    })
}

/// Coordinator configuration (the CLI's `kecss serve --role coordinator`
/// flags).
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// The client-facing address to bind (port 0 picks one).
    pub addr: String,
    /// Maximum jobs in flight (queued + assigned + running) before `BUSY`.
    pub queue_depth: usize,
    /// A worker whose last heartbeat is older than this is deregistered and
    /// its jobs re-queued.
    pub heartbeat_timeout: Duration,
    /// Worker-loss re-queues a job tolerates before failing.
    pub max_retries: u32,
    /// Per-connection request limit (0 = unlimited), as on the server.
    pub max_requests_per_conn: usize,
    /// Per-connection unsent-reply bound (the slow-client policy), as on the
    /// server.
    pub write_queue_limit: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:7460".into(),
            queue_depth: 64,
            heartbeat_timeout: Duration::from_secs(3),
            max_retries: 5,
            max_requests_per_conn: 0,
            write_queue_limit: 16 << 20,
        }
    }
}

/// One fleet job's table entry.
struct FleetJob {
    spec: JobSpec,
    state: JobState,
    /// The worker currently (or last) responsible, by id.
    worker: Option<String>,
    /// Bumped on every (re)assignment and every re-queue; a dispatch thread
    /// writes back only under its own epoch.
    epoch: u64,
    /// Worker-loss re-queues so far (`BUSY` back-offs do not count).
    retries: u32,
    /// Earliest next dispatch (the `BUSY` back-off).
    not_before: Instant,
    /// Set while non-terminal; consumed into the assignment-wait histogram.
    submitted_at: Instant,
    /// The terminal outcome, with the server's fetched-once semantics.
    outcome: Option<Outcome>,
}

impl FleetJob {
    /// Moves the job to `to`, enforcing the [`JobState`] transition table.
    fn transition(&mut self, to: JobState) {
        assert!(
            self.state.can_transition(to),
            "illegal fleet transition {:?} -> {to:?}",
            self.state
        );
        self.state = to;
    }
}

/// One registered worker.
struct WorkerEntry {
    addr: String,
    last_beat: Instant,
    live: bool,
    /// Jobs ever dispatched to this worker.
    dispatched: u64,
    /// Jobs currently assigned/running on this worker.
    inflight: u64,
}

struct FleetTable {
    next_id: JobId,
    /// `BTreeMap` so the FIFO dispatch scan and the `FLEET` text are in
    /// job-id order.
    jobs: BTreeMap<JobId, FleetJob>,
    /// `BTreeMap` so "the sorted live-worker set" is the iteration order.
    workers: BTreeMap<String, WorkerEntry>,
    /// Jobs queued + assigned + running; the depth bound applies to this.
    inflight: usize,
    closed: bool,
    /// Set (under the lock) by everything that makes new dispatch work —
    /// submission, registration, a worker-loss re-queue, shutdown — and
    /// cleared by the dispatcher after each scan. A `Condvar` notification
    /// fired between the dispatcher's scan and its wait is otherwise lost,
    /// and the job would sit queued until the next sweep tick.
    kicked: bool,
    /// Job ids that reached a terminal state since the last flush. Every
    /// code path that drops the table lock after a terminal transition does
    /// so through [`Shared::release`], which fires the completion hook for
    /// them: that wakes the readiness loop for push delivery and the
    /// shutdown drain.
    pending_terminal: Vec<JobId>,
    summary: ServeSummary,
}

impl FleetTable {
    fn live_workers(&self) -> Vec<(String, String)> {
        self.workers
            .iter()
            .filter(|(_, w)| w.live)
            .map(|(id, w)| (id.clone(), w.addr.clone()))
            .collect()
    }

    fn update_live_gauge(&self) {
        let live = self.workers.values().filter(|w| w.live).count();
        metrics().workers_live.set(live as i64);
    }

    /// Marks a job terminal: transition, store the outcome, maintain the
    /// in-flight count, counters and per-worker gauges.
    fn finish(&mut self, id: JobId, to: JobState, outcome: Outcome) {
        let job = self.jobs.get_mut(&id).expect("finishing a known job");
        if let Some(worker) = job.worker.take() {
            if let Some(entry) = self.workers.get_mut(&worker) {
                entry.inflight = entry.inflight.saturating_sub(1);
                worker_inflight_gauge(&worker).set(entry.inflight as i64);
            }
        }
        job.transition(to);
        job.outcome = Some(outcome);
        self.inflight -= 1;
        self.pending_terminal.push(id);
        match to {
            JobState::Done => {
                self.summary.completed += 1;
                metrics().completed.inc();
            }
            JobState::Failed => {
                self.summary.failed += 1;
                metrics().failed.inc();
            }
            JobState::Cancelled => {
                self.summary.cancelled += 1;
                metrics().cancelled.inc();
            }
            _ => unreachable!("finish is only called with terminal states"),
        }
    }

    /// Returns every non-terminal job owned by `worker` to the queue (or
    /// fails it when its retry budget is spent). The loss path shared by the
    /// heartbeat sweep and dispatch-side connection failures.
    fn requeue_worker_jobs(&mut self, worker: &str, max_retries: u32, cause: &str) {
        let ids: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| !j.state.is_terminal() && j.worker.as_deref() == Some(worker))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.summary.retries += 1;
            metrics().retries.inc();
            let job = self.jobs.get_mut(&id).expect("job id just enumerated");
            job.epoch += 1;
            job.retries += 1;
            job.worker = None;
            if let Some(entry) = self.workers.get_mut(worker) {
                entry.inflight = entry.inflight.saturating_sub(1);
                worker_inflight_gauge(worker).set(entry.inflight as i64);
            }
            if job.retries > max_retries {
                let retries = job.retries;
                // `finish` re-derives the worker/inflight bookkeeping; the
                // worker was already detached above, so transition directly.
                job.transition(JobState::Failed);
                job.outcome = Some(Outcome::Failed(format!(
                    "worker lost {retries} times (last: {cause}); retry budget {max_retries} spent"
                )));
                self.inflight -= 1;
                self.pending_terminal.push(id);
                self.summary.failed += 1;
                metrics().failed.inc();
            } else {
                job.transition(JobState::Queued);
                job.not_before = Instant::now();
            }
        }
    }
}

fn worker_inflight_gauge(worker: &str) -> Arc<Gauge> {
    kecss_obs::gauge_with("fleet_worker_inflight", &[("worker", worker)])
}

fn worker_dispatched_counter(worker: &str) -> Arc<Counter> {
    kecss_obs::counter_with("fleet_worker_dispatched_total", &[("worker", worker)])
}

struct Shared {
    table: Mutex<FleetTable>,
    /// Signalled whenever dispatch-relevant state changes (submission,
    /// registration, re-queue).
    dispatch: Condvar,
    /// Stops the dispatcher thread (set after the shutdown drain).
    stop: AtomicBool,
    /// The readiness loop's completion hook (push delivery + drain wakeups),
    /// installed once before the loop starts serving.
    completion_hook: Mutex<Option<CompletionHook>>,
    config: CoordinatorConfig,
}

impl Shared {
    /// Drops the table lock, then fires the loop's completion hook for every
    /// id that went terminal under it ([`FleetTable::pending_terminal`]) —
    /// so the hook (which takes its own locks) never nests inside the table
    /// lock.
    fn release(&self, mut table: MutexGuard<'_, FleetTable>) {
        let ids = std::mem::take(&mut table.pending_terminal);
        drop(table);
        if ids.is_empty() {
            return;
        }
        let hook = self
            .completion_hook
            .lock()
            .expect("completion hook lock poisoned")
            .clone();
        if let Some(hook) = hook {
            for id in ids {
                hook(id);
            }
        }
    }
}

/// The deterministic assignment hash: splitmix64, the same finalizer the
/// solver seeds go through. The *value* only matters in that it is a fixed
/// pure function of the job id — assignment is then reproducible for a
/// given sorted live-worker set.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A bound, not-yet-running coordinator (bind/run split as on [`crate::Server`]).
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
    loop_config: EventLoopConfig,
}

impl Coordinator {
    /// Binds the client-facing listener.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: &CoordinatorConfig) -> std::io::Result<Coordinator> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Coordinator {
            listener,
            shared: Arc::new(Shared {
                table: Mutex::new(FleetTable {
                    next_id: 1,
                    jobs: BTreeMap::new(),
                    workers: BTreeMap::new(),
                    inflight: 0,
                    closed: false,
                    kicked: false,
                    pending_terminal: Vec::new(),
                    summary: ServeSummary::default(),
                }),
                dispatch: Condvar::new(),
                stop: AtomicBool::new(false),
                completion_hook: Mutex::new(None),
                config: CoordinatorConfig {
                    queue_depth: config.queue_depth.max(1),
                    ..config.clone()
                },
            }),
            loop_config: EventLoopConfig {
                max_requests_per_conn: config.max_requests_per_conn,
                write_queue_limit: config.write_queue_limit.max(1),
                backend: None,
            },
        })
    }

    /// The actually-bound client-facing address (resolves port 0).
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the bound address (it just bound it).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// Runs the readiness loop and the dispatcher until a `SHUTDOWN` request
    /// arrives, then drains the in-flight jobs and returns the final
    /// counters. The drain needs live workers to make progress; a fleet shut
    /// down with queued jobs and no workers waits until a worker registers
    /// (heartbeats on already-open connections are still served during the
    /// drain; only *new* connects are refused).
    ///
    /// # Panics
    ///
    /// Panics if the readiness poller cannot be constructed (fd exhaustion).
    pub fn run(self) -> ServeSummary {
        let dispatcher = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || dispatcher_loop(&shared))
        };
        let service: Arc<dyn Service> = self.shared.clone();
        // The loop returns only once every admitted job is terminal (its
        // drain condition asks `Service::inflight`); dispatch and retries
        // keep running on the threads behind it meanwhile.
        run_event_loop(self.listener, &service, &self.loop_config)
            .expect("readiness loop failed to start");
        let summary = self
            .shared
            .table
            .lock()
            .expect("coordinator lock poisoned")
            .summary;
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            let mut table = self.shared.table.lock().expect("coordinator lock poisoned");
            table.kicked = true;
        }
        self.shared.dispatch.notify_all();
        let _ = dispatcher.join();
        summary
    }

    /// Spawns [`Coordinator::run`] on a background thread (tests, benches
    /// and the in-process harness).
    pub fn spawn(self) -> CoordinatorHandle {
        ServerHandle::spawn(self.local_addr(), move || self.run())
    }
}

/// A running background coordinator: the same handle as a server's, with the
/// client-facing address.
pub type CoordinatorHandle = ServerHandle;

/// The dispatcher: one loop that (1) sweeps heartbeat-expired workers and
/// re-queues their jobs, (2) assigns queued jobs to live workers
/// deterministically, spawning one dispatch thread per assignment.
fn dispatcher_loop(shared: &Arc<Shared>) {
    // The sweep cadence bounds loss-detection latency; a quarter of the
    // timeout keeps detection prompt without busy-waiting.
    let tick = (shared.config.heartbeat_timeout / 4)
        .clamp(Duration::from_millis(5), Duration::from_millis(250));
    loop {
        let mut dispatched: Vec<(JobId, u64, String, String, JobSpec)> = Vec::new();
        {
            let mut table = shared.table.lock().expect("coordinator lock poisoned");
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            // 1. Heartbeat sweep.
            let lost: Vec<String> = table
                .workers
                .iter()
                .filter(|(_, w)| {
                    w.live && now.duration_since(w.last_beat) > shared.config.heartbeat_timeout
                })
                .map(|(id, _)| id.clone())
                .collect();
            for worker in &lost {
                table
                    .workers
                    .get_mut(worker)
                    .expect("worker enumerated")
                    .live = false;
                table.requeue_worker_jobs(worker, shared.config.max_retries, "heartbeat timeout");
            }
            if !lost.is_empty() {
                table.update_live_gauge();
            }
            // 2. Deterministic assignment over the sorted live-worker set.
            let live = table.live_workers();
            if !live.is_empty() {
                let ready: Vec<JobId> = table
                    .jobs
                    .iter()
                    .filter(|(_, j)| j.state == JobState::Queued && j.not_before <= now)
                    .map(|(id, _)| *id)
                    .collect();
                for id in ready {
                    let (worker, worker_addr) =
                        &live[(splitmix64(id) % live.len() as u64) as usize];
                    let job = table.jobs.get_mut(&id).expect("job id just enumerated");
                    job.transition(JobState::Assigned);
                    job.worker = Some(worker.clone());
                    job.epoch += 1;
                    let epoch = job.epoch;
                    let spec = job.spec.clone();
                    if kecss_obs::enabled() {
                        if let Ok(ns) =
                            u64::try_from(now.duration_since(job.submitted_at).as_nanos())
                        {
                            metrics().assignment_wait_ns.record(ns);
                        }
                    }
                    let entry = table.workers.get_mut(worker).expect("live worker exists");
                    entry.dispatched += 1;
                    entry.inflight += 1;
                    worker_dispatched_counter(worker).inc();
                    worker_inflight_gauge(worker).set(entry.inflight as i64);
                    dispatched.push((id, epoch, worker.clone(), worker_addr.clone(), spec));
                }
            }
            // A sweep may have failed jobs past their retry budget: wake any
            // parked `RESULT WAIT` subscribers (and the drain) for them.
            shared.release(table);
        }
        for (id, epoch, worker, worker_addr, spec) in dispatched {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                dispatch_job(&shared, id, epoch, &worker, &worker_addr, spec)
            });
        }
        let mut table = shared.table.lock().expect("coordinator lock poisoned");
        if !table.kicked {
            // Nothing arrived while the lock was released for the spawns.
            // Wake no later than the earliest `BUSY` back-off deadline (a
            // backed-off job has no notification coming), else at the sweep
            // tick. Queued jobs with no live worker get no special wake:
            // registration kicks.
            let now = Instant::now();
            let wait = if table.workers.values().any(|w| w.live) {
                table
                    .jobs
                    .values()
                    .filter(|j| j.state == JobState::Queued)
                    .map(|j| {
                        j.not_before
                            .saturating_duration_since(now)
                            .max(Duration::from_millis(1))
                    })
                    .min()
                    .map_or(tick, |d| d.min(tick))
            } else {
                tick
            };
            table = shared
                .dispatch
                .wait_timeout(table, wait)
                .expect("coordinator lock poisoned")
                .0;
        }
        table.kicked = false;
    }
}

/// One dispatch: act as a protocol client of the chosen worker — `SUBMIT`,
/// then one blocking `RESULT WAIT` (the worker pushes on completion). All
/// table write-backs are epoch-guarded.
fn dispatch_job(
    shared: &Arc<Shared>,
    id: JobId,
    epoch: u64,
    worker: &str,
    worker_addr: &str,
    spec: JobSpec,
) {
    match try_dispatch(shared, id, epoch, worker_addr, spec) {
        Ok(()) => {}
        Err(DispatchEnd::WorkerLost(cause)) => {
            let mut table = shared.table.lock().expect("coordinator lock poisoned");
            // Only act if the table still believes this dispatch: the
            // heartbeat sweep may have re-queued the job already.
            let current = table.jobs.get(&id).is_some_and(|j| j.epoch == epoch);
            if current {
                if let Some(entry) = table.workers.get_mut(worker) {
                    entry.live = false;
                }
                table.requeue_worker_jobs(worker, shared.config.max_retries, &cause);
                table.update_live_gauge();
                table.kicked = true;
                shared.release(table);
                shared.dispatch.notify_all();
            }
        }
        Err(DispatchEnd::Busy) => {
            let mut table = shared.table.lock().expect("coordinator lock poisoned");
            if table.jobs.get(&id).is_some_and(|j| j.epoch == epoch) {
                if let Some(entry) = table.workers.get_mut(worker) {
                    entry.inflight = entry.inflight.saturating_sub(1);
                    worker_inflight_gauge(worker).set(entry.inflight as i64);
                }
                let job = table.jobs.get_mut(&id).expect("epoch-checked job exists");
                job.worker = None;
                job.epoch += 1;
                job.transition(JobState::Queued);
                // Back off briefly so a saturated worker is not hammered.
                job.not_before = Instant::now() + Duration::from_millis(25);
            }
        }
    }
}

/// Why a dispatch attempt ended without delivering a terminal outcome.
enum DispatchEnd {
    /// The worker is unreachable, hung past the read timeout, or answered
    /// outside the protocol: treat as a loss and re-queue.
    WorkerLost(String),
    /// The worker's queue is full: back off, no retry charged.
    Busy,
}

fn try_dispatch(
    shared: &Arc<Shared>,
    id: JobId,
    epoch: u64,
    worker_addr: &str,
    spec: JobSpec,
) -> Result<(), DispatchEnd> {
    let lost = |e: ClientError| DispatchEnd::WorkerLost(e.to_string());
    let mut client = Client::connect(worker_addr).map_err(lost)?;
    // A healthy worker answers `SUBMIT` immediately (solving happens on its
    // pool): a read that blocks past the heartbeat timeout here means the
    // worker is gone, not slow.
    client
        .set_read_timeout(Some(shared.config.heartbeat_timeout))
        .map_err(lost)?;
    let worker_job = match client.submit(&spec) {
        Ok(Ok(worker_job)) => worker_job,
        Ok(Err(_depth)) => return Err(DispatchEnd::Busy),
        // The worker rejected the spec outright (`ERR`): re-submitting
        // elsewhere cannot help, the job fails now.
        Err(ClientError::Server(message)) => {
            let mut table = shared.table.lock().expect("coordinator lock poisoned");
            if table.jobs.get(&id).is_some_and(|j| j.epoch == epoch) {
                table.finish(id, JobState::Failed, Outcome::Failed(message));
                shared.release(table);
            }
            return Ok(());
        }
        Err(e) => return Err(lost(e)),
    };
    // The worker accepted the job onto its pool: that ack is the fleet's
    // RUNNING hop. The push model has no later intermediate report to learn
    // it from — the next thing this connection hears is the terminal result.
    {
        let mut table = shared.table.lock().expect("coordinator lock poisoned");
        if let Some(job) = table
            .jobs
            .get_mut(&id)
            .filter(|j| j.epoch == epoch && j.state == JobState::Assigned)
        {
            job.transition(JobState::Running);
        }
    }
    // `RESULT WAIT` answers exactly once, when the job is terminal: the read
    // must be unbounded (solve time is the job's, not the protocol's). A
    // worker that *dies* surfaces as EOF/reset here and is handled as a
    // loss; a worker silently black-holed by the network (no FIN, no RST) is
    // detected by the heartbeat sweep instead, which re-queues the job under
    // a new epoch — this thread's eventual write-back is then discarded by
    // the epoch guard.
    client.set_read_timeout(None).map_err(lost)?;
    match client.request(&Request::ResultWait(worker_job)) {
        Ok(Reply::Result { payload, .. }) => {
            let mut table = shared.table.lock().expect("coordinator lock poisoned");
            if table.jobs.get(&id).is_some_and(|j| j.epoch == epoch) {
                // The machine records the RUNNING hop the push model no
                // longer observes directly.
                let job = table.jobs.get_mut(&id).expect("epoch-checked job exists");
                if job.state == JobState::Assigned {
                    job.transition(JobState::Running);
                }
                table.finish(id, JobState::Done, Outcome::Done(Arc::new(payload)));
                shared.release(table);
            }
            Ok(())
        }
        Ok(Reply::Err(message)) => {
            // The worker executed the job and it failed (solver error or
            // worker-side cancellation): terminal, not a loss.
            let failure = message
                .strip_prefix(&format!("job {worker_job} failed: "))
                .unwrap_or(&message)
                .to_string();
            let mut table = shared.table.lock().expect("coordinator lock poisoned");
            if table.jobs.get(&id).is_some_and(|j| j.epoch == epoch) {
                let job = table.jobs.get_mut(&id).expect("epoch-checked job exists");
                if job.state == JobState::Assigned {
                    job.transition(JobState::Running);
                }
                table.finish(id, JobState::Failed, Outcome::Failed(failure));
                shared.release(table);
            }
            Ok(())
        }
        Ok(other) => Err(DispatchEnd::WorkerLost(format!(
            "worker answered outside the protocol: {other:?}"
        ))),
        Err(e) => Err(lost(e)),
    }
}

/// The coordinator's job-table primitives: the same verbs and reply bytes as
/// the standalone scheduler (`event_loop::respond` maps both), with
/// the fleet table behind them, plus the fleet verbs.
impl Service for Shared {
    fn requests_series(&self) -> &'static str {
        "fleet_requests_total"
    }

    fn admit(&self, spec: JobSpec) -> kecss::error::Result<JobId> {
        let mut table = self.table.lock().expect("coordinator lock poisoned");
        if table.closed {
            return Err(kecss::Error::ServiceShuttingDown);
        }
        let depth = self.config.queue_depth;
        if table.inflight >= depth {
            table.summary.rejected += 1;
            return Err(kecss::Error::JobQueueFull { depth });
        }
        let id = table.next_id;
        table.next_id += 1;
        table.inflight += 1;
        table.summary.submitted += 1;
        let now = Instant::now();
        table.jobs.insert(
            id,
            FleetJob {
                spec,
                state: JobState::Queued,
                worker: None,
                epoch: 0,
                retries: 0,
                not_before: now,
                submitted_at: now,
                outcome: None,
            },
        );
        table.kicked = true;
        drop(table);
        self.dispatch.notify_all();
        Ok(id)
    }

    fn state(&self, id: JobId) -> Option<JobState> {
        let table = self.table.lock().expect("coordinator lock poisoned");
        table.jobs.get(&id).map(|job| job.state)
    }

    fn take_outcome(&self, id: JobId) -> Option<Outcome> {
        let mut table = self.table.lock().expect("coordinator lock poisoned");
        Some(table.jobs.get_mut(&id)?.outcome.as_mut()?.take())
    }

    fn cancel(&self, id: JobId) -> Result<(), Option<JobState>> {
        let mut table = self.table.lock().expect("coordinator lock poisoned");
        match table.jobs.get(&id).map(|job| job.state) {
            Some(JobState::Queued) => {
                table.finish(id, JobState::Cancelled, Outcome::Cancelled);
                self.release(table);
                Ok(())
            }
            state => Err(state),
        }
    }

    fn close(&self) {
        self.table.lock().expect("coordinator lock poisoned").closed = true;
    }

    fn inflight(&self) -> usize {
        self.table
            .lock()
            .expect("coordinator lock poisoned")
            .inflight
    }

    fn install_completion_hook(&self, hook: CompletionHook) {
        *self
            .completion_hook
            .lock()
            .expect("completion hook lock poisoned") = Some(hook);
    }

    fn fleet(&self, request: Request) -> Response {
        let mut table = self.table.lock().expect("coordinator lock poisoned");
        let Request::Heartbeat { worker, addr } = request else {
            return Response::Fleet(Arc::new(render_fleet(&table).into_bytes()));
        };
        let now = Instant::now();
        let registered = match table.workers.get_mut(&worker) {
            Some(entry) => {
                let was_dead = !entry.live;
                if kecss_obs::enabled() && !was_dead {
                    if let Ok(ns) = u64::try_from(now.duration_since(entry.last_beat).as_nanos()) {
                        metrics().heartbeat_gap_ns.record(ns);
                    }
                }
                entry.addr = addr;
                entry.last_beat = now;
                entry.live = true;
                was_dead
            }
            None => {
                table.workers.insert(
                    worker.clone(),
                    WorkerEntry {
                        addr,
                        last_beat: now,
                        live: true,
                        dispatched: 0,
                        inflight: 0,
                    },
                );
                true
            }
        };
        table.kicked |= registered;
        table.update_live_gauge();
        drop(table);
        if registered {
            self.dispatch.notify_all();
        }
        let word = if registered { "REGISTERED" } else { "ALIVE" };
        Response::Ok(format!("{worker} {word}"))
    }
}

/// Renders the machine-parseable `FLEET` status text (grammar in
/// DESIGN.md §13).
fn render_fleet(table: &FleetTable) -> String {
    let now = Instant::now();
    let mut text = String::from("# kecss fleet status v1\n");
    let live = table.workers.values().filter(|w| w.live).count();
    text.push_str(&format!("workers {} live {live}\n", table.workers.len()));
    for (id, w) in &table.workers {
        text.push_str(&format!(
            "worker {id} {} {} inflight {} dispatched {} age_ms {}\n",
            w.addr,
            if w.live { "live" } else { "dead" },
            w.inflight,
            w.dispatched,
            now.duration_since(w.last_beat).as_millis(),
        ));
    }
    let s = table.summary;
    text.push_str(&format!(
        "jobs submitted {} completed {} failed {} cancelled {} rejected {} retries {}\n",
        s.submitted, s.completed, s.failed, s.cancelled, s.rejected, s.retries
    ));
    let count = |state: JobState| table.jobs.values().filter(|j| j.state == state).count();
    text.push_str(&format!(
        "inflight {} queued {} assigned {} running {}\n",
        table.inflight,
        count(JobState::Queued),
        count(JobState::Assigned),
        count(JobState::Running),
    ));
    for (id, job) in table.jobs.iter().filter(|(_, j)| !j.state.is_terminal()) {
        text.push_str(&format!(
            "job {id} {} worker {} retries {}\n",
            job.state.wire_name(),
            job.worker.as_deref().unwrap_or("-"),
            job.retries,
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_a_fixed_function() {
        // The assignment hash must never drift: these values pin it.
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(2), 0x9758_35DE_1C97_56CE);
        assert_eq!(splitmix64(3), 0x1D0B_14E4_DB01_8FED);
    }

    #[test]
    fn fleet_text_renders_workers_jobs_and_counters() {
        let now = Instant::now();
        let mut table = FleetTable {
            next_id: 3,
            jobs: BTreeMap::new(),
            workers: BTreeMap::new(),
            inflight: 1,
            closed: false,
            kicked: false,
            pending_terminal: Vec::new(),
            summary: ServeSummary {
                submitted: 2,
                completed: 1,
                retries: 1,
                ..ServeSummary::default()
            },
        };
        table.workers.insert(
            "w1".into(),
            WorkerEntry {
                addr: "127.0.0.1:9000".into(),
                last_beat: now,
                live: true,
                dispatched: 2,
                inflight: 1,
            },
        );
        table.workers.insert(
            "w2".into(),
            WorkerEntry {
                addr: "127.0.0.1:9001".into(),
                last_beat: now,
                live: false,
                dispatched: 1,
                inflight: 0,
            },
        );
        let spec = crate::job::JobSpec {
            instance: crate::instance::InstanceSpec::parse("ring:20").unwrap(),
            k: 2,
            algorithm: crate::job::Algorithm::TwoEcss,
            enumerator: kecss::cuts::EnumeratorPolicy::Auto,
            seed: 1,
        };
        table.jobs.insert(
            2,
            FleetJob {
                spec,
                state: JobState::Running,
                worker: Some("w1".into()),
                epoch: 2,
                retries: 1,
                not_before: now,
                submitted_at: now,
                outcome: None,
            },
        );
        let text = render_fleet(&table);
        assert!(text.starts_with("# kecss fleet status v1\n"), "{text}");
        assert!(text.contains("workers 2 live 1"), "{text}");
        assert!(
            text.contains("worker w1 127.0.0.1:9000 live inflight 1 dispatched 2"),
            "{text}"
        );
        assert!(text.contains("worker w2 127.0.0.1:9001 dead"), "{text}");
        assert!(
            text.contains("jobs submitted 2 completed 1 failed 0 cancelled 0 rejected 0 retries 1"),
            "{text}"
        );
        assert!(
            text.contains("inflight 1 queued 0 assigned 0 running 1"),
            "{text}"
        );
        assert!(text.contains("job 2 RUNNING worker w1 retries 1"), "{text}");
    }

    #[test]
    fn requeue_fails_jobs_past_their_retry_budget() {
        let now = Instant::now();
        let spec = crate::job::JobSpec {
            instance: crate::instance::InstanceSpec::parse("ring:20").unwrap(),
            k: 2,
            algorithm: crate::job::Algorithm::TwoEcss,
            enumerator: kecss::cuts::EnumeratorPolicy::Auto,
            seed: 1,
        };
        let mut table = FleetTable {
            next_id: 2,
            jobs: BTreeMap::new(),
            workers: BTreeMap::new(),
            inflight: 1,
            closed: false,
            kicked: false,
            pending_terminal: Vec::new(),
            summary: ServeSummary::default(),
        };
        table.workers.insert(
            "w1".into(),
            WorkerEntry {
                addr: "127.0.0.1:9000".into(),
                last_beat: now,
                live: false,
                dispatched: 1,
                inflight: 1,
            },
        );
        table.jobs.insert(
            1,
            FleetJob {
                spec,
                state: JobState::Running,
                worker: Some("w1".into()),
                epoch: 1,
                retries: 0,
                not_before: now,
                submitted_at: now,
                outcome: None,
            },
        );
        // Budget 1: the first loss re-queues...
        table.requeue_worker_jobs("w1", 1, "test loss");
        assert_eq!(table.jobs[&1].state, JobState::Queued);
        assert_eq!(table.jobs[&1].retries, 1);
        assert_eq!(table.summary.retries, 1);
        // ...the second exhausts the budget and fails the job.
        let job = table.jobs.get_mut(&1).unwrap();
        job.transition(JobState::Assigned);
        job.worker = Some("w1".into());
        table.requeue_worker_jobs("w1", 1, "test loss again");
        assert_eq!(table.jobs[&1].state, JobState::Failed);
        assert!(matches!(table.jobs[&1].outcome, Some(Outcome::Failed(_))));
        assert_eq!(table.inflight, 0);
        assert_eq!(table.summary.failed, 1);
        assert_eq!(table.summary.retries, 2);
    }
}
