//! The service under test: starting it, driving jobs through it, and
//! stopping it.

use crate::workload::{Topology, Workload};
use kecss_server::client::{wait_for_live_workers, Client, ClientError};
use kecss_server::job::JobSpec;
use kecss_server::scheduler::StartHook;
use kecss_server::{
    Coordinator, CoordinatorConfig, CoordinatorHandle, JobId, Scheduler, Server, ServerConfig,
    ServerHandle, Worker, WorkerConfig, WorkerHandle,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How long one job may take before the run counts it as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Length of the time slices [`Pass::throughput`] takes the median rate
/// over. Short slices let the median step over bursts of outside load on a
/// shared host, which stall a few slices rather than a whole run.
const THROUGHPUT_SLICE: Duration = Duration::from_millis(100);

/// Jobs after which a pass reads the peak resident set. The scheduler
/// keeps a slot for every job it has served, so a peak over a whole
/// fixed-length run grows with the jobs that fit in it, and jumps by ~75%
/// when the slot table doubles (at 229 376 jobs, which `small_kgw1` crosses
/// in some 30 s runs and not in others). Read at a fixed job count, the
/// peak still carries every slot's cost but not the run's throughput.
pub const RSS_JOBS: u64 = 100_000;

/// Per-worker admission depth in the fleet.
const WORKER_QUEUE_DEPTH: usize = 4;

/// A running service plus the benchmark's one client connection.
pub struct Service {
    client: Client,
    roles: Roles,
}

enum Roles {
    Standalone(ServerHandle),
    Fleet {
        coordinator: CoordinatorHandle,
        workers: Vec<WorkerHandle>,
    },
}

/// Service-side counters read when the service stops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Submissions the service rejected with `BUSY`.
    pub busy: u64,
    /// Coordinator re-queues after a worker loss or a worker `BUSY`.
    pub retries: u64,
}

impl Service {
    /// Starts the workload's service and connects the client. `hook` is
    /// attached to the standalone server's scheduler (the fleet's workers
    /// build theirs internally).
    ///
    /// # Panics
    ///
    /// Panics if binding, worker registration or connecting fails.
    pub fn start(workload: &Workload, hook: Option<StartHook>) -> Service {
        let depth = workload.window.max(1) * 2;
        match workload.topology {
            Topology::Standalone => {
                let config = ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    threads: 1,
                    queue_depth: depth,
                    ..ServerConfig::default()
                };
                let scheduler = Scheduler::with_start_hook(1, depth, hook);
                let server = Server::bind_with(&config, scheduler)
                    .expect("bind server")
                    .spawn();
                let client =
                    Client::connect_binary(&server.addr().to_string()).expect("connect client");
                Service {
                    client,
                    roles: Roles::Standalone(server),
                }
            }
            Topology::Fleet { workers } => {
                let coordinator = Coordinator::bind(&CoordinatorConfig {
                    addr: "127.0.0.1:0".into(),
                    queue_depth: depth,
                    ..CoordinatorConfig::default()
                })
                .expect("bind coordinator")
                .spawn();
                let addr = coordinator.addr().to_string();
                let workers: Vec<WorkerHandle> = (0..workers)
                    .map(|i| {
                        Worker::bind(&WorkerConfig {
                            addr: "127.0.0.1:0".into(),
                            coordinator: addr.clone(),
                            worker_id: format!("perfbench-{i}"),
                            threads: 1,
                            queue_depth: WORKER_QUEUE_DEPTH,
                            heartbeat_interval: Duration::from_millis(100),
                            ..WorkerConfig::default()
                        })
                        .expect("bind worker")
                        .spawn()
                    })
                    .collect();
                wait_for_live_workers(
                    &addr,
                    workers.len(),
                    Duration::from_millis(1),
                    Duration::from_secs(30),
                )
                .expect("workers register");
                let client = Client::connect(&addr).expect("connect client");
                Service {
                    client,
                    roles: Roles::Fleet {
                        coordinator,
                        workers,
                    },
                }
            }
        }
    }

    /// Shuts every role down, joins its threads and returns its counters.
    ///
    /// # Panics
    ///
    /// Panics if a role's thread panicked.
    pub fn stop(mut self) -> Counters {
        let _ = self.client.shutdown();
        match self.roles {
            Roles::Standalone(server) => Counters {
                busy: server.join().rejected,
                retries: 0,
            },
            Roles::Fleet {
                coordinator,
                workers,
            } => {
                let summary = coordinator.join();
                for worker in workers {
                    if let Ok(mut c) = Client::connect(&worker.addr().to_string()) {
                        let _ = c.shutdown();
                    }
                    worker.join();
                }
                Counters {
                    busy: summary.rejected,
                    retries: summary.retries,
                }
            }
        }
    }
}

/// Sends jobs `0, 1, …, jobs - 1` of `plan` (cyclically) through the
/// service one at a time, recording their payloads in `payloads`; returns
/// the jobs that failed, were refused or returned a payload that differs
/// from an earlier one of the same entry.
pub fn warm_up(
    service: &mut Service,
    plan: &[JobSpec],
    jobs: usize,
    payloads: &mut Payloads,
) -> u64 {
    let mut errors = 0;
    for spec in (0..plan.len()).cycle().take(jobs) {
        let good = match service.client.submit_wait(&plan[spec], JOB_TIMEOUT) {
            Ok(Ok((_, payload))) => payloads.record(spec, payload),
            _ => false,
        };
        errors += u64::from(!good);
    }
    errors
}

/// The first payload returned for each plan entry. Every later
/// payload of the entry is compared with it byte for byte as it arrives, so
/// a run holds one payload per entry rather than one per job.
pub struct Payloads(pub Vec<Option<Vec<u8>>>);

impl Payloads {
    /// An empty table for a plan of `len` entries.
    pub fn new(len: usize) -> Payloads {
        Payloads(vec![None; len])
    }

    /// Keeps `payload` if it is the entry's first; otherwise reports
    /// whether it equals the first.
    pub fn record(&mut self, spec: usize, payload: Vec<u8>) -> bool {
        match &self.0[spec] {
            Some(first) => *first == payload,
            None => {
                self.0[spec] = Some(payload);
                true
            }
        }
    }
}

/// A latency histogram with logarithmic buckets [`Histogram::GROWTH`]
/// apart: its memory does not grow with the jobs of a pass (so it does not
/// show in `peak_rss_mb`), and its percentiles are within 0.05%.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Histogram {
    /// Ratio between consecutive bucket bounds.
    const GROWTH: f64 = 1.0005;
    /// Lower bound of the first bucket, in ns (1 µs).
    const MIN_NS: f64 = 1e3;
    /// Buckets: 1 µs to ~1000 s.
    const BUCKETS: usize = 41_500;

    fn new() -> Histogram {
        Histogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }

    fn record(&mut self, d: Duration) {
        let ns = (d.as_nanos() as f64).max(Self::MIN_NS);
        let i = ((ns / Self::MIN_NS).ln() / Self::GROWTH.ln()) as usize;
        self.counts[i.min(Self::BUCKETS - 1)] += 1;
        self.total += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-th percentile (nearest rank) in ms; `NaN` when empty.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::MIN_NS * Self::GROWTH.powf(i as f64 + 0.5) * 1e-6;
            }
        }
        f64::NAN
    }
}

/// One job that returned a payload, kept when a pass is asked to keep them
/// (the traced run pairs jobs with its in-process measurements).
pub struct JobRecord {
    /// Index into the job plan.
    pub spec: usize,
    /// The service's job id.
    pub id: JobId,
    /// When the client sent the submission.
    pub sent: Instant,
    /// Client-observed latency, submission to payload.
    pub latency: Duration,
}

/// One timed pass of jobs through the service, summarised as it runs.
pub struct Pass {
    /// Latencies of the jobs that returned a payload.
    pub latency: Histogram,
    /// Jobs submitted.
    pub attempted: u64,
    /// Per plan entry, payloads byte-identical to the entry's first.
    pub delivered: Vec<u64>,
    /// Payloads that differed from their entry's first.
    pub mismatched: u64,
    /// Submissions answered `BUSY`.
    pub busy: u64,
    /// Jobs that failed, timed out, or lost the connection.
    pub failed: u64,
    /// Per [`THROUGHPUT_SLICE`] of the pass, the jobs credited to it: each
    /// delivered job is spread over the slices its submission-to-payload
    /// interval overlaps.
    credit: Vec<f64>,
    /// First submission to last reply.
    pub makespan: Duration,
    /// The delivered jobs, when asked for.
    pub records: Vec<JobRecord>,
    /// `peak_rss_mb` once the pass had attempted [`RSS_JOBS`] jobs.
    pub rss_at_jobs_mb: Option<f64>,
}

impl Pass {
    /// An empty pass over a plan of `plan_len` entries lasting `seconds`.
    pub fn new(plan_len: usize, seconds: f64) -> Pass {
        Pass {
            latency: Histogram::new(),
            attempted: 0,
            delivered: vec![0; plan_len],
            mismatched: 0,
            busy: 0,
            failed: 0,
            credit: vec![0.0; ((seconds / THROUGHPUT_SLICE.as_secs_f64()) as usize).max(1)],
            makespan: Duration::ZERO,
            records: Vec::new(),
            rss_at_jobs_mb: None,
        }
    }

    /// Merges a later pass of the same plan into this one.
    pub fn extend(&mut self, later: Pass) {
        self.latency.merge(&later.latency);
        self.attempted += later.attempted;
        for (a, b) in self.delivered.iter_mut().zip(&later.delivered) {
            *a += b;
        }
        self.mismatched += later.mismatched;
        self.busy += later.busy;
        self.failed += later.failed;
        self.credit.extend(later.credit);
        self.makespan += later.makespan;
        self.records.extend(later.records);
    }

    /// Credits a delivered job that ran from `sent` to `done` (offsets from
    /// the pass start) to the slices it overlaps.
    fn credit(&mut self, sent: Duration, done: Duration) {
        let (sent, done) = (sent.as_secs_f64(), done.as_secs_f64());
        let len = (done - sent).max(1e-9);
        let slice = THROUGHPUT_SLICE.as_secs_f64();
        let last = self.credit.len() - 1;
        let first = ((sent / slice) as usize).min(last);
        for (i, c) in self.credit[first..=((done / slice) as usize).min(last)]
            .iter_mut()
            .enumerate()
        {
            let lo = (first + i) as f64 * slice;
            let overlap = done.min(lo + slice) - sent.max(lo);
            if overlap > 0.0 {
                *c += overlap / len;
            }
        }
    }

    /// Jobs that returned a payload, per second: the median rate over the
    /// run's [`THROUGHPUT_SLICE`]s.
    pub fn throughput(&self) -> f64 {
        let slice = THROUGHPUT_SLICE.as_secs_f64();
        let rates: Vec<f64> = self.credit.iter().map(|c| c / slice).collect();
        crate::stats::median(&rates)
    }
}

/// Drives jobs `first, first+1, …` of `plan` (cyclically) through the
/// service for `seconds`, keeping `window` in flight on the one connection,
/// then waits for the stragglers. Payloads are checked against `payloads`
/// as they arrive; `keep_records` keeps the delivered jobs.
pub fn drive(
    service: &mut Service,
    plan: &[JobSpec],
    first: usize,
    window: usize,
    seconds: f64,
    payloads: &mut Payloads,
    keep_records: bool,
) -> Pass {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut pass = Pass::new(plan.len(), seconds);
    let mut finish = |pass: &mut Pass, spec: usize, id: JobId, sent: Instant, reply: Reply| {
        let now = Instant::now();
        pass.attempted += 1;
        pass.makespan = now - start;
        if pass.attempted == RSS_JOBS {
            pass.rss_at_jobs_mb = Some(crate::peak_rss_mb());
        }
        match reply {
            Reply::Payload(payload) => {
                if !payloads.record(spec, payload) {
                    pass.mismatched += 1;
                    return;
                }
                pass.delivered[spec] += 1;
                pass.latency.record(now - sent);
                pass.credit(sent - start, now - start);
                if keep_records {
                    pass.records.push(JobRecord {
                        spec,
                        id,
                        sent,
                        latency: now - sent,
                    });
                }
            }
            Reply::Busy => pass.busy += 1,
            Reply::Failed(e) => {
                if pass.failed < 5 {
                    eprintln!("job {id} ({}) failed: {e}", plan[spec].canonical());
                }
                pass.failed += 1;
            }
        }
    };
    let mut next = first;
    let client = &mut service.client;
    if window <= 1 {
        while Instant::now() < deadline {
            let spec = next % plan.len();
            next += 1;
            let sent = Instant::now();
            let (id, reply) = match client.submit_wait(&plan[spec], JOB_TIMEOUT) {
                Ok(Ok((id, payload))) => (id, Reply::Payload(payload)),
                Ok(Err(_depth)) => (0, Reply::Busy),
                Err(e) => (0, Reply::Failed(e)),
            };
            let broken = matches!(reply, Reply::Failed(_));
            finish(&mut pass, spec, id, sent, reply);
            if broken {
                break;
            }
        }
    } else {
        let mut inflight: VecDeque<(usize, JobId, Instant)> = VecDeque::new();
        let mut broken = false;
        loop {
            while !broken && inflight.len() < window && Instant::now() < deadline {
                let spec = next % plan.len();
                next += 1;
                let sent = Instant::now();
                match client.submit(&plan[spec]) {
                    Ok(Ok(id)) => inflight.push_back((spec, id, sent)),
                    Ok(Err(_depth)) => finish(&mut pass, spec, 0, sent, Reply::Busy),
                    Err(e) => {
                        finish(&mut pass, spec, 0, sent, Reply::Failed(e));
                        broken = true;
                    }
                }
            }
            let Some((spec, id, sent)) = inflight.pop_front() else {
                break;
            };
            let reply = match client.wait_result(id, Duration::from_millis(1), JOB_TIMEOUT) {
                Ok(payload) => Reply::Payload(payload),
                Err(e) => Reply::Failed(e),
            };
            finish(&mut pass, spec, id, sent, reply);
        }
    }
    pass
}

/// What the service answered one job.
enum Reply {
    Payload(Vec<u8>),
    Busy,
    Failed(ClientError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use kecss_server::protocol::Request;

    fn small_plan() -> Vec<JobSpec> {
        (0..3)
            .map(
                |seed| match Request::parse(&format!("SUBMIT ring:20 2 2ecss auto {seed}")) {
                    Ok(Request::Submit(spec)) => spec,
                    other => panic!("{other:?}"),
                },
            )
            .collect()
    }

    /// Both topologies return the oracle's bytes, to warm-up and timed jobs
    /// alike, and their busy and retry totals repeat exactly.
    #[test]
    fn both_topologies_serve_oracle_bytes_with_repeatable_counters() {
        let plan = small_plan();
        let oracle: Vec<Vec<u8>> = plan.iter().map(|s| crate::oracle(s).unwrap()).collect();
        for workload in &WORKLOADS[..] {
            if workload.name == "heavy_cuts_q7" {
                continue;
            }
            let mut counters = Vec::new();
            for _ in 0..2 {
                let mut service = Service::start(workload, None);
                let mut payloads = Payloads::new(plan.len());
                assert_eq!(warm_up(&mut service, &plan, plan.len(), &mut payloads), 0);
                let pass = drive(
                    &mut service,
                    &plan,
                    0,
                    workload.window,
                    0.2,
                    &mut payloads,
                    false,
                );
                counters.push(service.stop());
                assert!(pass.attempted >= plan.len() as u64, "{}", workload.name);
                assert_eq!(pass.delivered.iter().sum::<u64>(), pass.attempted);
                assert!(pass.latency.len() == pass.attempted && pass.throughput() > 0.0);
                for (first, expected) in payloads.0.iter().zip(&oracle) {
                    assert_eq!(first.as_ref(), Some(expected), "{}", workload.name);
                }
            }
            assert_eq!(counters[0], counters[1]);
            assert_eq!(counters[0], Counters::default());
        }
    }
}
