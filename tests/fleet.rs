//! The fleet suite: a real coordinator plus real workers on ephemeral ports,
//! driven through the wire protocol (DESIGN.md §13).
//!
//! Covered here: end-to-end dispatch returning payloads byte-identical to the
//! pure [`kecss_server::job::run`] oracle; worker registration visible in the
//! `FLEET` status text; retry-on-worker-loss (a scripted worker that accepts
//! a job and then dies — the job must complete on a surviving worker with the
//! identical payload); `BUSY` back-off against a depth-1 worker without
//! charging the retry budget; and the determinism property that fleet size
//! never changes a payload byte.

use kecss_runtime::Executor;
use kecss_server::client::{Client, ClientError};
use kecss_server::coordinator::{Coordinator, CoordinatorConfig};
use kecss_server::protocol::Request;
use kecss_server::server::{Server, ServerConfig};
use kecss_server::worker::{Worker, WorkerConfig};
use kecss_server::CoordinatorHandle;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const POLL: Duration = Duration::from_millis(20);
const DEADLINE: Duration = Duration::from_secs(300);

fn spawn_coordinator(queue_depth: usize, heartbeat_timeout: Duration) -> CoordinatorHandle {
    Coordinator::bind(&CoordinatorConfig {
        addr: "127.0.0.1:0".into(),
        queue_depth,
        heartbeat_timeout,
        ..CoordinatorConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn()
}

fn spawn_worker(
    coordinator: &str,
    id: &str,
    threads: usize,
    queue_depth: usize,
) -> kecss_server::WorkerHandle {
    Worker::bind(&WorkerConfig {
        addr: "127.0.0.1:0".into(),
        coordinator: coordinator.into(),
        worker_id: id.into(),
        threads,
        queue_depth,
        heartbeat_interval: Duration::from_millis(50),
        ..WorkerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn()
}

fn wait_workers(addr: &str, n: usize) {
    kecss_server::client::wait_for_live_workers(addr, n, POLL, Duration::from_secs(30))
        .unwrap_or_else(|e| panic!("{n} workers never registered: {e}"));
}

fn submit_line(client: &mut Client, line: &str) -> u64 {
    let Request::Submit(spec) = Request::parse(line).unwrap() else {
        panic!("not a SUBMIT line: {line}")
    };
    client
        .submit(&spec)
        .unwrap()
        .unwrap_or_else(|depth| panic!("unexpected BUSY (depth {depth}) for {line}"))
}

/// The byte oracle: what the pure job runner produces for this spec.
fn oracle(line: &str) -> Vec<u8> {
    let Request::Submit(spec) = Request::parse(line).unwrap() else {
        panic!("not a SUBMIT line: {line}")
    };
    kecss_server::job::run(&spec, &Executor::Sequential).expect("oracle spec solves")
}

/// Shuts a worker down through its own serving port (fleet workers answer the
/// full standalone protocol, SHUTDOWN included).
fn stop_worker(handle: kecss_server::WorkerHandle) {
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn fleet_serves_jobs_with_payloads_identical_to_the_pure_runner() {
    let coordinator = spawn_coordinator(32, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let w1 = spawn_worker(&addr, "fleet-a", 2, 8);
    let w2 = spawn_worker(&addr, "fleet-b", 2, 8);
    wait_workers(&addr, 2);

    // A mixed batch across both workers, each spec submitted twice from
    // separate connections — duplicates must agree and match the oracle.
    let specs: Vec<String> = [1u64, 2, 3]
        .iter()
        .flat_map(|seed| {
            vec![
                format!("SUBMIT ring:20 2 2ecss auto {seed}"),
                format!("SUBMIT harary:12:9 3 kecss auto {seed}"),
            ]
        })
        .collect();
    let results: Vec<(String, Vec<u8>, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|line| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut a = Client::connect(&addr).unwrap();
                    let mut b = Client::connect(&addr).unwrap();
                    let id_a = submit_line(&mut a, line);
                    let id_b = submit_line(&mut b, line);
                    let bytes_a = a.wait_result(id_a, POLL, DEADLINE).unwrap();
                    let bytes_b = b.wait_result(id_b, POLL, DEADLINE).unwrap();
                    (line.clone(), bytes_a, bytes_b)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (line, a, b) in &results {
        assert_eq!(a, b, "duplicate submissions of '{line}' must agree");
        assert_eq!(a, &oracle(line), "'{line}' differs from the pure runner");
    }

    // The FLEET text sees both workers live and all jobs accounted for.
    let mut control = Client::connect(&addr).unwrap();
    let fleet = control.fleet_status().unwrap();
    assert!(fleet.contains("workers 2 live 2"), "{fleet}");
    assert!(fleet.contains("worker fleet-a "), "{fleet}");
    assert!(fleet.contains("worker fleet-b "), "{fleet}");
    assert!(
        fleet.contains(&format!(
            "jobs submitted {} completed {}",
            2 * specs.len(),
            2 * specs.len()
        )),
        "{fleet}"
    );

    control.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.submitted, 2 * specs.len() as u64);
    assert_eq!(summary.completed, 2 * specs.len() as u64);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.retries, 0);
    stop_worker(w1);
    stop_worker(w2);
}

/// A scripted worker that registers once, accepts the first `SUBMIT` with
/// `OK 1 QUEUED`, then closes the connection and never beats again — the
/// cleanest reproducible "worker died mid-job" scenario. Returns its id.
fn doomed_worker(coordinator: &str) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let id = format!("doomed-{}", listener.local_addr().unwrap().port());
    let mut beat = Client::connect(coordinator).unwrap();
    let word = beat.heartbeat(&id, &addr).unwrap();
    assert_eq!(word, "REGISTERED");
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut line = String::new();
            if reader.read_line(&mut line).is_ok() && line.starts_with("SUBMIT") {
                let mut stream = stream;
                let _ = stream.write_all(b"OK 1 QUEUED\n");
            }
            // Dropping the stream here severs the dispatch mid-poll: the
            // coordinator's next RESULT read sees EOF and charges a loss.
        }
    });
    id
}

#[test]
fn a_job_on_a_dying_worker_retries_on_a_survivor_with_identical_bytes() {
    // Tight heartbeat timeout so the dead scripted worker is swept quickly
    // even when the loss is noticed by the sweep rather than the dispatch.
    let coordinator = spawn_coordinator(8, Duration::from_millis(400));
    let addr = coordinator.addr().to_string();

    // Only the doomed worker is registered at submission time, so the job is
    // guaranteed to be assigned to it first.
    let doomed = doomed_worker(&addr);
    wait_workers(&addr, 1);

    let line = "SUBMIT ring:20 2 2ecss auto 11";
    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, line);

    // The doomed worker accepts the job and dies; with no live workers left
    // the job re-queues and waits. Then a real worker arrives and the retry
    // lands there.
    let survivor = spawn_worker(&addr, "survivor", 1, 4);
    let payload = client.wait_result(id, POLL, DEADLINE).unwrap();
    assert_eq!(
        payload,
        oracle(line),
        "a retried job must produce the exact standalone bytes"
    );

    // The loss is visible end to end: a charged retry, a dead worker in the
    // FLEET text, and the retry counter in METRICS.
    let fleet = client.fleet_status().unwrap();
    assert!(fleet.contains(&format!("worker {doomed} ")), "{fleet}");
    assert!(fleet.contains("dead"), "{fleet}");
    assert!(fleet.contains("worker survivor "), "{fleet}");
    let metrics = client.metrics().unwrap();
    let retries: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("fleet_job_retries_total "))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0);
    assert!(retries >= 1, "no retry recorded:\n{metrics}");

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 0);
    assert!(summary.retries >= 1, "{summary:?}");
    stop_worker(survivor);
}

#[test]
fn busy_workers_back_off_without_charging_the_retry_budget() {
    let coordinator = spawn_coordinator(16, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    // One worker, depth 1: concurrent dispatches beyond the first bounce with
    // BUSY and must re-queue (back-off), not retry or fail.
    let worker = spawn_worker(&addr, "narrow", 1, 1);
    wait_workers(&addr, 1);

    let mut client = Client::connect(&addr).unwrap();
    let lines: Vec<String> = (1u64..=4)
        .map(|seed| format!("SUBMIT ring:20 2 2ecss auto {seed}"))
        .collect();
    let ids: Vec<u64> = lines.iter().map(|l| submit_line(&mut client, l)).collect();
    for (id, line) in ids.iter().zip(&lines) {
        let payload = client.wait_result(*id, POLL, DEADLINE).unwrap();
        assert_eq!(
            payload,
            oracle(line),
            "'{line}' differs from the pure runner"
        );
    }

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.completed, 4);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.retries, 0, "BUSY back-offs must not charge retries");
    stop_worker(worker);
}

#[test]
fn a_fleet_with_no_workers_queues_jobs_until_one_registers() {
    let coordinator = spawn_coordinator(4, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let line = "SUBMIT ring:20 2 2ecss auto 21";

    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, line);
    // No workers: the job sits QUEUED (observable over STATUS).
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(client.status(id).unwrap(), "QUEUED");

    let worker = spawn_worker(&addr, "late", 1, 4);
    let payload = client.wait_result(id, POLL, DEADLINE).unwrap();
    assert_eq!(payload, oracle(line));

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.retries, 0);
    stop_worker(worker);
}

#[test]
fn cancelling_a_queued_fleet_job_works_like_the_standalone_server() {
    // No workers registered, so a submitted job stays QUEUED and cancellable.
    let coordinator = spawn_coordinator(4, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, "SUBMIT ring:20 2 2ecss auto 31");
    client
        .cancel(id)
        .expect("a queued fleet job is cancellable");
    assert_eq!(client.status(id).unwrap(), "CANCELLED");
    match client.result(id) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains(&format!("job {id} was cancelled")), "{msg}");
        }
        other => panic!("RESULT of a cancelled job must be an ERR, got {other:?}"),
    }
    assert!(client.cancel(id).is_err(), "cancelling twice is an error");

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.completed, 0);
}

/// Sends one raw text request line and returns the raw reply bytes: the
/// reply line, plus the payload a `RESULT <id> <len>` line announces.
fn raw_request(reader: &mut BufReader<TcpStream>, line: &str) -> Vec<u8> {
    reader
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let mut bytes = reply.clone().into_bytes();
    if let Some(len) = reply.strip_prefix("RESULT ").and_then(|rest| {
        let (_id, len) = rest.trim_end().split_once(' ')?;
        len.parse::<usize>().ok()
    }) {
        let mut payload = vec![0; len];
        reader.read_exact(&mut payload).unwrap();
        bytes.extend_from_slice(&payload);
    }
    bytes
}

/// The request script both roles answer: unknown ids, a finished job fetched
/// twice and cancelled, and a failing job. Returns every reply, in order.
fn parity_replies(addr: &str) -> Vec<Vec<u8>> {
    let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
    let mut replies = Vec::new();
    let mut send = |line: &str| replies.push(raw_request(&mut conn, line));
    send("STATUS 99");
    send("RESULT 99");
    send("CANCEL 99");
    send("RESULT WAIT 99");
    send("SUBMIT ring:20 2 2ecss auto 1");
    // Wait for the job outside the recorded script: the intermediate states a
    // poll observes depend on timing (and ASSIGNED is fleet-only).
    let mut probe = BufReader::new(TcpStream::connect(addr).unwrap());
    while raw_request(&mut probe, "STATUS 1") != b"OK 1 DONE\n" {
        std::thread::sleep(POLL);
    }
    send("STATUS 1");
    send("RESULT 1");
    send("RESULT 1");
    send("CANCEL 1");
    send("SUBMIT inline:4:0-1-1,1-2-1,2-3-1,3-0-1 3 kecss auto 1");
    send("RESULT WAIT 2");
    send("RESULT 2");
    send("CANCEL 2");
    send("STATUS 2");
    send("SHUTDOWN");
    replies
}

#[test]
fn standalone_and_coordinator_answer_the_same_bytes() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let server = server.spawn();
    let server_addr = server.addr().to_string();

    // The fleet verbs are refused by a standalone server.
    let mut conn = BufReader::new(TcpStream::connect(&server_addr).unwrap());
    for line in ["HEARTBEAT w1 127.0.0.1:9", "FLEET"] {
        let reply = String::from_utf8(raw_request(&mut conn, line)).unwrap();
        assert!(
            reply.starts_with("ERR not a fleet coordinator"),
            "{line}: {reply}"
        );
    }
    let solo = parity_replies(&server_addr);
    server.join();

    let coordinator = spawn_coordinator(16, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let worker = spawn_worker(&addr, "parity", 1, 16);
    wait_workers(&addr, 1);
    let fleet = parity_replies(&addr);
    coordinator.join();
    stop_worker(worker);

    let text = |replies: &[Vec<u8>]| -> Vec<String> {
        replies
            .iter()
            .map(|r| String::from_utf8_lossy(r).into_owned())
            .collect()
    };
    assert_eq!(text(&solo), text(&fleet));
    assert!(text(&solo)[0].starts_with("ERR unknown job 99"), "{solo:?}");
    assert!(text(&solo)[7].starts_with("GONE 1"), "{solo:?}");
    assert!(
        text(&solo)[10].starts_with("ERR job 2 failed: "),
        "{solo:?}"
    );
}

/// Runs `lines` through a fleet of `workers` workers and returns the payloads
/// in submission order.
fn run_fleet(lines: &[String], workers: usize) -> Vec<Vec<u8>> {
    let coordinator = spawn_coordinator(lines.len().max(1), Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let handles: Vec<_> = (0..workers)
        .map(|i| spawn_worker(&addr, &format!("prop-{i}"), 1, 4))
        .collect();
    wait_workers(&addr, workers);
    let mut client = Client::connect(&addr).unwrap();
    let ids: Vec<u64> = lines.iter().map(|l| submit_line(&mut client, l)).collect();
    let payloads = ids
        .iter()
        .map(|id| client.wait_result(*id, POLL, DEADLINE).unwrap())
        .collect();
    client.shutdown().unwrap();
    coordinator.join();
    for handle in handles {
        stop_worker(handle);
    }
    payloads
}

proptest! {
    // Each case spins three servers twice; a handful of cases is plenty.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The determinism property from DESIGN.md §13: fleet size never changes
    /// a payload byte. A 1-worker fleet, a 3-worker fleet and the pure runner
    /// agree bit-exactly on every spec and seed.
    #[test]
    fn fleet_payloads_are_identical_across_worker_counts(
        n in 12usize..24,
        seed in 0u64..1_000,
    ) {
        let lines = vec![
            format!("SUBMIT ring:{n} 2 2ecss auto {seed}"),
            format!("SUBMIT harary:{n}:9 3 kecss auto {seed}"),
        ];
        let solo = run_fleet(&lines, 1);
        let trio = run_fleet(&lines, 3);
        for (i, line) in lines.iter().enumerate() {
            prop_assert_eq!(&solo[i], &trio[i], "'{}' differs across fleet sizes", line);
            prop_assert_eq!(&solo[i], &oracle(line), "'{}' differs from the pure runner", line);
        }
    }
}
