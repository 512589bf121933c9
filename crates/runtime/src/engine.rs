//! A parallel CONGEST round engine with the *exact* semantics of
//! [`congest::Network::run`].
//!
//! # How it parallelizes
//!
//! Nodes within a synchronous round are independent by definition (they read
//! the messages delivered at the start of the round and their own state), so
//! the engine steps the vertex range in fixed contiguous chunks, one
//! persistent worker per chunk, all living inside a single
//! [`std::thread::scope`]. The round loop is a strict
//! barrier-synchronized BSP schedule:
//!
//! 1. the coordinator carves the double-buffered inbox vector into per-chunk
//!    slices and hands each worker its chunk's inboxes for the round;
//! 2. each worker steps its chunk through [`congest::Network::step_range`],
//!    the routine the sequential executor runs over all vertices (sort each
//!    inbox by sender id, step the live nodes in vertex order, validate the
//!    CONGEST constraints, count the messages), and returns its outgoing
//!    messages plus its message statistics;
//! 3. the coordinator merges the workers' results **in chunk order** — which
//!    equals vertex order — into the next round's inboxes and into the
//!    [`RunReport`].
//!
//! Inbox vectors are *recycled* between rounds: `step_range` clears the
//! chunk's inboxes as it steps, the worker sends the (capacity-retaining)
//! vectors back with its round result, and the coordinator restores them
//! into the double buffer before refilling. This removes the per-round
//! allocation churn the E10a measurement attributed most of the engine's
//! ~1.7x message-heavy overhead to; it moves only capacity, never contents,
//! so determinism is unaffected.
//!
//! # Why the result is bit-identical to the sequential executor
//!
//! * Chunks are contiguous and merged in chunk order, so the next round's
//!   inbox of every vertex receives messages in exactly the order the
//!   sequential loop (`for v in 0..n`) would have pushed them; the stable
//!   per-inbox sort by sender id then yields identical delivery order.
//! * Statistics are sums and maxima merged in chunk order — order-independent
//!   anyway, but deterministic regardless of thread count.
//! * Errors: the coordinator collects every chunk's result for the round and
//!   keeps the error of the lowest chunk (workers report the first offending
//!   vertex/message of their chunk in order), which is precisely the error
//!   the sequential executor would have hit first. On error the whole run is
//!   discarded, exactly like [`congest::Network::run`].
//! * Termination: the loop condition (`some node live` or `some inbox
//!   non-empty`) and the `max_rounds` check are evaluated identically.

use crate::executor::Executor;
use congest::{Incoming, Network, NetworkError, NodeProgram, Outcome, RunReport};
use graphs::NodeId;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Coordinator → worker commands.
enum ToWorker {
    /// Step round `round` (0 = the init round) with the given per-vertex
    /// inboxes for the worker's chunk.
    Round {
        round: u64,
        inboxes: Vec<Vec<Incoming>>,
    },
    /// The run is over (normally or on error): return the program states.
    Finish,
}

/// One worker's contribution to one round.
struct ChunkRound {
    /// `(recipient, message)` pairs in deterministic order: sending vertex
    /// order within the chunk, send order within a vertex.
    outgoing: Vec<(NodeId, Incoming)>,
    /// Message statistics of this chunk for this round (`rounds` stays 0; the
    /// coordinator owns the round counter).
    stats: RunReport,
    /// Number of not-yet-terminated nodes left in this chunk.
    active: usize,
    /// The drained (cleared, capacity-retaining) inbox vectors of this
    /// chunk's vertex range, handed back so the coordinator can refill them
    /// next round instead of allocating fresh ones. Recycling only moves
    /// capacity around — contents and ordering are unaffected, so the
    /// bit-identical-to-sequential guarantee is untouched (EXPERIMENTS.md
    /// E10a measured ~1.7x per-round overhead before this reuse).
    recycled: Vec<Vec<Incoming>>,
}

/// Runs one program per vertex of `net` until all have terminated or
/// `max_rounds` is reached, using `exec` to parallelize each round.
///
/// [`Executor::Sequential`] (or a thread count of 1, or a network too small
/// to split) delegates to [`congest::Network::run`]; `Threaded(n)` produces
/// bit-identical [`Outcome`] states and [`RunReport`]s — see the module docs
/// for the argument.
///
/// # Errors
///
/// Exactly the conditions of [`congest::Network::run`]: wrong program count,
/// CONGEST violations (non-neighbor send, word-budget overflow) or exceeding
/// `max_rounds`.
pub fn run<P>(
    net: &Network,
    programs: Vec<P>,
    max_rounds: u64,
    exec: &Executor,
) -> Result<Outcome<P>, NetworkError>
where
    P: NodeProgram + Send,
{
    let n = net.n();
    if programs.len() != n {
        return Err(NetworkError::WrongProgramCount {
            got: programs.len(),
            expected: n,
        });
    }
    let threads = exec.threads().min(n.max(1));
    if threads <= 1 {
        return net.run(programs, max_rounds);
    }
    run_threaded(net, programs, max_rounds, threads)
}

fn run_threaded<P>(
    net: &Network,
    programs: Vec<P>,
    max_rounds: u64,
    threads: usize,
) -> Result<Outcome<P>, NetworkError>
where
    P: NodeProgram + Send,
{
    let n = net.n();
    let chunk_len = n.div_ceil(threads);

    // Fixed contiguous chunking of the program vector (ownership moves into
    // the workers; it comes back through the join handles).
    let mut chunks: Vec<Vec<P>> = Vec::new();
    let mut rest = programs;
    while rest.len() > chunk_len {
        let tail = rest.split_off(chunk_len);
        chunks.push(rest);
        rest = tail;
    }
    chunks.push(rest);

    std::thread::scope(|scope| {
        let mut to_workers: Vec<Sender<ToWorker>> = Vec::with_capacity(chunks.len());
        let mut from_workers = Vec::with_capacity(chunks.len());
        let mut handles = Vec::with_capacity(chunks.len());
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(chunks.len());
        let mut base = 0;
        for chunk in chunks {
            let (tx_cmd, rx_cmd) = channel::<ToWorker>();
            let (tx_res, rx_res) = channel::<Result<ChunkRound, NetworkError>>();
            ranges.push(base..base + chunk.len());
            let chunk_base = base;
            base += chunk.len();
            handles.push(scope.spawn(move || worker(net, chunk_base, chunk, rx_cmd, tx_res)));
            to_workers.push(tx_cmd);
            from_workers.push(rx_res);
        }

        let driven = drive(n, max_rounds, &to_workers, &from_workers, &ranges);

        // Normal end or error: release the workers and get the states back.
        for tx in &to_workers {
            let _ = tx.send(ToWorker::Finish);
        }
        let mut nodes = Vec::with_capacity(n);
        for handle in handles {
            nodes.extend(handle.join().expect("engine worker panicked"));
        }
        driven.map(|report| Outcome { nodes, report })
    })
}

/// The coordinator's round loop. Returns the final [`RunReport`] or the first
/// error in sequential (vertex) order.
fn drive(
    n: usize,
    max_rounds: u64,
    to_workers: &[Sender<ToWorker>],
    from_workers: &[Receiver<Result<ChunkRound, NetworkError>>],
    ranges: &[Range<usize>],
) -> Result<RunReport, NetworkError> {
    let mut report = RunReport::default();
    // pending[v] = messages to deliver to v at the start of the next round
    // (the second half of the double buffer; the first half lives in the
    // workers' per-round inbox vectors).
    let mut pending: Vec<Vec<Incoming>> = vec![Vec::new(); n];

    // Initialization "round zero": no inbox, typically only initiators act.
    let mut live = exchange(
        0,
        &mut pending,
        &mut report,
        to_workers,
        from_workers,
        ranges,
    )?;

    while live > 0 || pending.iter().any(|p| !p.is_empty()) {
        if report.rounds >= max_rounds {
            return Err(NetworkError::RoundLimitExceeded { limit: max_rounds });
        }
        report.rounds += 1;
        live = exchange(
            report.rounds,
            &mut pending,
            &mut report,
            to_workers,
            from_workers,
            ranges,
        )?;
    }
    Ok(report)
}

/// Runs one synchronous round across all workers: scatter the pending
/// inboxes, collect every chunk's result, merge in chunk order. Returns the
/// total number of live (not terminated) nodes.
fn exchange(
    round: u64,
    pending: &mut [Vec<Incoming>],
    report: &mut RunReport,
    to_workers: &[Sender<ToWorker>],
    from_workers: &[Receiver<Result<ChunkRound, NetworkError>>],
    ranges: &[Range<usize>],
) -> Result<usize, NetworkError> {
    for (tx, range) in to_workers.iter().zip(ranges) {
        let inboxes: Vec<Vec<Incoming>> = pending[range.clone()]
            .iter_mut()
            .map(std::mem::take)
            .collect();
        // A send failure means the worker panicked; the recv below surfaces it.
        let _ = tx.send(ToWorker::Round { round, inboxes });
    }
    let mut first_error: Option<NetworkError> = None;
    let mut live = 0;
    // Every worker must be drained even after an error so the barrier stays
    // aligned; chunk order guarantees the kept error is the sequential one.
    for (rx, range) in from_workers.iter().zip(ranges) {
        match rx.recv() {
            Ok(Ok(chunk)) => {
                if first_error.is_none() {
                    // Put the chunk's drained inbox vectors back into their
                    // `pending` slots so next round refills them in place
                    // (buffer reuse). Earlier chunks may already have pushed
                    // messages for these vertices this round; `append` moves
                    // them into the recycled buffer without reordering.
                    for (slot, mut buf) in pending[range.clone()].iter_mut().zip(chunk.recycled) {
                        debug_assert!(buf.is_empty(), "recycled inboxes arrive cleared");
                        buf.append(slot);
                        *slot = buf;
                    }
                    for (to, incoming) in chunk.outgoing {
                        pending[to].push(incoming);
                    }
                    report.merge(&chunk.stats);
                    live += chunk.active;
                }
            }
            Ok(Err(e)) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            Err(_) => panic!("engine worker disconnected"),
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(live),
    }
}

/// A persistent chunk worker: owns the program states and done-flags of its
/// contiguous vertex range for the whole run, and steps them through
/// [`Network::step_range`] — the same routine the sequential executor uses.
fn worker<P: NodeProgram>(
    net: &Network,
    base: usize,
    mut programs: Vec<P>,
    rx: Receiver<ToWorker>,
    tx: Sender<Result<ChunkRound, NetworkError>>,
) -> Vec<P> {
    let mut done = vec![false; programs.len()];
    // Maintained incrementally: the coordinator only needs the count.
    let mut live = programs.len();
    while let Ok(ToWorker::Round { round, mut inboxes }) = rx.recv() {
        let mut outgoing = Vec::new();
        let mut stats = RunReport::default();
        let reply = net
            .step_range(
                base,
                &mut programs,
                &mut done,
                &mut inboxes,
                round,
                &mut stats,
                |to, incoming| outgoing.push((to, incoming)),
            )
            .map(|halted| {
                live -= halted;
                // step_range drained the inboxes in place, so their
                // allocations survive the round trip back.
                ChunkRound {
                    outgoing,
                    stats,
                    active: live,
                    recycled: inboxes,
                }
            });
        if tx.send(reply).is_err() {
            break; // The coordinator is gone (it panicked); stop quietly.
        }
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::programs::bfs::DistributedBfs;
    use congest::programs::flood::FloodMinElection;
    use congest::{Message, NodeContext, Outgoing, StepResult};
    use graphs::generators;

    fn assert_matches_sequential<P>(net: &Network, make: impl Fn() -> Vec<P>, max_rounds: u64)
    where
        P: NodeProgram + Send + PartialEq + std::fmt::Debug,
    {
        let expected = net.run(make(), max_rounds).expect("sequential run");
        for threads in [2, 3, 8] {
            let exec = Executor::from_threads(threads);
            let got = run(net, make(), max_rounds, &exec).expect("threaded run");
            assert_eq!(got.report, expected.report, "t = {threads}");
            assert_eq!(got.nodes, expected.nodes, "t = {threads}");
        }
    }

    #[test]
    fn flood_election_is_bit_identical() {
        let g = generators::cycle(23, 1);
        let net = Network::new(&g);
        assert_matches_sequential(&net, || FloodMinElection::programs(g.n()), 100);
    }

    #[test]
    fn bfs_is_bit_identical() {
        let g = generators::torus(5, 6, 1);
        let net = Network::new(&g);
        assert_matches_sequential(&net, || DistributedBfs::programs(&g, 7), 200);
    }

    #[test]
    fn wrong_program_count_is_rejected() {
        let g = generators::path(4, 1);
        let net = Network::new(&g);
        let exec = Executor::from_threads(2);
        let err = run(&net, Vec::<FloodMinElection>::new(), 10, &exec).unwrap_err();
        assert_eq!(
            err,
            NetworkError::WrongProgramCount {
                got: 0,
                expected: 4
            }
        );
    }

    struct NeverHalts;
    impl NodeProgram for NeverHalts {
        fn step(&mut self, _: &NodeContext, _: u64, _: &[Incoming]) -> StepResult {
            StepResult::idle()
        }
    }

    #[test]
    fn round_limit_matches_sequential() {
        let g = generators::path(5, 1);
        let net = Network::new(&g);
        let exec = Executor::from_threads(3);
        let err = run(
            &net,
            vec![NeverHalts, NeverHalts, NeverHalts, NeverHalts, NeverHalts],
            7,
            &exec,
        )
        .unwrap_err();
        assert_eq!(err, NetworkError::RoundLimitExceeded { limit: 7 });
    }

    /// Vertex `id == culprit` sends an oversized message in round 1; every
    /// other vertex chats normally forever (halting at round 3).
    struct Misbehaves {
        culprit: NodeId,
    }
    impl NodeProgram for Misbehaves {
        fn step(&mut self, ctx: &NodeContext, round: u64, _: &[Incoming]) -> StepResult {
            let mut out = Vec::new();
            if round == 1 && ctx.id == self.culprit {
                out.push(Outgoing::new(ctx.neighbors[0].0, Message::new(vec![0; 64])));
            } else if !ctx.neighbors.is_empty() {
                out.push(Outgoing::new(ctx.neighbors[0].0, Message::from(round)));
            }
            if round >= 3 {
                StepResult::send_and_halt(out)
            } else {
                StepResult::send(out)
            }
        }
    }

    #[test]
    fn first_error_in_vertex_order_wins() {
        // Two culprits in different chunks: the sequential executor reports
        // the lower vertex id; so must every threaded configuration. Run the
        // sequential executor once as ground truth, then compare.
        let g = generators::cycle(12, 1);
        let net = Network::new(&g);
        let make = || {
            (0..12)
                .map(|_| Misbehaves { culprit: 9 })
                .collect::<Vec<_>>()
        };
        let expected = net.run(make(), 100).unwrap_err();
        assert!(matches!(
            expected,
            NetworkError::MessageTooLarge { from: 9, .. }
        ));
        for threads in [2, 4, 8] {
            let exec = Executor::from_threads(threads);
            let got = run(&net, make(), 100, &exec).unwrap_err();
            assert_eq!(got, expected, "t = {threads}");
        }
    }

    struct SendsToStranger;
    impl NodeProgram for SendsToStranger {
        fn init(&mut self, ctx: &NodeContext) -> StepResult {
            if ctx.id == 2 {
                StepResult::send_and_halt(vec![Outgoing::new(0, Message::empty())])
            } else {
                StepResult::halt()
            }
        }
        fn step(&mut self, _: &NodeContext, _: u64, _: &[Incoming]) -> StepResult {
            StepResult::halt()
        }
    }

    #[test]
    fn init_round_errors_are_reported() {
        let g = generators::path(4, 1); // 0-1-2-3: vertex 2 is not adjacent to 0.
        let net = Network::new(&g);
        let exec = Executor::from_threads(2);
        let err = run(
            &net,
            vec![
                SendsToStranger,
                SendsToStranger,
                SendsToStranger,
                SendsToStranger,
            ],
            10,
            &exec,
        )
        .unwrap_err();
        assert_eq!(err, NetworkError::NotANeighbor { from: 2, to: 0 });
    }

    #[test]
    fn more_threads_than_vertices_degrades_gracefully() {
        let g = generators::path(3, 1);
        let net = Network::new(&g);
        let expected = net.run(FloodMinElection::programs(3), 50).unwrap();
        let exec = Executor::from_threads(16);
        let got = run(&net, FloodMinElection::programs(3), 50, &exec).unwrap();
        assert_eq!(got.nodes, expected.nodes);
        assert_eq!(got.report, expected.report);
    }
}
