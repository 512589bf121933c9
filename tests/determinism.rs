//! The workspace determinism suite (DESIGN.md §8, §9).
//!
//! The `kecss_runtime` parallel engine promises that `Threaded(n)` produces
//! **bit-identical** `Outcome` states and `RunReport`s to `Sequential` for
//! every simulator program, and that parallel `Aug_k` cut verification agrees
//! exactly with the sequential enumeration. This suite asserts both across
//! every `congest::programs` program (flood, bfs, collective, boruvka,
//! circulation) on seeded random graphs, plus a property test for the cut
//! machinery, plus the service-layer promise: result payloads produced by the
//! `kecss_server` scheduler under concurrent submission are byte-identical to
//! the same jobs run sequentially through `kecss::solve`.

use congest::programs::bfs::DistributedBfs;
use congest::programs::boruvka::DistributedBoruvka;
use congest::programs::circulation::CirculationLabeling;
use congest::programs::collective::{local_trees, PipelinedBroadcast, SumConvergecast};
use congest::programs::flood::FloodMinElection;
use congest::{CostModel, Network, NodeProgram};
use graphs::{bfs, generators, mst, RootedTree};
use kecss::cuts::{
    AutoEnumerator, CutEnumerator, ExactEnumerator, LabelEnumerator, MinCutEnumerator,
};
use kecss_runtime::{engine, Executor};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The thread counts the suite checks against the sequential executor.
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Runs `make()` through the sequential executor and through
/// `Threaded(2|4|8)`, asserting bit-identical program states and reports.
fn assert_deterministic<P>(label: &str, net: &Network, make: impl Fn() -> Vec<P>, max_rounds: u64)
where
    P: NodeProgram + Send + PartialEq + std::fmt::Debug,
{
    let sequential = net
        .run(make(), max_rounds)
        .unwrap_or_else(|e| panic!("{label}: sequential run failed: {e}"));
    for threads in THREAD_COUNTS {
        let exec = Executor::from_threads(threads);
        let parallel = engine::run(net, make(), max_rounds, &exec)
            .unwrap_or_else(|e| panic!("{label}: Threaded({threads}) run failed: {e}"));
        assert_eq!(
            parallel.report, sequential.report,
            "{label}: Threaded({threads}) report differs"
        );
        assert_eq!(
            parallel.nodes, sequential.nodes,
            "{label}: Threaded({threads}) states differ"
        );
    }
}

/// Seeded random graphs of a few shapes and sizes.
fn test_graphs() -> Vec<(String, graphs::Graph)> {
    let mut out = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 20 + 13 * seed as usize;
        let g = generators::random_k_edge_connected(n, 2, n, &mut rng);
        out.push((format!("random(n={n}, seed={seed})"), g));
    }
    out.push(("torus(6x7)".into(), generators::torus(6, 7, 1)));
    out.push((
        "ring_of_cliques".into(),
        generators::ring_of_cliques(6, 5, 2, 1),
    ));
    out
}

#[test]
fn flood_is_bit_identical_across_thread_counts() {
    for (label, g) in test_graphs() {
        let net = Network::new(&g);
        assert_deterministic(
            &format!("flood on {label}"),
            &net,
            || FloodMinElection::programs(g.n()),
            10 * g.n() as u64,
        );
    }
}

#[test]
fn bfs_is_bit_identical_across_thread_counts() {
    for (label, g) in test_graphs() {
        let net = Network::new(&g);
        assert_deterministic(
            &format!("bfs on {label}"),
            &net,
            || DistributedBfs::programs(&g, 0),
            10 * g.n() as u64,
        );
    }
}

#[test]
fn collective_broadcast_and_convergecast_are_bit_identical() {
    for (label, g) in test_graphs() {
        let net = Network::new(&g);
        let tree = RootedTree::new(&g, &mst::kruskal(&g), 0);
        let trees = local_trees(&tree, g.n());
        let items: Vec<u64> = (0..10).map(|i| 100 + i).collect();
        assert_deterministic(
            &format!("pipelined broadcast on {label}"),
            &net,
            || PipelinedBroadcast::programs(&trees, items.clone()),
            10 * (g.n() as u64 + items.len() as u64),
        );
        let values: Vec<u64> = (0..g.n() as u64).map(|v| v * v + 1).collect();
        assert_deterministic(
            &format!("sum convergecast on {label}"),
            &net,
            || SumConvergecast::programs(&trees, &values),
            10 * g.n() as u64,
        );
    }
}

#[test]
fn boruvka_is_bit_identical_across_thread_counts() {
    for (label, g) in test_graphs() {
        let net = Network::new(&g);
        let budget = DistributedBoruvka::round_budget(&g) + 10;
        assert_deterministic(
            &format!("boruvka on {label}"),
            &net,
            || DistributedBoruvka::programs(&g),
            budget,
        );
    }
}

#[test]
fn circulation_labelling_is_bit_identical_across_thread_counts() {
    for (label, g) in test_graphs() {
        let h = g.full_edge_set();
        let bfs_tree = bfs::bfs(&g, 0);
        let tree = RootedTree::new(&g, &bfs_tree.tree_edges(&g), 0);
        let net = Network::new(&g);
        assert_deterministic(
            &format!("circulation on {label}"),
            &net,
            || CirculationLabeling::programs(&g, &h, &tree, 64, 0xD0D0),
            10_000,
        );
    }
}

/// The small seeded graph shapes the enumerator-agreement proptests draw
/// from: random, ring-of-cliques, torus and Harary instances.
fn agreement_graph(shape: u8, seed: u64) -> (&'static str, graphs::Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match shape % 4 {
        0 => (
            "random",
            generators::random_k_edge_connected(8 + (seed % 5) as usize, 2, 4, &mut rng),
        ),
        1 => ("ring", generators::ring_of_cliques(3, 4, 2, 1)),
        2 => ("torus", generators::torus(3, 3, 1)),
        _ => ("harary", generators::harary(3, 8, 1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The general label enumerator and the minimum-cut enumerator agree
    /// with the legacy size-1..=3 specializations on seeded
    /// random/ring/torus/harary graphs. Label reports exactly the induced
    /// cuts of each size; the minimum-cut enumerator does so up to `λ(H)`
    /// and rejects sizes above it.
    #[test]
    fn general_enumerators_agree_with_exact_specializations(
        shape in 0u8..4,
        seed in 0u64..500,
        size in 1usize..=3,
    ) {
        let (label, g) = agreement_graph(shape, seed);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let exact = ExactEnumerator.cuts(&g, &h, size, 0, &exec).unwrap();
        let by_label = LabelEnumerator::default().cuts(&g, &h, size, 0, &exec).unwrap();
        prop_assert_eq!(&by_label, &exact, "label vs exact on {} size {}", label, size);
        let by_min_cuts = MinCutEnumerator.cuts(&g, &h, size, 0, &exec);
        if size <= graphs::connectivity::edge_connectivity(&g) {
            prop_assert_eq!(
                &by_min_cuts.unwrap(), &exact, "mincut vs exact on {} size {}", label, size
            );
        } else {
            prop_assert!(
                matches!(by_min_cuts, Err(kecss::Error::InvalidCutRequest { .. })),
                "mincut above λ on {} size {}", label, size
            );
        }
    }

    /// `Threaded(4)` enumeration is bit-identical to `Sequential` for every
    /// strategy, including the new general ones at size 4.
    #[test]
    fn threaded_enumeration_is_bit_identical(shape in 0u8..4, seed in 0u64..500) {
        let (label, g) = agreement_graph(shape, seed);
        let h = g.full_edge_set();
        let threaded = Executor::from_threads(4);
        for size in 1..=4usize {
            let enumerators: [&dyn CutEnumerator; 2] =
                [&LabelEnumerator::default(), &MinCutEnumerator];
            for e in enumerators {
                // The minimum-cut enumerator rejects sizes above λ(H); the
                // rejection must match too.
                let sequential = e.cuts(&g, &h, size, 0, &Executor::Sequential);
                let parallel = e.cuts(&g, &h, size, 0, &threaded);
                prop_assert_eq!(
                    &parallel, &sequential,
                    "{} on {} size {}", e.name(), label, size
                );
            }
        }
    }

    /// `auto` (the minimum-cut enumerator at these sizes) agrees with the
    /// deterministically-complete label enumerator — and hence with the
    /// induced-cut ground truth — for cut sizes 4..=6 in the minimum-cut
    /// regime the `Aug_k` driver calls from (`h` is `size`-edge-connected,
    /// so the size-`size` cuts are exactly the minimum cuts).
    #[test]
    fn min_cut_enumerator_agrees_with_label_ground_truth(
        seed in 0u64..500,
        size in 4usize..=6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Even n: the harary base of the generator needs it for odd size.
        let n = 8 + 2 * (seed % 3) as usize;
        let g = generators::random_k_edge_connected(n, size, 3, &mut rng);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let by_label = LabelEnumerator::default().cuts(&g, &h, size, 0, &exec).unwrap();
        let by_auto = AutoEnumerator.cuts(&g, &h, size, 0, &exec).unwrap();
        prop_assert_eq!(&by_auto, &by_label, "auto vs label, n {} size {}", n, size);
    }

    /// `Threaded(2|4|8)` `auto` enumeration is bit-identical to
    /// `Sequential` across salts: the per-`t` flows run in contiguous ranges
    /// merged in range order and the result is sorted, so worker count
    /// never reaches the bytes (nor does a rejection above `λ(H)`).
    #[test]
    fn threaded_min_cut_enumeration_is_bit_identical(
        shape in 0u8..4,
        seed in 0u64..500,
        salt in 0u64..3,
    ) {
        let (label, g) = agreement_graph(shape, seed);
        let h = g.full_edge_set();
        for size in 3..=4usize {
            let sequential = AutoEnumerator.cuts(&g, &h, size, salt, &Executor::Sequential);
            for threads in THREAD_COUNTS {
                let exec = Executor::from_threads(threads);
                let parallel = AutoEnumerator.cuts(&g, &h, size, salt, &exec);
                prop_assert_eq!(
                    &parallel, &sequential,
                    "auto on {} size {} salt {} t {}", label, size, salt, threads
                );
            }
        }
    }

    /// Parallel and sequential `Aug_k` cut verification agree: the
    /// enumerated cut families are identical for every thread count.
    #[test]
    fn parallel_cut_enumeration_agrees(seed in 0u64..1000, n in 8usize..16) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_k_edge_connected(n, 2, 4, &mut rng);
        let h = g.full_edge_set();
        let sequential = kecss::cuts::cuts_of_size(&g, &h, 2).unwrap();
        for threads in THREAD_COUNTS {
            let exec = Executor::from_threads(threads);
            let parallel = kecss::cuts::cuts_of_size_with(&g, &h, 2, &exec).unwrap();
            prop_assert_eq!(&parallel, &sequential, "t = {}", threads);
        }
    }

    /// N concurrent submissions through the `kecss_server` scheduler produce
    /// byte-identical result payloads to the same jobs run sequentially
    /// through `kecss::solve` (DESIGN.md §9): the scheduler's
    /// worker count and dispatch interleaving never reach the bytes.
    #[test]
    fn concurrent_service_jobs_match_sequential_solves(
        base_seed in 0u64..200,
        jobs in 2usize..6,
    ) {
        use kecss::cuts::EnumeratorPolicy;
        use kecss_server::instance::InstanceSpec;
        use kecss_server::job::{self, Algorithm, JobSpec};
        use kecss_server::scheduler::{Outcome, Scheduler};

        let specs: Vec<JobSpec> = (0..jobs as u64)
            .map(|i| JobSpec {
                instance: InstanceSpec::parse(if i % 2 == 0 { "ring:20" } else { "harary:10:7" })
                    .unwrap(),
                k: 2 + (i % 2) as usize,
                algorithm: Algorithm::KEcss,
                enumerator: EnumeratorPolicy::Auto,
                seed: base_seed + i,
            })
            .collect();

        // Sequential ground truth: build the instance, run the solver through
        // `solve` directly, verify, and encode with the same pure
        // encoder the service uses.
        let expected: Vec<Vec<u8>> = specs
            .iter()
            .map(|spec| {
                let g = spec.instance.build(spec.k, spec.seed).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ job::SOLVER_SEED_SALT);
                let sol = kecss::kecss::solve(&g, spec.k, &mut rng).unwrap();
                prop_assert!(graphs::connectivity::is_k_edge_connected_in(
                    &g, &sol.subgraph, spec.k
                ));
                let payload = job::run(spec, &Executor::Sequential).unwrap();
                // The payload embeds exactly the `solve` solution.
                let text = String::from_utf8(payload.clone()).unwrap();
                prop_assert!(
                    text.contains(&format!(
                        "solution edges={} weight={}",
                        sol.subgraph.len(),
                        sol.weight
                    )),
                    "payload does not embed the solve solution: {}",
                    text
                );
                Ok(payload)
            })
            .collect::<Result<_, String>>()?;

        // Concurrent service run: all jobs in flight at once on 4 workers.
        let scheduler = Scheduler::new(4, specs.len());
        let ids: Vec<u64> = specs
            .iter()
            .map(|spec| scheduler.submit(spec.clone()).unwrap())
            .collect();
        for (spec, (id, want)) in specs.iter().zip(ids.iter().zip(&expected)) {
            match scheduler.wait(*id) {
                Some(Outcome::Done(got)) => prop_assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "spec '{}' diverged under concurrency",
                    spec.canonical()
                ),
                other => {
                    return Err(format!(
                        "job {id} ({}) did not complete: {other:?}",
                        spec.canonical()
                    ))
                }
            }
        }
        scheduler.shutdown();
    }

    /// Observability is strictly out-of-band (DESIGN.md §11): with metric
    /// recording enabled AND a live JSONL trace sink installed, N concurrent
    /// submissions through the scheduler produce result payloads
    /// byte-identical to an uninstrumented (recording disabled) sequential
    /// oracle. Counters, histograms and spans never reach the bytes.
    #[test]
    fn instrumented_concurrent_jobs_match_uninstrumented_sequential_oracle(
        base_seed in 0u64..200,
        jobs in 2usize..5,
    ) {
        use kecss::cuts::EnumeratorPolicy;
        use kecss_server::instance::InstanceSpec;
        use kecss_server::job::{self, Algorithm, JobSpec};
        use kecss_server::scheduler::{Outcome, Scheduler};
        use std::sync::{Arc, Mutex};

        /// A `Write` handle onto a shared buffer (the sink is consumed by
        /// `install_trace_sink`, so the test keeps the other `Arc`).
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let specs: Vec<JobSpec> = (0..jobs as u64)
            .map(|i| JobSpec {
                instance: InstanceSpec::parse(if i % 2 == 0 { "ring:20" } else { "harary:10:7" })
                    .unwrap(),
                k: 2,
                algorithm: Algorithm::KEcss,
                enumerator: EnumeratorPolicy::Auto,
                seed: base_seed + i,
            })
            .collect();

        // Uninstrumented oracle: recording off, no sink, sequential.
        let was_enabled = kecss_obs::set_enabled(false);
        let expected: Vec<Vec<u8>> = specs
            .iter()
            .map(|spec| job::run(spec, &Executor::Sequential).unwrap())
            .collect();

        // Instrumented run: recording on, trace sink live, 4 workers, all
        // jobs in flight at once.
        kecss_obs::set_enabled(true);
        let buffer = Arc::new(Mutex::new(Vec::new()));
        kecss_obs::install_trace_sink(Box::new(SharedBuf(Arc::clone(&buffer))));
        let scheduler = Scheduler::new(4, specs.len());
        let ids: Vec<u64> = specs
            .iter()
            .map(|spec| scheduler.submit(spec.clone()).unwrap())
            .collect();
        let mut failure = None;
        for (spec, (id, want)) in specs.iter().zip(ids.iter().zip(&expected)) {
            match scheduler.wait(*id) {
                Some(Outcome::Done(got)) => {
                    if got.as_slice() != want.as_slice() && failure.is_none() {
                        failure = Some(format!(
                            "spec '{}' diverged under instrumentation",
                            spec.canonical()
                        ));
                    }
                }
                other => {
                    if failure.is_none() {
                        failure = Some(format!(
                            "job {id} ({}) did not complete: {other:?}",
                            spec.canonical()
                        ));
                    }
                }
            }
        }
        scheduler.shutdown();
        kecss_obs::clear_trace_sink();
        kecss_obs::set_enabled(was_enabled);
        if let Some(message) = failure {
            return Err(message);
        }

        // The instrumentation really was live: the sink streamed span lines.
        let traced = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        prop_assert!(
            traced.lines().any(|l| l.contains("\"type\":\"span\"")),
            "no spans reached the trace sink:\n{}",
            traced
        );
    }

    /// Parallel and sequential `Aug_k` agree end to end for a fixed seed:
    /// the executor only touches pure verification work, never the RNG.
    #[test]
    fn parallel_augmentation_agrees(seed in 0u64..1000) {
        let mut instance_rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_weighted_k_edge_connected(14, 2, 20, 25, &mut instance_rng);
        let h = mst::kruskal(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let sequential = kecss::augk::augment(&g, &h, 2, &mut rng).unwrap();
        for threads in THREAD_COUNTS {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
            let exec = Executor::from_threads(threads);
            let parallel = kecss::augk::augment_with_enumerator(
                &g,
                &h,
                2,
                CostModel::for_graph(&g),
                &mut rng,
                &exec,
                &AutoEnumerator,
            )
            .unwrap();
            prop_assert_eq!(&parallel.added, &sequential.added, "t = {}", threads);
            prop_assert_eq!(parallel.weight, sequential.weight, "t = {}", threads);
            prop_assert_eq!(parallel.iterations, sequential.iterations, "t = {}", threads);
        }
    }
}
