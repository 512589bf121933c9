//! `Aug_k` — augmenting a `(k-1)`-edge-connected subgraph to
//! k-edge-connectivity (Section 4 of the paper, the engine behind
//! Theorem 1.2).
//!
//! The input is a k-edge-connected graph `G` and a `(k-1)`-edge-connected
//! spanning subgraph `H`; the goal is a minimum-weight set of edges `A` such
//! that `H ∪ A` is k-edge-connected, i.e. a set covering every cut of size
//! `k - 1` of `H`.
//!
//! The distributed algorithm follows the framework of Section 2.1 with the
//! "probability guessing" symmetry breaking of Section 4:
//!
//! 1. every edge outside `H ∪ A` computes its rounded cost-effectiveness
//!    (all vertices know `H` and `A`, so this is local);
//! 2. the edges in the maximum class are candidates;
//! 3. each candidate becomes *active* with probability `p_i`, where `p_i`
//!    starts at `1/2^⌈log m⌉` and doubles every `M·⌈log n⌉` iterations (and
//!    resets whenever the maximum class drops);
//! 4. an MST of `G` is computed under the reweighting {edges of `A` → 0,
//!    active candidates → 1, others → 2}; the active candidates that appear
//!    in this MST join `A` (Claims 4.1–4.3 guarantee `A` stays a forest and
//!    every cut coverable by an active candidate gets covered);
//! 5. repeat until every `(k-1)`-cut is covered.
//!
//! The approximation ratio is `O(log n)` in expectation (Lemma 4.6), and the
//! round complexity is `O(D log³ n + n)` (Lemma 4.4): `O(log³ n)` iterations,
//! each costing an MST plus `O(D)` aggregation plus broadcasting the
//! `n_i ≤ n` newly added edges.

use crate::cover::Rounded;
use crate::cuts::{AutoEnumerator, CutEnumerator, CutFamily};
use crate::error::{Error, Result};
use congest::{CostModel, RoundLedger};
use graphs::{connectivity, mst, EdgeId, EdgeSet, Graph};
use kecss_runtime::Executor;
use rand::Rng;

/// The phase-length multiplier `M` of the probability schedule: the activation
/// probability doubles every `M · ⌈log₂ n⌉` iterations at the same
/// cost-effectiveness class. The paper leaves the constant unspecified;
/// `M = 2` keeps the w.h.p. argument of Lemma 4.5 comfortable while bounding
/// iteration counts in practice.
pub const PHASE_MULTIPLIER: u64 = 2;

/// Safety cap on iterations (`O(log³ n)` is expected; the cap flags bugs).
const ITERATION_SAFETY_CAP: u64 = 500_000;

/// How many times the exact post-certification re-enumerates with fresh
/// randomness before giving up with [`Error::IncompleteEnumeration`]. The
/// deterministic enumerators certify on the first attempt; the contraction
/// enumerator doubles its trial count per attempt, so the total work stays
/// bounded while the miss probability vanishes geometrically.
const MAX_ENUMERATION_ATTEMPTS: u64 = 8;

/// The result of one `Aug_k` run.
#[derive(Clone, Debug)]
pub struct AugkSolution {
    /// The edges added to the augmentation (`A`).
    pub added: EdgeSet,
    /// Total weight of `A`.
    pub weight: u64,
    /// Number of candidate/activation iterations executed.
    pub iterations: u64,
    /// Number of `(k-1)`-cuts of `H` that had to be covered.
    pub cuts_covered: usize,
    /// CONGEST rounds charged.
    pub ledger: RoundLedger,
}

/// The geometric "probability guessing" schedule of Section 4.
///
/// Exposed so the unweighted 3-ECSS algorithm (Section 5) can reuse it.
#[derive(Clone, Debug)]
pub struct ProbabilitySchedule {
    /// Current activation probability `p_i = 2^{-exponent}`.
    exponent: u32,
    start_exponent: u32,
    iterations_in_phase: u64,
    phase_length: u64,
    current_class: Option<Rounded>,
}

impl ProbabilitySchedule {
    /// Creates the schedule for a graph with `n` vertices and `m` edges.
    pub fn new(n: usize, m: usize) -> Self {
        let start_exponent = usize::BITS - m.max(2).leading_zeros();
        let log_n = (usize::BITS - n.max(2).leading_zeros()) as u64;
        ProbabilitySchedule {
            exponent: start_exponent,
            start_exponent,
            iterations_in_phase: 0,
            phase_length: PHASE_MULTIPLIER * log_n,
            current_class: None,
        }
    }

    /// The activation probability for the next iteration, given the current
    /// maximum rounded cost-effectiveness class. Resets to the initial value
    /// whenever the class changes, and doubles after every completed phase.
    pub fn probability(&mut self, class: Rounded) -> f64 {
        if self.current_class != Some(class) {
            self.current_class = Some(class);
            self.exponent = self.start_exponent;
            self.iterations_in_phase = 0;
        } else if self.iterations_in_phase >= self.phase_length && self.exponent > 0 {
            self.exponent -= 1;
            self.iterations_in_phase = 0;
        }
        self.iterations_in_phase += 1;
        0.5f64.powi(self.exponent as i32)
    }

    /// The current activation probability without advancing the schedule.
    pub fn current_probability(&self) -> f64 {
        0.5f64.powi(self.exponent as i32)
    }
}

/// Augments the `(k-1)`-edge-connected spanning subgraph `h` of `graph` to
/// k-edge-connectivity, inferring the cost model from the graph diameter.
///
/// # Errors
///
/// * [`Error::ZeroK`] / [`Error::UnsupportedK`] for `k < 2` (there is no
///   upper limit on `k`: the cut enumerators handle arbitrary sizes);
/// * [`Error::InvalidSubgraph`] if `h` is not a spanning `(k-1)`-edge-connected
///   subgraph;
/// * [`Error::InsufficientConnectivity`] if `graph` itself is not
///   k-edge-connected.
pub fn augment<R: Rng>(graph: &Graph, h: &EdgeSet, k: usize, rng: &mut R) -> Result<AugkSolution> {
    let diameter = graphs::bfs::diameter(graph).unwrap_or(graph.n());
    augment_with_model(graph, h, k, CostModel::new(graph.n(), diameter), rng)
}

/// Same as [`augment`], running the cut enumeration/verification and the
/// per-candidate coverage counting through `exec`. Those computations are
/// pure (they never touch `rng`), so for a fixed seed the result is
/// bit-identical to [`augment`] for every executor.
///
/// # Errors
///
/// Same conditions as [`augment`].
pub fn augment_with_exec<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    k: usize,
    rng: &mut R,
    exec: &Executor,
) -> Result<AugkSolution> {
    let diameter = graphs::bfs::diameter(graph).unwrap_or(graph.n());
    augment_with_model_exec(graph, h, k, CostModel::new(graph.n(), diameter), rng, exec)
}

/// Same as [`augment`] with an explicit cost model.
///
/// # Errors
///
/// Same conditions as [`augment`].
pub fn augment_with_model<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    k: usize,
    model: CostModel,
    rng: &mut R,
) -> Result<AugkSolution> {
    augment_with_model_exec(graph, h, k, model, rng, &Executor::Sequential)
}

/// The most general entry point: explicit cost model *and* executor, with
/// the default [`AutoEnumerator`] cut strategy.
///
/// # Errors
///
/// Same conditions as [`augment`].
pub fn augment_with_model_exec<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    k: usize,
    model: CostModel,
    rng: &mut R,
    exec: &Executor,
) -> Result<AugkSolution> {
    augment_with_enumerator(graph, h, k, model, rng, exec, &AutoEnumerator::default())
}

/// [`augment_with_model_exec`] with an explicit [`CutEnumerator`] strategy.
///
/// Randomized enumerators (contraction) may miss cuts; this driver is
/// nevertheless *exact*: after the covering loop it certifies
/// `H ∪ A` k-edge-connected with the max-flow verifier, and on a miss it
/// re-enumerates with a fresh salt (escalating the enumerator's effort),
/// covers the missed cuts and re-certifies, up to a bounded number of
/// attempts. Deterministic enumerators certify on the first attempt, so the
/// legacy `k ≤ 4` behavior is unchanged bit for bit.
///
/// # Errors
///
/// Same conditions as [`augment`], plus whatever the enumerator reports
/// ([`Error::InvalidCutRequest`], [`Error::CandidateOverflow`]) and
/// [`Error::IncompleteEnumeration`] if certification keeps failing.
pub fn augment_with_enumerator<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    k: usize,
    model: CostModel,
    rng: &mut R,
    exec: &Executor,
    enumerator: &dyn CutEnumerator,
) -> Result<AugkSolution> {
    validate(graph, h, k)?;
    let mut ledger = RoundLedger::new(model);

    // All vertices learn the complete structure of H (|H| = O(kn) edges).
    ledger.charge("augk/learn_h", model.broadcast(h.len() as u64));

    let candidates_pool: Vec<(EdgeId, usize, usize, u64)> = graph
        .edges()
        .filter(|(id, _)| !h.contains(*id))
        .map(|(id, e)| (id, e.u, e.v, e.weight))
        .collect();

    let mut added = graph.empty_edge_set();
    let mut schedule = ProbabilitySchedule::new(graph.n(), graph.m());
    let mut iterations = 0u64;
    let mut cuts_covered = 0usize;

    let mut attempt = 0u64;
    loop {
        kecss_obs::counter("solver_augment_attempts_total").inc();
        // The cuts of size k-1 of H; with full knowledge of H every vertex
        // can enumerate them locally (local computation is free in CONGEST).
        // The candidate removal tests are independent per candidate, so they
        // run through the executor.
        let family = {
            let _span = kecss_obs::span("enumerate");
            if attempt == 0 {
                CutFamily::enumerate_with_enumerator(graph, h, k - 1, enumerator, 0, exec)?
            } else {
                // Certification failed: re-enumerate with a fresh salt and keep
                // only the cuts A does not already cover (their precomputed
                // bipartitions carry over).
                let mut fresh = CutFamily::enumerate_with_enumerator(
                    graph,
                    h,
                    k - 1,
                    enumerator,
                    attempt,
                    exec,
                )?;
                let already_covered: Vec<bool> = (0..fresh.len())
                    .map(|c| {
                        added.iter().any(|id| {
                            let e = graph.edge(id);
                            fresh.crossed_by(c, e.u, e.v)
                        })
                    })
                    .collect();
                fresh.retain(|c| !already_covered[c]);
                fresh
            }
        };
        cuts_covered += family.len();

        {
            let _span = kecss_obs::span("cover");
            cover_family(
                graph,
                h,
                k,
                &candidates_pool,
                &family,
                &mut added,
                &mut schedule,
                &mut iterations,
                &mut ledger,
                model,
                rng,
                exec,
            )?;
        }

        // Exact post-certification: H ∪ A is k-edge-connected iff every
        // induced (k-1)-cut of H is covered, so a pass proves the (possibly
        // randomized) enumeration missed nothing that matters.
        let certified = {
            let _span = kecss_obs::span("certify");
            connectivity::is_k_edge_connected_in(graph, &h.union(&added), k)
        };
        if certified {
            break;
        }
        attempt += 1;
        kecss_obs::counter("solver_augment_retries_total").inc();
        kecss_obs::event("augment_retry", &[("attempt", &attempt.to_string())]);
        if attempt >= MAX_ENUMERATION_ATTEMPTS {
            return Err(Error::IncompleteEnumeration {
                size: k - 1,
                attempts: attempt,
            });
        }
    }

    let weight = graph.weight_of(&added);
    Ok(AugkSolution {
        added,
        weight,
        iterations,
        cuts_covered,
        ledger,
    })
}

/// The covering loop of Section 4 for one enumerated cut family: iterate the
/// probability-guessing candidate activation and reweighted-MST selection
/// until every cut of `family` is covered by `added`.
#[allow(clippy::too_many_arguments)]
fn cover_family<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    k: usize,
    candidates_pool: &[(EdgeId, usize, usize, u64)],
    family: &CutFamily,
    added: &mut EdgeSet,
    schedule: &mut ProbabilitySchedule,
    iterations: &mut u64,
    ledger: &mut RoundLedger,
    model: CostModel,
    rng: &mut R,
    exec: &Executor,
) -> Result<()> {
    let mut covered = vec![false; family.len()];
    let mut uncovered = family.len();

    // Per-candidate counts of *uncovered* cuts crossed. Maintained
    // incrementally: when a cut becomes covered, every candidate crossing it
    // is decremented, so the total maintenance cost over the whole run is
    // O(#cuts · #candidates) instead of that much per iteration. The initial
    // counting is independent per candidate and runs through the executor.
    let mut coverage: Vec<usize> = exec.map(candidates_pool, |&(_, u, v, _)| {
        (0..family.len())
            .filter(|&c| family.crossed_by(c, u, v))
            .count()
    });

    while uncovered > 0 {
        assert!(
            *iterations < ITERATION_SAFETY_CAP,
            "Aug_k exceeded the iteration safety cap; this indicates a bug"
        );
        *iterations += 1;

        // Lines 1-2: rounded cost-effectiveness and the maximum class.
        let mut best_class: Option<Rounded> = None;
        for (i, &(_, _, _, w)) in candidates_pool.iter().enumerate() {
            if let Some(class) = Rounded::of(coverage[i], w) {
                best_class = Some(best_class.map_or(class, |b| b.max(class)));
            }
        }
        let Some(target_class) = best_class else {
            // Some cut cannot be covered by any remaining edge: impossible for
            // a k-edge-connected input.
            return Err(Error::InsufficientConnectivity {
                required: k,
                actual: connectivity::edge_connectivity(graph),
            });
        };
        ledger.charge(
            "augk/max_cost_effectiveness",
            model.convergecast(1) + model.broadcast(1),
        );

        // Line 3: candidates of the maximum class become active with
        // probability p_i.
        let p = schedule.probability(target_class);
        let active: Vec<usize> = candidates_pool
            .iter()
            .enumerate()
            .filter(|(i, (id, _, _, w))| {
                !added.contains(*id) && Rounded::of(coverage[*i], *w) == Some(target_class)
            })
            .filter(|_| rng.gen_bool(p))
            .map(|(i, _)| i)
            .collect();

        // Line 4: MST under the reweighting {A → 0, active → 1, other → 2};
        // active candidates appearing in the MST join A.
        ledger.charge("augk/mst", model.mst_kutten_peleg());
        let mut n_i = 0u64;
        if !active.is_empty() {
            let mut is_active = vec![false; graph.m()];
            for &i in &active {
                is_active[candidates_pool[i].0.index()] = true;
            }
            let reweighted = mst::kruskal_with(graph, &graph.full_edge_set(), |id| {
                if added.contains(id) || h.contains(id) {
                    // Edges of A have weight 0. Edges of H are irrelevant to
                    // the forest-growing argument but giving them weight 0 as
                    // well only helps connectivity; the paper keeps A ⊆ G
                    // acyclic via the MST — we restrict additions to active
                    // candidates anyway, so the distinction is immaterial.
                    if added.contains(id) {
                        0
                    } else {
                        2
                    }
                } else if is_active[id.index()] {
                    1
                } else {
                    2
                }
            });
            for &i in &active {
                let (id, u, v, _) = candidates_pool[i];
                if reweighted.contains(id) {
                    added.insert(id);
                    n_i += 1;
                    for (c, cov) in covered.iter_mut().enumerate() {
                        if !*cov && family.crossed_by(c, u, v) {
                            *cov = true;
                            uncovered -= 1;
                            // Decrement every candidate that crossed this cut.
                            for (j, &(_, cu, cv, _)) in candidates_pool.iter().enumerate() {
                                if family.crossed_by(c, cu, cv) {
                                    coverage[j] = coverage[j].saturating_sub(1);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Broadcasting the n_i newly added edges so every vertex keeps full
        // knowledge of A (Lemma 4.4 charges O(D + n_i) for this).
        ledger.charge("augk/broadcast_added", model.broadcast(n_i));
        ledger.charge("augk/termination", model.convergecast(1));
    }
    Ok(())
}

fn validate(graph: &Graph, h: &EdgeSet, k: usize) -> Result<()> {
    if k == 0 {
        return Err(Error::ZeroK);
    }
    if k < 2 {
        // Aug_k is defined for k >= 2; use an MST for the first level. There
        // is no upper limit: the pluggable enumerators handle any cut size.
        return Err(Error::UnsupportedK { k, min: 2 });
    }
    if !connectivity::is_k_edge_connected_in(graph, h, k - 1) {
        return Err(Error::InvalidSubgraph {
            reason: format!("H must be ({}-edge-connected and spanning", k - 1),
        });
    }
    if !connectivity::is_k_edge_connected(graph, k) {
        return Err(Error::InsufficientConnectivity {
            required: k,
            actual: connectivity::edge_connectivity(graph),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn augments_mst_to_two_edge_connectivity() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in [10, 24, 48] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 2 * n, 40, &mut rng);
            let h = mst::kruskal(&g);
            let sol = augment(&g, &h, 2, &mut rng).unwrap();
            let union = h.union(&sol.added);
            assert!(
                connectivity::is_k_edge_connected_in(&g, &union, 2),
                "n = {n}"
            );
            assert_eq!(sol.weight, g.weight_of(&sol.added));
        }
    }

    #[test]
    fn augments_two_connected_subgraph_to_three() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_k_edge_connected(14, 3, 20, &mut rng);
        // Start from a 2-edge-connected subgraph: the sparse certificate.
        let h = baselines::thurimella::sparse_certificate(&g, 2).edges;
        let sol = augment(&g, &h, 3, &mut rng).unwrap();
        let union = h.union(&sol.added);
        assert!(connectivity::is_k_edge_connected_in(&g, &union, 3));
    }

    #[test]
    fn augments_past_the_former_cap() {
        // k = 5 needs size-4 cut enumeration, which the hardcoded
        // pre-refactor enumerators could not do.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let g = generators::random_k_edge_connected(12, 5, 10, &mut rng);
        let h = baselines::thurimella::sparse_certificate(&g, 4).edges;
        assert!(connectivity::is_k_edge_connected_in(&g, &h, 4));
        let sol = augment(&g, &h, 5, &mut rng).unwrap();
        let union = h.union(&sol.added);
        assert!(connectivity::is_k_edge_connected_in(&g, &union, 5));
    }

    #[test]
    fn contraction_enumerator_is_certified_exact() {
        // Even with a single Karger–Stein repetition, the post-certification
        // loop keeps escalating until the result is exactly k-edge-connected.
        use crate::cuts::KargerSteinEnumerator;
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let g = generators::random_k_edge_connected(12, 5, 8, &mut rng);
        let h = baselines::thurimella::sparse_certificate(&g, 4).edges;
        let model = CostModel::new(g.n(), graphs::bfs::diameter(&g).unwrap_or(g.n()));
        let enumerator = KargerSteinEnumerator::with_repetitions(1);
        let sol = augment_with_enumerator(
            &g,
            &h,
            5,
            model,
            &mut rng,
            &Executor::Sequential,
            &enumerator,
        )
        .unwrap();
        let union = h.union(&sol.added);
        assert!(connectivity::is_k_edge_connected_in(&g, &union, 5));
    }

    #[test]
    fn augmentation_is_forest_like() {
        // Claim 4.1: the added edge set never contains a cycle, so it has at
        // most n - 1 edges.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_weighted_k_edge_connected(30, 2, 60, 25, &mut rng);
        let h = mst::kruskal(&g);
        let sol = augment(&g, &h, 2, &mut rng).unwrap();
        assert!(sol.added.len() < g.n());
        // No cycles: adding the edges one by one to a DSU never closes a loop.
        let mut dsu = graphs::dsu::DisjointSets::new(g.n());
        for id in sol.added.iter() {
            let e = g.edge(id);
            assert!(dsu.union(e.u, e.v), "added edges must form a forest");
        }
    }

    #[test]
    fn already_connected_subgraph_needs_no_augmentation() {
        let g = generators::harary(2, 8, 1);
        let h = g.full_edge_set();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sol = augment(&g, &h, 2, &mut rng).unwrap();
        assert!(sol.added.is_empty());
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.cuts_covered, 0);
    }

    #[test]
    fn weight_is_within_logarithmic_factor_of_greedy() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut worst: f64 = 0.0;
        for _ in 0..6 {
            let g = generators::random_weighted_k_edge_connected(16, 2, 24, 20, &mut rng);
            let h = mst::kruskal(&g);
            let sol = augment(&g, &h, 2, &mut rng).unwrap();
            let family = CutFamily::enumerate(&g, &h, 1).unwrap();
            let greedy = baselines::greedy::augment_cuts(&g, &h, &family);
            if greedy.weight > 0 {
                worst = worst.max(sol.weight as f64 / greedy.weight as f64);
            }
        }
        assert!(worst <= 6.0, "Aug_k is {worst:.2}x the greedy cost");
    }

    #[test]
    fn iteration_count_is_polylogarithmic() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in [32usize, 64, 128] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 2 * n, 100, &mut rng);
            let h = mst::kruskal(&g);
            let sol = augment(&g, &h, 2, &mut rng).unwrap();
            let log_n = (n as f64).log2();
            assert!(
                (sol.iterations as f64) <= 20.0 * log_n.powi(3),
                "n = {n}: {} iterations exceeds O(log^3 n)",
                sol.iterations
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::cycle(6, 1);
        let h = g.full_edge_set();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(augment(&g, &h, 0, &mut rng).unwrap_err(), Error::ZeroK);
        assert!(matches!(
            augment(&g, &h, 1, &mut rng).unwrap_err(),
            Error::UnsupportedK { k: 1, min: 2 }
        ));
        // k = 9 is no longer capped: the cycle simply is not 8-edge-connected,
        // so the subgraph validation rejects it.
        assert!(matches!(
            augment(&g, &h, 9, &mut rng).unwrap_err(),
            Error::InvalidSubgraph { .. }
        ));
        // The cycle is not 3-edge-connected.
        assert!(matches!(
            augment(&g, &h, 3, &mut rng).unwrap_err(),
            Error::InsufficientConnectivity { required: 3, .. }
        ));
        // H not (k-1)-connected: a spanning tree for k = 3.
        let g3 = generators::harary(3, 8, 1);
        let tree = mst::kruskal(&g3);
        assert!(matches!(
            augment(&g3, &tree, 3, &mut rng).unwrap_err(),
            Error::InvalidSubgraph { .. }
        ));
    }

    #[test]
    fn ledger_records_mst_and_broadcast_phases() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::random_weighted_k_edge_connected(20, 2, 30, 15, &mut rng);
        let h = mst::kruskal(&g);
        let sol = augment(&g, &h, 2, &mut rng).unwrap();
        assert!(sol.ledger.phase("augk/learn_h") > 0);
        assert!(sol.ledger.phase("augk/mst") > 0);
        assert!(sol.ledger.total() > 0);
    }

    #[test]
    fn parallel_augmentation_is_bit_identical_for_a_fixed_seed() {
        // The executor only parallelizes pure verification work, so with the
        // same seed every thread count must produce the same solution.
        let mut seed_rng = ChaCha8Rng::seed_from_u64(21);
        let g = generators::random_weighted_k_edge_connected(24, 2, 40, 30, &mut seed_rng);
        let h = mst::kruskal(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let sequential = augment(&g, &h, 2, &mut rng).unwrap();
        for threads in [2, 4, 8] {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let exec = Executor::from_threads(threads);
            let parallel = augment_with_exec(&g, &h, 2, &mut rng, &exec).unwrap();
            assert_eq!(parallel.added, sequential.added, "t = {threads}");
            assert_eq!(parallel.weight, sequential.weight, "t = {threads}");
            assert_eq!(parallel.iterations, sequential.iterations, "t = {threads}");
        }
    }

    #[test]
    fn probability_schedule_doubles_and_resets() {
        let mut s = ProbabilitySchedule::new(16, 64);
        let class_a = Rounded::Exponent(3);
        let class_b = Rounded::Exponent(1);
        let p0 = s.probability(class_a);
        assert!(p0 <= 1.0 / 64.0);
        // Stay in the same class long enough to see the probability double.
        let mut last = p0;
        for _ in 0..(PHASE_MULTIPLIER * 5 * 10) {
            last = s.probability(class_a);
        }
        assert!(last > p0);
        assert!(last <= 1.0);
        // A class change resets the schedule.
        let reset = s.probability(class_b);
        assert!((reset - p0).abs() < 1e-12);
        assert!(s.current_probability() > 0.0);
    }
}
