//! Enumeration of the small cuts that the augmentation algorithms must cover,
//! behind a pluggable [`CutEnumerator`] strategy architecture.
//!
//! `Aug_k` (Section 4) covers all cuts of size `k - 1` of a
//! `(k-1)`-edge-connected spanning subgraph `H`. Three strategies enumerate
//! those cuts, all sharing one contract: every reported cut is exact, and
//! the result is the same sorted list for every executor.
//!
//! * [`ExactEnumerator`] — the specialized enumerators for sizes 1–3:
//!   bridges (Tarjan), cut pairs via cycle-space label classes (Section 5.2),
//!   and label triples XOR-ing to zero (Corollary 5.3). Label candidates are
//!   verified by an exact removal test, batch-parallel through a
//!   [`kecss_runtime::Executor`].
//! * [`LabelEnumerator`] — the *general* label-class enumerator for arbitrary
//!   size: sample a random cycle-space labelling
//!   ([`Circulation::xor_zero_subsets`]) and enumerate the size-`s` edge
//!   subsets whose labels XOR to zero. An induced cut XORs to zero with
//!   certainty (a circulation crosses every cut evenly), so after
//!   verification this enumerator is **deterministically complete** for the
//!   induced cuts — its only failure mode is combinatorial cost, bounded by a
//!   candidate budget.
//! * [`MinCutEnumerator`] — every minimum cut from the residual graphs of
//!   `n - 1` unit flows (DESIGN.md §12). In the regime the driver calls
//!   from (`size = λ(H)`) the size-`size` cuts are exactly the minimum cuts,
//!   of which there are at most `binom(n, 2)` (the paper cites [19, 6]), so
//!   this is polynomial for every size.
//!
//! [`AutoEnumerator`] picks per size: the exact specializations for `1..=3`
//! and the minimum-cut enumerator above. Any `k` is reachable (DESIGN.md
//! §6), and no strategy on the `auto` path is randomized or budgeted.

mod min_cuts;

pub use min_cuts::MinCutEnumerator;

use crate::cycle_space::Circulation;
use crate::error::{Error, Result};
use graphs::{connectivity, EdgeId, EdgeSet, Graph, NodeId, RootedTree};
use kecss_runtime::Executor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The largest cut size the [`ExactEnumerator`] specializations handle.
/// Larger sizes go through [`MinCutEnumerator`] (which is what
/// [`AutoEnumerator`] arranges) or [`LabelEnumerator`], so this is **not** a
/// cap on the pipeline's `k`.
pub const EXACT_MAX_CUT_SIZE: usize = 3;

/// Default budget on label-class candidate visits before
/// [`LabelEnumerator`] reports [`Error::CandidateOverflow`].
pub const DEFAULT_LABEL_BUDGET: u64 = 4_000_000;

/// A single cut: the edge ids, sorted.
pub type Cut = Vec<EdgeId>;

/// Whether removing `cut` from the subgraph `(V, h)` disconnects it.
pub fn disconnects(graph: &Graph, h: &EdgeSet, cut: &[EdgeId]) -> bool {
    !connectivity::is_connected_after_removal(graph, h, cut)
}

/// Whether the edge `e` (an edge of `graph`, not necessarily of `h`) covers
/// the cut `cut` of the subgraph `(V, h)`: i.e. `(h \ cut) ∪ {e}` is
/// connected (Definition 2.1).
pub fn covers(graph: &Graph, h: &EdgeSet, cut: &[EdgeId], e: EdgeId) -> bool {
    let mut sub = h.clone();
    for c in cut {
        sub.remove(*c);
    }
    sub.insert(e);
    connectivity::is_connected_in(graph, &sub)
}

/// A strategy for enumerating the cuts of exactly `size` edges of a connected
/// subgraph `(V, h)`.
///
/// # Contract
///
/// * The result is sorted (each cut's ids ascending, cuts in lexicographic
///   order), holds no cut twice, and every reported cut genuinely
///   disconnects `(V, h)`.
/// * When `h` is `size`-edge-connected — the regime the `Aug_k` driver always
///   calls from — the cuts of size `size` are exactly the minimum cuts, and
///   every implementation reports all of them. When `h` has smaller cuts,
///   non-induced edge subsets that happen to disconnect (e.g. a bridge plus
///   an arbitrary edge) are *not* reported, and [`MinCutEnumerator`]
///   rejects the request.
/// * `salt` re-rolls the cycle-space labels of the label-based strategies.
///   Their candidates are verified exactly, so the result does not depend
///   on it. Implementations must be deterministic functions of
///   `(graph, h, size, salt)`, so results are bit-identical for every
///   `exec` (DESIGN.md §8): keep every RNG draw on the calling thread and
///   merge parallel work in item order.
///
/// # Errors
///
/// * [`Error::InvalidCutRequest`] if `size == 0`, `h` is disconnected, the
///   strategy does not implement the requested size, or (for
///   [`MinCutEnumerator`]) `h` has a cut smaller than `size`;
/// * [`Error::CandidateOverflow`] if a candidate budget was exceeded.
pub trait CutEnumerator: Sync {
    /// The strategy's display name (`exact`, `label`, `mincut`, `auto`).
    fn name(&self) -> &'static str;

    /// Enumerates every cut of exactly `size` edges of `(V, h)`, verifying
    /// the candidates' removal tests through `exec`.
    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>>;
}

/// Which [`CutEnumerator`] strategy to use; the CLI's `--enumerator` flag
/// parses into this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EnumeratorPolicy {
    /// [`ExactEnumerator`]: sizes 1–3 only.
    Exact,
    /// [`LabelEnumerator`]: any size, bounded by the candidate budget.
    Label,
    /// [`AutoEnumerator`]: exact below 4, minimum-cut enumeration above.
    #[default]
    Auto,
}

impl EnumeratorPolicy {
    /// Parses a policy name as used by the CLI flag and the text protocol.
    ///
    /// # Errors
    ///
    /// A message for an unknown name. The removed Karger–Stein strategy
    /// `ks` gets one that names its replacement, `auto`.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "exact" => Ok(EnumeratorPolicy::Exact),
            "label" => Ok(EnumeratorPolicy::Label),
            "auto" => Ok(EnumeratorPolicy::Auto),
            "ks" => Err(RETIRED_KS.into()),
            _ => Err(format!(
                "unknown enumerator '{s}' (expected exact, label or auto)"
            )),
        }
    }

    /// The policy's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            EnumeratorPolicy::Exact => "exact",
            EnumeratorPolicy::Label => "label",
            EnumeratorPolicy::Auto => "auto",
        }
    }

    /// Builds the corresponding enumerator with default parameters.
    pub fn build(self) -> Box<dyn CutEnumerator + Send + Sync> {
        match self {
            EnumeratorPolicy::Exact => Box::new(ExactEnumerator),
            EnumeratorPolicy::Label => Box::new(LabelEnumerator::default()),
            EnumeratorPolicy::Auto => Box::new(AutoEnumerator),
        }
    }
}

/// Why the removed `ks` (Karger–Stein) strategy is refused, for every
/// front end that used to accept it.
pub const RETIRED_KS: &str =
    "enumerator 'ks' (Karger-Stein) was removed; use 'auto', which enumerates \
     cut sizes >= 4 deterministically";

/// Validates the common preconditions shared by every enumerator.
fn check_request(graph: &Graph, h: &EdgeSet, size: usize) -> Result<()> {
    if size == 0 {
        return Err(Error::InvalidCutRequest {
            reason: "cut size must be at least 1".into(),
        });
    }
    if !connectivity::is_connected_in(graph, h) {
        return Err(Error::InvalidCutRequest {
            reason: "cut enumeration requires a connected subgraph".into(),
        });
    }
    Ok(())
}

/// Keeps the candidates whose removal disconnects `(V, h)`, running the
/// (independent) removal tests through `exec` in batches. Counts the batch
/// in the per-strategy `solver_enum_*` metrics (observation only — the
/// verdicts and their order are untouched).
fn verify_candidates(
    graph: &Graph,
    h: &EdgeSet,
    candidates: Vec<Cut>,
    exec: &Executor,
    strategy: &'static str,
) -> Vec<Cut> {
    kecss_obs::counter_with("solver_enum_candidates_total", &[("strategy", strategy)])
        .add(candidates.len() as u64);
    let verdicts = exec.map(&candidates, |cut| disconnects(graph, h, cut));
    let out: Vec<Cut> = candidates
        .into_iter()
        .zip(verdicts)
        .filter_map(|(cut, is_cut)| is_cut.then_some(cut))
        .collect();
    kecss_obs::counter_with("solver_enum_cuts_total", &[("strategy", strategy)])
        .add(out.len() as u64);
    out
}

/// The base seed of the enumeration labellings. With `salt = 0` the sampled
/// circulation is bit-identical to the pre-refactor enumerators'.
const LABEL_SEED: u64 = 0x6b65_6373_735f_6375;

fn labels_for(graph: &Graph, h: &EdgeSet, salt: u64) -> Circulation {
    // The seed is arbitrary: label equality is only used to *filter*
    // candidates, every candidate is verified exactly, and real induced cuts
    // always pass the filter (one-sided error). `salt` re-rolls the labels on
    // certification retries.
    let mut rng = ChaCha8Rng::seed_from_u64(LABEL_SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let bfs = graphs::bfs::bfs_in(graph, h, 0);
    let tree = RootedTree::new(graph, &bfs.tree_edges(graph), bfs.root);
    Circulation::sample(graph, h, &tree, 64, &mut rng)
}

/// The exact specializations for cut sizes 1–3 (the pre-refactor
/// enumerators): bridges, label-class cut pairs, XOR-zero label triples.
///
/// Deterministically complete on its sizes; requests for size > 3 return
/// [`Error::InvalidCutRequest`] — use [`AutoEnumerator`],
/// [`MinCutEnumerator`] or [`LabelEnumerator`] instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactEnumerator;

impl CutEnumerator for ExactEnumerator {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>> {
        check_request(graph, h, size)?;
        match size {
            1 => {
                let mut bridges: Vec<Cut> = connectivity::bridges_in(graph, h)
                    .into_iter()
                    .map(|b| vec![b])
                    .collect();
                // Tarjan's DFS reports them in DFS order, not id order.
                bridges.sort();
                let n = bridges.len() as u64;
                kecss_obs::counter_with("solver_enum_candidates_total", &[("strategy", "exact")])
                    .add(n);
                kecss_obs::counter_with("solver_enum_cuts_total", &[("strategy", "exact")]).add(n);
                Ok(bridges)
            }
            2 => Ok(cut_pairs(graph, h, salt, exec)),
            3 => Ok(cut_triples(graph, h, salt, exec)),
            _ => Err(Error::InvalidCutRequest {
                reason: format!(
                    "the exact enumerator handles cut sizes 1..={EXACT_MAX_CUT_SIZE}, \
                     got {size}; use the 'label' or 'auto' strategy"
                ),
            }),
        }
    }
}

/// All cuts of size exactly 2 (cut pairs) of the connected subgraph `(V, h)`.
fn cut_pairs(graph: &Graph, h: &EdgeSet, salt: u64, exec: &Executor) -> Vec<Cut> {
    let circulation = labels_for(graph, h, salt);
    let mut candidates = Vec::new();
    for class in circulation.label_classes(h) {
        for i in 0..class.len() {
            for j in (i + 1)..class.len() {
                candidates.push(vec![class[i], class[j]]);
            }
        }
    }
    let mut out = verify_candidates(graph, h, candidates, exec, "exact");
    out.sort();
    out
}

/// All cuts of size exactly 3 of the connected subgraph `(V, h)`.
fn cut_triples(graph: &Graph, h: &EdgeSet, salt: u64, exec: &Executor) -> Vec<Cut> {
    let circulation = labels_for(graph, h, salt);
    let ids: Vec<EdgeId> = h.iter().collect();
    // label -> edges with that label, for completing pairs into XOR-zero triples.
    let mut by_label: std::collections::HashMap<u64, Vec<EdgeId>> =
        std::collections::HashMap::new();
    for &id in &ids {
        by_label
            .entry(circulation.label(id).expect("edge of h has a label"))
            .or_default()
            .push(id);
    }
    let mut candidates = Vec::new();
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            let a = ids[i];
            let b = ids[j];
            let want = circulation.label(a).unwrap() ^ circulation.label(b).unwrap();
            let Some(completions) = by_label.get(&want) else {
                continue;
            };
            for &c in completions {
                if c <= b {
                    continue;
                }
                candidates.push(vec![a, b, c]);
            }
        }
    }
    let mut out = verify_candidates(graph, h, candidates, exec, "exact");
    out.sort();
    out
}

/// The general cycle-space label enumerator for arbitrary cut size
/// (Corollary 5.3 generalized): enumerate the size-`s` edge subsets of `h`
/// whose sampled 64-bit labels XOR to zero, then verify each by an exact
/// removal test. Induced cuts XOR to zero with certainty, so the result is
/// deterministically complete for the induced cuts of `(V, h)` — at a
/// combinatorial candidate-generation cost of `O(binom(|h|, size - 1))`,
/// bounded by `budget`.
#[derive(Clone, Copy, Debug)]
pub struct LabelEnumerator {
    /// Maximum candidate visits before [`Error::CandidateOverflow`].
    pub budget: u64,
}

impl Default for LabelEnumerator {
    fn default() -> Self {
        LabelEnumerator {
            budget: DEFAULT_LABEL_BUDGET,
        }
    }
}

impl LabelEnumerator {
    /// A label enumerator with an explicit candidate budget.
    pub fn with_budget(budget: u64) -> Self {
        LabelEnumerator { budget }
    }
}

impl CutEnumerator for LabelEnumerator {
    fn name(&self) -> &'static str {
        "label"
    }

    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>> {
        check_request(graph, h, size)?;
        let circulation = labels_for(graph, h, salt);
        let Some(candidates) = circulation.xor_zero_subsets(h, size, self.budget) else {
            kecss_obs::counter_with("solver_enum_overflow_total", &[("strategy", "label")]).inc();
            return Err(Error::CandidateOverflow {
                size,
                budget: self.budget,
            });
        };
        let mut out = verify_candidates(graph, h, candidates, exec, "label");
        out.sort();
        Ok(out)
    }
}

/// The per-size policy: [`ExactEnumerator`] for sizes `1..=3` and
/// [`MinCutEnumerator`] above. Both are deterministic and unbudgeted. This
/// is the default everywhere.
#[derive(Clone, Copy, Debug, Default)]
pub struct AutoEnumerator;

impl CutEnumerator for AutoEnumerator {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>> {
        if size <= EXACT_MAX_CUT_SIZE {
            ExactEnumerator.cuts(graph, h, size, salt, exec)
        } else {
            MinCutEnumerator.cuts(graph, h, size, salt, exec)
        }
    }
}

/// Enumerates every cut of exactly `size` edges of the connected subgraph
/// `(V, h)` with the default [`AutoEnumerator`] policy.
///
/// The subgraph being `size`-edge-connected *or better is not required*:
/// cuts smaller than `size` may exist and are not reported; the augmentation
/// driver always calls this with `size = k - 1` on a `(k-1)`-edge-connected
/// `H`, where the reported cuts are exactly the minimum cuts.
///
/// # Errors
///
/// [`Error::InvalidCutRequest`] if `size` is 0, `h` is disconnected, or
/// `size > 3` and `h` has a cut smaller than `size`.
pub fn cuts_of_size(graph: &Graph, h: &EdgeSet, size: usize) -> Result<Vec<Cut>> {
    cuts_of_size_with(graph, h, size, &Executor::Sequential)
}

/// Same as [`cuts_of_size`], verifying the filtered candidates through
/// `exec`: the removal test of each candidate is independent, so candidates
/// are checked in parallel. The result is bit-identical to the sequential
/// enumeration for every executor (candidates are generated, verified and
/// collected in a fixed order).
///
/// # Errors
///
/// Same conditions as [`cuts_of_size`].
pub fn cuts_of_size_with(
    graph: &Graph,
    h: &EdgeSet,
    size: usize,
    exec: &Executor,
) -> Result<Vec<Cut>> {
    AutoEnumerator.cuts(graph, h, size, 0, exec)
}

/// A family of cuts of a subgraph `H`, with the bipartition of each cut
/// precomputed so that "does edge `e` cover cut `C`?" is an `O(1)` query.
///
/// For a minimal cut `C` of a connected `H`, `H \ C` has exactly two
/// connected components; an edge covers the cut iff its endpoints lie in
/// different components.
#[derive(Clone, Debug)]
pub struct CutFamily {
    cuts: Vec<Cut>,
    /// `sides[c][v]` — the side of vertex `v` for cut `c`.
    sides: Vec<Vec<bool>>,
}

impl CutFamily {
    /// Enumerates all cuts of exactly `size` edges of `(V, h)` with the
    /// default [`AutoEnumerator`] and precomputes their bipartitions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`cuts_of_size`].
    ///
    /// # Panics
    ///
    /// Panics if some enumerated cut does not split `H` into exactly two
    /// components (which cannot happen for minimum cuts of a
    /// `size`-edge-connected `H`).
    pub fn enumerate(graph: &Graph, h: &EdgeSet, size: usize) -> Result<Self> {
        Self::enumerate_with(graph, h, size, &Executor::Sequential)
    }

    /// Same as [`CutFamily::enumerate`], running both the candidate removal
    /// tests and the per-cut bipartitions through `exec` (each cut's
    /// bipartition is an independent connected-components computation).
    /// Bit-identical to the sequential enumeration for every executor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CutFamily::enumerate`].
    pub fn enumerate_with(
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        exec: &Executor,
    ) -> Result<Self> {
        Self::enumerate_with_enumerator(graph, h, size, &AutoEnumerator, 0, exec)
    }

    /// The most general entry point: enumerate through an explicit
    /// [`CutEnumerator`] strategy and `salt`.
    ///
    /// # Errors
    ///
    /// Whatever `enumerator` returns for the request.
    pub fn enumerate_with_enumerator(
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        enumerator: &dyn CutEnumerator,
        salt: u64,
        exec: &Executor,
    ) -> Result<Self> {
        let cuts = enumerator.cuts(graph, h, size, salt, exec)?;
        Ok(Self::from_cuts_with(graph, h, cuts, exec))
    }

    /// Builds a family from explicitly provided cuts.
    ///
    /// # Panics
    ///
    /// Panics if some cut does not split `(V, h)` into exactly two components.
    pub fn from_cuts(graph: &Graph, h: &EdgeSet, cuts: Vec<Cut>) -> Self {
        Self::from_cuts_with(graph, h, cuts, &Executor::Sequential)
    }

    /// Same as [`CutFamily::from_cuts`], computing the bipartitions through
    /// `exec`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CutFamily::from_cuts`].
    pub fn from_cuts_with(graph: &Graph, h: &EdgeSet, cuts: Vec<Cut>, exec: &Executor) -> Self {
        let sides = exec.map(&cuts, |cut| bipartition(graph, h, cut));
        CutFamily { cuts, sides }
    }

    /// Number of cuts in the family.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// The `i`-th cut.
    pub fn cut(&self, i: usize) -> &[EdgeId] {
        &self.cuts[i]
    }

    /// All cuts.
    pub fn cuts(&self) -> &[Cut] {
        &self.cuts
    }

    /// Whether the edge with endpoints `u`, `v` covers the `i`-th cut.
    pub fn crossed_by(&self, i: usize, u: NodeId, v: NodeId) -> bool {
        self.sides[i][u] != self.sides[i][v]
    }

    /// The indices of the cuts covered by an edge `{u, v}`.
    pub fn covered_by(&self, u: NodeId, v: NodeId) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.crossed_by(i, u, v))
            .collect()
    }
}

/// The two-sided partition of `V` obtained by removing `cut` from `(V, h)`.
///
/// # Panics
///
/// Panics if the removal does not yield exactly two components.
fn bipartition(graph: &Graph, h: &EdgeSet, cut: &[EdgeId]) -> Vec<bool> {
    let mut sub = h.clone();
    for c in cut {
        sub.remove(*c);
    }
    let (labels, count) = connectivity::connected_components_in(graph, &sub);
    assert_eq!(
        count, 2,
        "a minimal cut must split the subgraph into exactly two components, got {count}"
    );
    let reference = labels[0];
    labels.iter().map(|&l| l == reference).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;

    /// Exhaustive ground truth: all `size`-subsets of `h` that disconnect
    /// and are *induced* (split into exactly two components). Shared with
    /// the `min_cuts` submodule's tests.
    pub(crate) fn naive_induced_cuts(g: &Graph, h: &EdgeSet, size: usize) -> Vec<Cut> {
        let ids: Vec<EdgeId> = h.iter().collect();
        let mut out = Vec::new();
        fn rec(
            g: &Graph,
            h: &EdgeSet,
            ids: &[EdgeId],
            size: usize,
            start: usize,
            subset: &mut Vec<EdgeId>,
            out: &mut Vec<Cut>,
        ) {
            if subset.len() == size {
                let mut sub = h.clone();
                for c in subset.iter() {
                    sub.remove(*c);
                }
                let (_, count) = connectivity::connected_components_in(g, &sub);
                if count == 2 {
                    out.push(subset.clone());
                }
                return;
            }
            for i in start..ids.len() {
                subset.push(ids[i]);
                rec(g, h, ids, size, i + 1, subset, out);
                subset.pop();
            }
        }
        let mut buf = Vec::new();
        rec(g, h, &ids, size, 0, &mut buf, &mut out);
        out.sort();
        out
    }

    #[test]
    fn bridges_are_the_size_one_cuts() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 0, 1);
        let bridge = g.add_edge(2, 3, 1);
        let cuts = cuts_of_size(&g, &g.full_edge_set(), 1).unwrap();
        assert_eq!(cuts, vec![vec![bridge]]);
    }

    #[test]
    fn cycle_has_all_pairs_as_cuts() {
        let g = generators::cycle(5, 1);
        let cuts = cuts_of_size(&g, &g.full_edge_set(), 2).unwrap();
        assert_eq!(cuts.len(), 5 * 4 / 2);
    }

    #[test]
    fn cut_pairs_match_naive_enumeration() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for n in [8, 12] {
            let g = generators::random_k_edge_connected(n, 2, 4, &mut rng);
            let h = g.full_edge_set();
            let fast = cuts_of_size(&g, &h, 2).unwrap();
            let ids: Vec<EdgeId> = h.iter().collect();
            let mut naive = Vec::new();
            for i in 0..ids.len() {
                for j in (i + 1)..ids.len() {
                    if disconnects(&g, &h, &[ids[i], ids[j]]) {
                        naive.push(vec![ids[i], ids[j]]);
                    }
                }
            }
            naive.sort();
            assert_eq!(fast, naive, "n = {n}");
        }
    }

    #[test]
    fn triples_on_k4_are_the_vertex_stars() {
        // K4 is 3-edge-connected; its size-3 cuts are exactly the four
        // vertex-isolating cuts δ(v).
        let g = generators::complete(4, 1);
        let h = g.full_edge_set();
        assert_eq!(connectivity::edge_connectivity(&g), 3);
        let cuts = cuts_of_size(&g, &h, 3).unwrap();
        assert_eq!(cuts.len(), 4);
        for cut in &cuts {
            assert!(disconnects(&g, &h, cut));
            // A vertex star: all three edges share a vertex.
            let edges: Vec<_> = cut.iter().map(|&id| g.edge(id)).collect();
            let shared = (0..4).find(|&v| edges.iter().all(|e| e.has_endpoint(v)));
            assert!(shared.is_some(), "cut {cut:?} is not a vertex star");
        }
    }

    #[test]
    fn triples_match_naive_enumeration_on_random_graph() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::random_k_edge_connected(10, 3, 2, &mut rng);
        let h = g.full_edge_set();
        let fast = cuts_of_size(&g, &h, 3).unwrap();
        let ids: Vec<EdgeId> = h.iter().collect();
        let mut naive = Vec::new();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                for l in (j + 1)..ids.len() {
                    let cut = vec![ids[i], ids[j], ids[l]];
                    if disconnects(&g, &h, &cut) {
                        naive.push(cut);
                    }
                }
            }
        }
        naive.sort();
        assert_eq!(fast, naive);
    }

    #[test]
    fn covers_matches_definition() {
        let g = generators::cycle(6, 1);
        let h = g.full_edge_set();
        let cut = vec![EdgeId(0), EdgeId(3)];
        assert!(disconnects(&g, &h, &cut));
        // An edge of the cut itself covers it (re-inserting it reconnects).
        assert!(covers(&g, &h, &cut, EdgeId(0)));
    }

    #[test]
    fn cut_family_cover_queries_match_covers() {
        let mut g = graphs::Graph::new(6);
        // 6-cycle plus one chord.
        for v in 0..6 {
            g.add_edge(v, (v + 1) % 6, 1);
        }
        let chord = g.add_edge(0, 3, 1);
        let mut h = g.full_edge_set();
        h.remove(chord);
        let family = CutFamily::enumerate(&g, &h, 2).unwrap();
        assert_eq!(family.len(), 6 * 5 / 2);
        assert!(!family.is_empty());
        for i in 0..family.len() {
            let cut = family.cut(i).to_vec();
            let e = g.edge(chord);
            assert_eq!(
                family.crossed_by(i, e.u, e.v),
                covers(&g, &h, &cut, chord),
                "cut {cut:?}"
            );
        }
        let covered = family.covered_by(0, 3);
        assert!(!covered.is_empty());
    }

    #[test]
    fn zero_size_and_disconnected_requests_are_errors() {
        let g = generators::cycle(4, 1);
        let err = cuts_of_size(&g, &g.full_edge_set(), 0).unwrap_err();
        assert!(matches!(err, Error::InvalidCutRequest { .. }));
        let mut disconnected = Graph::new(4);
        disconnected.add_edge(0, 1, 1);
        disconnected.add_edge(2, 3, 1);
        let err = cuts_of_size(&disconnected, &disconnected.full_edge_set(), 1).unwrap_err();
        assert!(matches!(err, Error::InvalidCutRequest { .. }));
    }

    #[test]
    fn exact_enumerator_rejects_large_sizes_but_auto_handles_them() {
        let g = generators::torus(3, 4, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let err = ExactEnumerator.cuts(&g, &h, 4, 0, &exec).unwrap_err();
        assert!(matches!(err, Error::InvalidCutRequest { .. }));
        // The 3x4 torus is 4-edge-connected; auto must enumerate its 4-cuts.
        let cuts = cuts_of_size(&g, &h, 4).unwrap();
        assert!(!cuts.is_empty());
        assert_eq!(cuts, naive_induced_cuts(&g, &h, 4));
    }

    #[test]
    fn label_enumerator_matches_naive_induced_cuts_size_four() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::random_k_edge_connected(9, 4, 3, &mut rng);
        let h = g.full_edge_set();
        let cuts = LabelEnumerator::default()
            .cuts(&g, &h, 4, 0, &Executor::Sequential)
            .unwrap();
        assert_eq!(cuts, naive_induced_cuts(&g, &h, 4));
    }

    #[test]
    fn label_budget_overflow_is_reported_and_auto_needs_no_budget() {
        let g = generators::torus(3, 4, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let tiny = LabelEnumerator::with_budget(8);
        let err = tiny.cuts(&g, &h, 4, 0, &exec).unwrap_err();
        assert!(matches!(err, Error::CandidateOverflow { size: 4, .. }));
        let auto = AutoEnumerator.cuts(&g, &h, 4, 0, &exec).unwrap();
        assert_eq!(auto, naive_induced_cuts(&g, &h, 4));
    }

    #[test]
    fn strategies_agree_on_legacy_sizes() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let exec = Executor::Sequential;
        for (n, k, size) in [(10, 2, 1), (10, 2, 2), (10, 3, 3)] {
            let g = generators::random_k_edge_connected(n, k, 4, &mut rng);
            let mut h = g.full_edge_set();
            if size < k {
                let id = h.iter().next().unwrap();
                let mut candidate = h.clone();
                candidate.remove(id);
                if connectivity::is_connected_in(&g, &candidate) {
                    h = candidate;
                }
            }
            let exact = ExactEnumerator.cuts(&g, &h, size, 0, &exec).unwrap();
            let label = LabelEnumerator::default()
                .cuts(&g, &h, size, 0, &exec)
                .unwrap();
            assert_eq!(label, exact, "label vs exact, size {size}");
        }
    }

    #[test]
    fn salt_changes_labels_but_not_results() {
        let g = generators::torus(3, 4, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let base = LabelEnumerator::default()
            .cuts(&g, &h, 4, 0, &exec)
            .unwrap();
        for salt in 1..4 {
            let salted = LabelEnumerator::default()
                .cuts(&g, &h, 4, salt, &exec)
                .unwrap();
            assert_eq!(salted, base, "salt {salt}");
        }
    }

    #[test]
    fn policy_parse_and_build_round_trip() {
        for (name, policy) in [
            ("exact", EnumeratorPolicy::Exact),
            ("label", EnumeratorPolicy::Label),
            ("auto", EnumeratorPolicy::Auto),
        ] {
            assert_eq!(EnumeratorPolicy::parse(name), Ok(policy));
            assert_eq!(policy.name(), name);
            assert_eq!(policy.build().name(), name);
        }
        assert!(EnumeratorPolicy::parse("magic")
            .unwrap_err()
            .contains("unknown enumerator 'magic'"));
        let ks = EnumeratorPolicy::parse("ks").unwrap_err();
        assert!(ks.contains("'auto'"), "{ks}");
        assert_eq!(EnumeratorPolicy::default(), EnumeratorPolicy::Auto);
    }

    #[test]
    fn every_strategy_returns_sorted_distinct_cuts() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let g = generators::random_k_edge_connected(16, 4, 6, &mut rng);
        // On a spanning tree every edge is a bridge, and Tarjan's DFS
        // reports them out of id order.
        let tree = graphs::mst::kruskal(&g);
        let lambda = connectivity::edge_connectivity(&g);
        let label = LabelEnumerator::default();
        let strategies: [&dyn CutEnumerator; 4] =
            [&ExactEnumerator, &label, &MinCutEnumerator, &AutoEnumerator];
        for (h, size) in [(&tree, 1), (&g.full_edge_set(), lambda)] {
            for e in strategies {
                let Ok(cuts) = e.cuts(&g, h, size, 0, &Executor::Sequential) else {
                    assert!(e.name() == "exact" && size > EXACT_MAX_CUT_SIZE);
                    continue;
                };
                assert!(!cuts.is_empty(), "{} size {size}", e.name());
                let ascending = |c: &Cut| c.windows(2).all(|w| w[0] < w[1]);
                assert!(
                    cuts.iter().all(ascending) && cuts.windows(2).all(|w| w[0] < w[1]),
                    "{} size {size}: not sorted and distinct",
                    e.name()
                );
            }
        }
    }

    #[test]
    fn no_cut_pairs_in_three_connected_graph() {
        let g = generators::harary(3, 8, 1);
        assert!(cuts_of_size(&g, &g.full_edge_set(), 2).unwrap().is_empty());
    }

    #[test]
    fn parallel_enumeration_is_bit_identical_to_sequential() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for (n, k, size) in [(12, 2, 1), (12, 2, 2), (10, 3, 3), (9, 4, 4)] {
            let g = generators::random_k_edge_connected(n, k, 4, &mut rng);
            let mut h = g.full_edge_set();
            if size < k {
                // Drop one edge so smaller cuts exist without disconnecting.
                let id = h.iter().next().unwrap();
                let mut candidate = h.clone();
                candidate.remove(id);
                if connectivity::is_connected_in(&g, &candidate) {
                    h = candidate;
                }
            }
            let sequential = cuts_of_size(&g, &h, size).unwrap();
            for threads in [2, 4, 8] {
                let exec = Executor::from_threads(threads);
                assert_eq!(
                    cuts_of_size_with(&g, &h, size, &exec).unwrap(),
                    sequential,
                    "size = {size}, t = {threads}"
                );
                let fam_seq = CutFamily::enumerate(&g, &h, size).unwrap();
                let fam_par = CutFamily::enumerate_with(&g, &h, size, &exec).unwrap();
                assert_eq!(fam_par.cuts, fam_seq.cuts);
                assert_eq!(fam_par.sides, fam_seq.sides);
            }
        }
    }

    #[test]
    fn from_cuts_builds_family() {
        let g = generators::cycle(4, 1);
        let h = g.full_edge_set();
        let family = CutFamily::from_cuts(&g, &h, vec![vec![EdgeId(0), EdgeId(2)]]);
        assert_eq!(family.len(), 1);
        assert_eq!(family.cuts().len(), 1);
        assert!(family.crossed_by(0, 0, 2) || family.crossed_by(0, 1, 3));
    }
}
