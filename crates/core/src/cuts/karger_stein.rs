//! The recursive Karger–Stein cut enumerator (DESIGN.md §12).
//!
//! Flat Karger contraction restarts every trial from the full graph:
//! `Θ(n² log n)` trials, `O(n)` union operations each. Karger–Stein observes
//! that a random contraction is very unlikely to destroy a fixed minimum cut
//! *early* — contracting from `n` down to `⌈n/√2⌉ + 1` super-vertices
//! preserves it with probability `≥ 1/2` — so the expensive shallow prefix
//! of the contraction can be *shared*: contract once to `⌈n/√2⌉ + 1`, then
//! recurse **twice** with independent randomness. One repetition of the recursion does `O(n² log n)` work and
//! finds any fixed minimum cut with probability `Ω(1/log n)`; `Θ(log² n)`
//! repetitions find *all* of them w.h.p. (a `(k-1)`-edge-connected graph has
//! at most `binom(n, 2)` minimum cuts).
//!
//! At or below [`CROSSOVER`] super-vertices the recursion switches to a flat
//! tail of direct contractions to the base size — same success probability
//! per unit work, none of the branching overhead (see [`CROSSOVER`]).
//!
//! # Determinism (DESIGN.md §8, §12)
//!
//! Repetition roots run on the [`Executor`]; every recursion node draws from
//! a [`ChaCha8Rng`] seeded purely from `(salt, repetition, recursion path)`
//! via a splitmix64 chain — never from a shared stream — and the per-
//! repetition results are merged into the dedupe set in repetition order. A
//! repetition therefore computes the same cuts no matter which worker thread
//! runs it, and `Threaded(n)` output is bit-identical to `Sequential`.
//!
//! # Pooling
//!
//! All contraction state lives in a thread-local [`Workspace`]: one
//! union-find array and one surviving-edge list per recursion *depth*,
//! reused across both children, all repetitions in a worker's chunk, and
//! (via a generation token) across enumeration calls on the same thread.
//! After warm-up a repetition allocates only the candidate cuts it emits.

use super::{check_request, verify_candidates, Cut, CutEnumerator};
use crate::error::Result;
use graphs::{EdgeId, EdgeSet, Graph, NodeId};
use kecss_runtime::Executor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Contracted-multigraph sizes at or below this are enumerated exhaustively
/// (all `2^{b-1} - 1` bipartitions) instead of recursing further.
const BASE_SIZE: usize = 6;

/// Contracted-multigraph sizes at or below this stop recursing and run
/// [`tail_trials`] *direct* contractions to [`BASE_SIZE`] instead.
///
/// The branch-twice recursion only pays for itself while contraction is
/// expensive: a fixed minimum cut survives a contraction from `n` to `t`
/// super-vertices with probability `≈ (t/n)²` whether the contraction is one
/// shot or a recursion level, so recursing buys nothing probabilistically —
/// it *amortizes* the `O(n)` shallow contraction across both subtrees. Below
/// `CROSSOVER` vertices a full contraction costs a few dozen union-finds, so
/// sharing it is pure overhead; worse, the integer target `⌈n/√2⌉ + 1`
/// shrinks by barely one vertex per level down here (… 9 → 8 → 7 → 6),
/// which would blow the leaf count up by `2^{levels}` for no extra success
/// probability. The flat tail keeps the recursion tree at its textbook
/// `Θ((n/b)²)` leaves.
const CROSSOVER: usize = 32;

/// Independent direct contractions run at a tail node on `n` super-vertices:
/// `⌈n² / 2b²⌉` — sized so a fixed minimum cut (survival `≈ (b/n)²` per
/// trial) is expected to reach the base case about once per tail node,
/// matching the `≈ 1/2` per-level survival the recursion is built around.
fn tail_trials(n: usize) -> u64 {
    let (n, b) = (n as u64, BASE_SIZE as u64);
    (n * n).div_ceil(2 * b * b).max(1)
}

/// Tweak xored into a tail node's seed material so the tail RNG never
/// replays the byte stream that drove the contraction *into* that node
/// (both are derived from the same `(salt, rep, path)` otherwise).
const TAIL_TAG: u64 = 0x7a11_7a11_7a11_7a11;

/// Recursion depths below this emit a [`kecss_obs::span`] (nested, so traces
/// show the recursion tree). Deeper nodes are too numerous — `2^d` per
/// repetition — for per-node span bookkeeping; they are still counted by
/// `ks_recursions_total`.
const SPAN_DEPTHS: [&str; 4] = ["ks_depth_0", "ks_depth_1", "ks_depth_2", "ks_depth_3"];

/// Distinguishes enumeration calls so a thread-local [`Workspace`] warmed by
/// a previous call (same thread, different graph) is rebuilt.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The base seed of the Karger–Stein recursion seeds (mixed with the salt).
const CONTRACT_SEED: u64 = 0xc027_7ac7_10e5_eed5;

/// `⌈log2 n⌉` (1 for `n <= 2`) — the integer log the Karger–Stein
/// repetition count is built from, keeping the hot path float-free and
/// platform-independent.
fn ceil_log2(n: usize) -> u64 {
    u64::from(u64::BITS - (n.max(2) as u64 - 1).leading_zeros())
}

/// Inserts the deterministic candidate seeds of the Karger–Stein
/// enumerator into `candidates`: vertex stars `δ(v)` and adjacent-pair
/// boundaries `δ({u, v})` whose crossing size matches. These cover the
/// common minimum cuts of near-regular graphs before any random trial runs.
fn seed_candidates(graph: &Graph, h: &EdgeSet, size: usize, candidates: &mut BTreeSet<Cut>) {
    let star = |v: NodeId| -> Vec<EdgeId> {
        graph
            .neighbors(v)
            .iter()
            .filter(|(_, id)| h.contains(*id))
            .map(|&(_, id)| id)
            .collect()
    };
    for v in 0..graph.n() {
        let mut s = star(v);
        if s.len() == size {
            s.sort();
            candidates.insert(s);
        }
    }
    for id in h.iter() {
        let e = graph.edge(id);
        let mut boundary: Vec<EdgeId> = star(e.u)
            .into_iter()
            .chain(star(e.v))
            .filter(|&b| {
                let be = graph.edge(b);
                !(be.has_endpoint(e.u) && be.has_endpoint(e.v))
            })
            .collect();
        if boundary.len() == size {
            boundary.sort();
            candidates.insert(boundary);
        }
    }
}

/// splitmix64 — the standard 64-bit finalizer, used to chain the seed
/// ingredients. Statistically independent outputs for distinct inputs.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of one recursion node: a splitmix64 chain over the base
/// contraction seed, the salt, the repetition index and the recursion path.
/// The path starts at 1 at the root and appends one bit per child, so every
/// node of every repetition gets an independent, *position-determined* seed
/// — the foundation of the `Threaded ≡ Sequential` guarantee.
fn mix(salt: u64, rep: u64, path: u64) -> u64 {
    splitmix(splitmix(splitmix(CONTRACT_SEED ^ salt) ^ rep) ^ path)
}

/// The Karger–Stein contraction target for a multigraph on `n` super-
/// vertices: `⌈n/√2⌉ + 1`, the largest shrink that still preserves a fixed
/// minimum cut with probability `≥ 1/2`. Integer-only via `u64::isqrt`
/// (smallest `t` with `2t² ≥ n²`).
fn contract_target(n: usize) -> usize {
    let n = n as u64;
    let mut t = (n * n).div_ceil(2).isqrt();
    while 2 * t * t < n * n {
        t += 1;
    }
    (t + 1) as usize
}

/// One recursion depth's contraction state: a union-find forest over the
/// *original* vertex ids and the indices of the edges still known to cross
/// between super-vertices (lazily pruned: a self-loop is dropped when
/// sampled, or at the base case).
#[derive(Default)]
struct Level {
    /// Union-find parent array (path-halving), length `n`.
    parent: Vec<u32>,
    /// Surviving edge indices into [`Workspace::ends`].
    edges: Vec<u32>,
    /// Current number of super-vertices.
    n_cur: usize,
}

/// The root of `x` in `parent`, with path halving (a free function so the
/// `edges` half of a [`Level`] can stay borrowed at the call site).
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let g = parent[parent[x as usize] as usize];
        parent[x as usize] = g;
        x = g;
    }
    x
}

/// Pooled per-thread contraction state: the graph's edge endpoints, one
/// [`Level`] per recursion depth, base-case scratch and the candidate
/// accumulator. Lives in a `thread_local!` and is reused across repetitions
/// and (generation-checked) across enumeration calls.
#[derive(Default)]
struct Workspace {
    /// Which enumeration call this workspace is warmed for.
    generation: u64,
    /// Number of vertices of the current graph.
    n: usize,
    /// Edge endpoints `(u, v)` of every edge of `h`, indexed by `edges`.
    ends: Vec<(u32, u32)>,
    /// The [`EdgeId`]s matching `ends`.
    ids: Vec<EdgeId>,
    /// One contraction state per recursion depth, grown on demand.
    levels: Vec<Level>,
    /// Base case: `original root -> compact id` (reset between uses).
    compact: Vec<u32>,
    /// Base case: compact id -> original root, in first-appearance order.
    roots: Vec<u32>,
    /// Base case: compact endpoint pairs of the pruned surviving edges.
    pairs: Vec<(u8, u8)>,
    /// Candidate cuts collected by the current repetition.
    found: Vec<Cut>,
    /// Scratch for assembling one candidate cut.
    cut_buf: Cut,
}

impl Workspace {
    /// Points the workspace at the current enumeration's graph, rebuilding
    /// the endpoint tables only when the generation token changed.
    fn prepare(&mut self, generation: u64, graph: &Graph, h: &EdgeSet) {
        if self.generation == generation {
            return;
        }
        self.generation = generation;
        self.n = graph.n();
        self.ends.clear();
        self.ids.clear();
        for id in h.iter() {
            let e = graph.edge(id);
            self.ends.push((e.u as u32, e.v as u32));
            self.ids.push(id);
        }
        self.levels.clear();
        self.compact.clear();
        self.compact.resize(self.n, u32::MAX);
    }

    /// Ensures a [`Level`] exists at `depth` (allocation only on the first
    /// visit per workspace).
    fn ensure_level(&mut self, depth: usize) {
        while self.levels.len() <= depth {
            self.levels.push(Level::default());
        }
    }

    /// Copies the contraction state at `depth` into `depth + 1` (the
    /// starting point of one recursive child), reusing the child buffers.
    fn push_child(&mut self, depth: usize) {
        self.ensure_level(depth + 1);
        let (head, tail) = self.levels.split_at_mut(depth + 1);
        let src = &head[depth];
        let dst = &mut tail[0];
        dst.parent.clear();
        dst.parent.extend_from_slice(&src.parent);
        dst.edges.clear();
        dst.edges.extend_from_slice(&src.edges);
        dst.n_cur = src.n_cur;
    }

    /// Contracts uniformly random surviving edges at `depth` until `target`
    /// super-vertices remain (self-loops are discarded when sampled).
    fn contract(&mut self, depth: usize, target: usize, rng: &mut ChaCha8Rng) {
        let Workspace { levels, ends, .. } = self;
        let level = &mut levels[depth];
        while level.n_cur > target && !level.edges.is_empty() {
            let pick = rng.gen_range(0..level.edges.len());
            let e = level.edges[pick] as usize;
            let (u, v) = ends[e];
            let ru = find(&mut level.parent, u);
            let rv = find(&mut level.parent, v);
            level.edges.swap_remove(pick);
            if ru != rv {
                level.parent[rv as usize] = ru;
                level.n_cur -= 1;
            }
        }
    }

    /// Drops the edges at `depth` that have become self-loops. Called after
    /// each *recursive* contraction so every descendant copies, samples and
    /// scans a clean list — without this the root's full edge list rides all
    /// the way down to the leaves as dead weight. (Tail trials skip it: the
    /// base case prunes as part of compaction and nothing copies after it.)
    fn prune_self_loops(&mut self, depth: usize) {
        let Workspace { levels, ends, .. } = self;
        let level = &mut levels[depth];
        let mut w = 0;
        for r in 0..level.edges.len() {
            let e = level.edges[r] as usize;
            let (u, v) = ends[e];
            if find(&mut level.parent, u) != find(&mut level.parent, v) {
                level.edges[w] = level.edges[r];
                w += 1;
            }
        }
        level.edges.truncate(w);
    }

    /// One full repetition: reset depth 0, run the recursion, hand back the
    /// candidates found.
    fn run_rep(
        &mut self,
        size: usize,
        salt: u64,
        rep: u64,
        recursions: &kecss_obs::Counter,
    ) -> Vec<Cut> {
        self.ensure_level(0);
        let n = self.n;
        let m = self.ends.len();
        let root = &mut self.levels[0];
        root.parent.clear();
        root.parent.extend(0..n as u32);
        root.edges.clear();
        root.edges.extend(0..m as u32);
        root.n_cur = n;
        self.found.clear();
        self.recurse(0, 1, salt, rep, size, recursions);
        std::mem::take(&mut self.found)
    }

    /// The Karger–Stein recursion at `depth` on the contraction state in
    /// `levels[depth]`: enumerate exhaustively at the base, run the flat
    /// tail of direct contractions at or below [`CROSSOVER`], otherwise
    /// contract to `⌈n_cur/√2⌉ + 1` and recurse twice with path-derived
    /// seeds.
    fn recurse(
        &mut self,
        depth: usize,
        path: u64,
        salt: u64,
        rep: u64,
        size: usize,
        recursions: &kecss_obs::Counter,
    ) {
        recursions.inc();
        let _span = (depth < SPAN_DEPTHS.len()).then(|| kecss_obs::span(SPAN_DEPTHS[depth]));
        let n_cur = self.levels[depth].n_cur;
        if n_cur <= BASE_SIZE {
            self.enumerate_base(depth, size);
            return;
        }
        if n_cur <= CROSSOVER {
            // Flat tail: all randomness still derives from (salt, rep, path)
            // alone, so the node stays position-determined and the
            // Threaded ≡ Sequential guarantee is untouched.
            let mut rng = ChaCha8Rng::seed_from_u64(splitmix(mix(salt, rep, path) ^ TAIL_TAG));
            for _trial in 0..tail_trials(n_cur) {
                self.push_child(depth);
                self.contract(depth + 1, BASE_SIZE, &mut rng);
                self.enumerate_base(depth + 1, size);
            }
            return;
        }
        let target = contract_target(n_cur);
        for child in 0..2u64 {
            self.push_child(depth);
            let child_path = (path << 1) | child;
            let mut rng = ChaCha8Rng::seed_from_u64(mix(salt, rep, child_path));
            self.contract(depth + 1, target, &mut rng);
            self.prune_self_loops(depth + 1);
            self.recurse(depth + 1, child_path, salt, rep, size, recursions);
        }
    }

    /// Exhaustive bipartition enumeration of a contracted multigraph on
    /// `b ≤ 6` super-vertices: every 2-way partition whose crossing-edge set
    /// has exactly `size` edges *and* whose sides are both connected in the
    /// contracted multigraph is emitted as a candidate. The connectivity
    /// filter matters: a super-vertex is internally connected (it was built
    /// by contracting real edges), so side-connectivity here implies
    /// side-connectivity in the original subgraph — every emitted candidate
    /// is a genuine *induced* cut, never a 3-way split that happens to
    /// disconnect.
    fn enumerate_base(&mut self, depth: usize, size: usize) {
        let Workspace {
            levels,
            ends,
            ids,
            compact,
            roots,
            pairs,
            found,
            cut_buf,
            ..
        } = self;
        let level = &mut levels[depth];
        let parent = &mut level.parent;
        let edges = &mut level.edges;

        // Compact the surviving roots to 0..b in first-appearance order
        // (deterministic), pruning stale self-loops as we go.
        roots.clear();
        pairs.clear();
        let mut w = 0;
        for r in 0..edges.len() {
            let e = edges[r] as usize;
            let (u, v) = ends[e];
            let ru = find(parent, u);
            let rv = find(parent, v);
            if ru == rv {
                continue;
            }
            let mut compact_of = |root: u32| -> u8 {
                let slot = &mut compact[root as usize];
                if *slot == u32::MAX {
                    *slot = roots.len() as u32;
                    roots.push(root);
                }
                *slot as u8
            };
            let cu = compact_of(ru);
            let cv = compact_of(rv);
            edges[w] = e as u32;
            pairs.push((cu, cv));
            w += 1;
        }
        edges.truncate(w);
        let b = roots.len();
        // Reset the sentinel map for the next base call (only touched slots).
        for &root in roots.iter() {
            compact[root as usize] = u32::MAX;
        }
        if b < 2 {
            return;
        }
        debug_assert!(b <= BASE_SIZE);

        // Super-vertex multiplicity matrix and adjacency bitmasks.
        let mut mult = [[0u32; BASE_SIZE]; BASE_SIZE];
        let mut adj = [0u32; BASE_SIZE];
        for &(cu, cv) in pairs.iter() {
            mult[cu as usize][cv as usize] += 1;
            mult[cv as usize][cu as usize] += 1;
            adj[cu as usize] |= 1 << cv;
            adj[cv as usize] |= 1 << cu;
        }
        let full: u32 = (1 << b) - 1;
        let connected = |side: u32| -> bool {
            let mut seen = side & side.wrapping_neg(); // lowest set bit
            loop {
                let mut next = seen;
                let mut frontier = seen;
                while frontier != 0 {
                    let i = frontier.trailing_zeros() as usize;
                    frontier &= frontier - 1;
                    next |= adj[i] & side;
                }
                if next == seen {
                    return seen == side;
                }
                seen = next;
            }
        };

        // Fix super-vertex 0 on side 0; enumerate the non-empty subsets of
        // the rest as side 1.
        for half in 1u32..(1 << (b - 1)) {
            let side1 = half << 1;
            let side0 = full & !side1;
            let mut crossing = 0usize;
            for (a, row) in mult.iter().enumerate().take(b) {
                if side1 & (1 << a) != 0 {
                    continue;
                }
                for (c, &m) in row.iter().enumerate().take(b) {
                    if side1 & (1 << c) != 0 {
                        crossing += m as usize;
                    }
                }
            }
            if crossing != size || !connected(side0) || !connected(side1) {
                continue;
            }
            cut_buf.clear();
            for (i, &(cu, cv)) in pairs.iter().enumerate() {
                if (side1 >> cu) & 1 != (side1 >> cv) & 1 {
                    cut_buf.push(ids[edges[i] as usize]);
                }
            }
            cut_buf.sort();
            found.push(cut_buf.clone());
        }
    }
}

thread_local! {
    /// One pooled [`Workspace`] per worker thread.
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// The recursive Karger–Stein cut enumerator: contract to `⌈n/√2⌉ + 1`
/// super-vertices, recurse twice with independent path-derived seeds,
/// enumerate bipartitions exhaustively on `≤ 6` super-vertices, dedupe in a
/// `BTreeSet` and verify every candidate with the exact removal test. The
/// deterministic vertex-star and adjacent-pair seeds run first.
///
/// Repetition roots run in parallel on the [`Executor`] and merge in
/// repetition order, so results are bit-identical for every executor. The
/// `salt` multiplies the repetition count (up to 32×) *and* re-seeds every
/// recursion node, preserving the `Aug_k` escalation contract.
///
/// Complete w.h.p. in the minimum-cut regime the augmentation driver calls
/// from (`size = λ(H)`); `Aug_k`'s exact post-certification catches the
/// remaining probability mass, so the pipeline output stays exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct KargerSteinEnumerator {
    /// Number of independent recursion repetitions; `None` uses
    /// [`KargerSteinEnumerator::default_repetitions`].
    pub repetitions: Option<u64>,
}

impl KargerSteinEnumerator {
    /// A Karger–Stein enumerator with an explicit repetition count.
    pub fn with_repetitions(repetitions: u64) -> Self {
        KargerSteinEnumerator {
            repetitions: Some(repetitions),
        }
    }

    /// The default repetition count for an `n`-vertex subgraph:
    /// `2 ⌈log2 n⌉²`, at least 12 — the `Θ(log² n)` schedule that finds all
    /// minimum cuts w.h.p., float-free. The constant leans on the
    /// deterministic seeds, the exact per-candidate verification and the
    /// salt-escalation retry above — a missed cut costs a retry at double the
    /// repetitions, never a wrong answer.
    pub fn default_repetitions(n: usize) -> u64 {
        let l = ceil_log2(n);
        (2 * l * l).max(12)
    }
}

impl CutEnumerator for KargerSteinEnumerator {
    fn name(&self) -> &'static str {
        "ks"
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
        let n = graph.n();
        let base = self
            .repetitions
            .unwrap_or_else(|| Self::default_repetitions(n));
        let reps = base.saturating_mul(1u64 << salt.min(5));

        let mut candidates: BTreeSet<Cut> = BTreeSet::new();
        seed_candidates(graph, h, size, &mut candidates);

        // Hoisted metric handles: recursion nodes are too numerous for a
        // registry lookup each.
        let recursions = kecss_obs::counter("ks_recursions_total");
        let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;

        // Each repetition depends only on (salt, rep): run the roots on the
        // executor, merge in repetition order.
        let rep_ids: Vec<u64> = (0..reps).collect();
        let per_rep: Vec<Vec<Cut>> = exec.map(&rep_ids, |&rep| {
            WORKSPACE.with(|cell| {
                let mut ws = cell.borrow_mut();
                ws.prepare(generation, graph, h);
                ws.run_rep(size, salt, rep, &recursions)
            })
        });

        let emitted = kecss_obs::counter("ks_candidates_total");
        let dedupe_hits = kecss_obs::counter("ks_dedupe_hits_total");
        for found in per_rep {
            emitted.add(found.len() as u64);
            for cut in found {
                if !candidates.insert(cut) {
                    dedupe_hits.inc();
                }
            }
        }

        let candidates: Vec<Cut> = candidates.into_iter().collect();
        let mut out = verify_candidates(graph, h, candidates, exec, "ks");
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::naive_induced_cuts;
    use super::super::LabelEnumerator;
    use super::*;
    use graphs::generators;

    #[test]
    fn contract_target_is_ceil_n_over_sqrt2_plus_1() {
        // Reference values from the float formula ⌈n/√2⌉ + 1.
        for (n, expect) in [(7, 6), (8, 7), (10, 9), (16, 13), (32, 24), (256, 183)] {
            assert_eq!(contract_target(n), expect, "n = {n}");
            assert!(contract_target(n) < n, "must shrink at n = {n}");
        }
    }

    #[test]
    fn default_repetitions_grow_with_log_squared() {
        assert_eq!(KargerSteinEnumerator::default_repetitions(2), 12);
        assert_eq!(KargerSteinEnumerator::default_repetitions(32), 50);
        assert_eq!(KargerSteinEnumerator::default_repetitions(256), 128);
        assert!(
            KargerSteinEnumerator::default_repetitions(1 << 20)
                > KargerSteinEnumerator::default_repetitions(256)
        );
    }

    #[test]
    fn tail_trials_match_the_survival_budget() {
        // ⌈n² / 2b²⌉ with b = 6, floored at 1.
        assert_eq!(tail_trials(6), 1);
        assert_eq!(tail_trials(12), 2);
        assert_eq!(tail_trials(27), 11);
        assert_eq!(tail_trials(32), 15);
    }

    #[test]
    fn ks_recursion_above_crossover_matches_label_ground_truth() {
        // n = 40 > CROSSOVER exercises the branch-twice recursion proper
        // (the smaller unit graphs all resolve in the flat tail).
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_k_edge_connected(40, 4, 3, &mut rng);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let ks = KargerSteinEnumerator::default()
            .cuts(&g, &h, 4, 0, &exec)
            .unwrap();
        let label = LabelEnumerator::default()
            .cuts(&g, &h, 4, 0, &exec)
            .unwrap();
        assert!(!ks.is_empty());
        assert_eq!(ks, label);
    }

    #[test]
    fn path_derived_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for salt in 0..3 {
            for rep in 0..4 {
                for path in 1..16 {
                    assert!(seen.insert(mix(salt, rep, path)), "{salt}/{rep}/{path}");
                }
            }
        }
    }

    #[test]
    fn ks_matches_naive_induced_cuts_size_four() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::random_k_edge_connected(9, 4, 3, &mut rng);
        let h = g.full_edge_set();
        let cuts = KargerSteinEnumerator::default()
            .cuts(&g, &h, 4, 0, &Executor::Sequential)
            .unwrap();
        assert_eq!(cuts, naive_induced_cuts(&g, &h, 4));
    }

    #[test]
    fn ks_matches_naive_and_label_on_torus() {
        let g = generators::torus(3, 4, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let ks = KargerSteinEnumerator::default()
            .cuts(&g, &h, 4, 0, &exec)
            .unwrap();
        let label = LabelEnumerator::default()
            .cuts(&g, &h, 4, 0, &exec)
            .unwrap();
        assert_eq!(ks, naive_induced_cuts(&g, &h, 4));
        assert_eq!(ks, label);
    }

    #[test]
    fn salt_escalates_but_results_agree() {
        let g = generators::hypercube(4, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let base = KargerSteinEnumerator::default()
            .cuts(&g, &h, 4, 0, &exec)
            .unwrap();
        assert_eq!(base, naive_induced_cuts(&g, &h, 4));
        for salt in 1..4 {
            let salted = KargerSteinEnumerator::default()
                .cuts(&g, &h, 4, salt, &exec)
                .unwrap();
            assert_eq!(salted, base, "salt {salt}");
        }
    }

    #[test]
    fn threaded_ks_is_bit_identical_to_sequential() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        // One tail-only graph (n = 12) and one that recurses (n = 40).
        let graphs = [
            (generators::random_k_edge_connected(12, 5, 4, &mut rng), 5),
            (generators::random_k_edge_connected(40, 4, 3, &mut rng), 4),
        ];
        for (g, size) in &graphs {
            let h = g.full_edge_set();
            let sequential = KargerSteinEnumerator::default()
                .cuts(g, &h, *size, 0, &Executor::Sequential)
                .unwrap();
            assert!(!sequential.is_empty());
            for threads in [2, 4, 8] {
                let exec = Executor::from_threads(threads);
                let parallel = KargerSteinEnumerator::default()
                    .cuts(g, &h, *size, 0, &exec)
                    .unwrap();
                assert_eq!(parallel, sequential, "n = {}, t = {threads}", g.n());
            }
        }
    }

    #[test]
    fn tiny_graphs_hit_the_exhaustive_base_case() {
        // n ≤ 6 never contracts: the base case alone must be complete.
        let g = generators::harary(3, 6, 1);
        let h = g.full_edge_set();
        let cuts = KargerSteinEnumerator::with_repetitions(1)
            .cuts(&g, &h, 3, 0, &Executor::Sequential)
            .unwrap();
        assert_eq!(cuts, naive_induced_cuts(&g, &h, 3));
    }
}
