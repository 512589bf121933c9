//! Cycle-space sampling (Pritchard–Thurimella), Section 5.1 of the paper.
//!
//! A *binary circulation* is an edge set in which every vertex has even
//! degree; the fundamental cycles of any spanning tree form a basis of the
//! cycle space (Claim 5.2). Sampling a random `b`-bit circulation assigns
//! every edge a `b`-bit label `φ(e)` such that, with probability at least
//! `1 - 2^{-b}` per query (Corollary 5.3), a set of edges `F` is an induced
//! edge cut if and only if the XOR of its labels is zero. Specialized to cut
//! pairs in a 2-edge-connected graph (Property 5.1): `{e, f}` is a cut pair
//! iff `φ(e) = φ(f)`.
//!
//! The labels are computable distributively in `O(D)` rounds by a single
//! leaf-to-root scan of a BFS tree (Lemma 5.5); this module computes the same
//! labels centrally and the callers charge the `O(D)` cost to their round
//! ledger.

use graphs::{EdgeId, EdgeSet, Graph, RootedTree};
use rand::Rng;

/// A sampled random `b`-bit circulation over a 2-edge-connected subgraph `H`,
/// exposing the per-edge labels `φ(e)`.
#[derive(Clone, Debug)]
pub struct Circulation {
    labels: Vec<Option<u64>>,
    bits: u32,
}

impl Circulation {
    /// Samples a random `bits`-bit circulation of the subgraph `h` of `graph`,
    /// using `tree` (a spanning tree of `h`) as the fundamental-cycle basis.
    ///
    /// Every non-tree edge of `h` receives an independent uniform `bits`-bit
    /// label; every tree edge receives the XOR of the labels of the non-tree
    /// edges whose fundamental cycle contains it.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64, or if `tree` contains an edge
    /// outside `h`.
    pub fn sample<R: Rng>(
        graph: &Graph,
        h: &EdgeSet,
        tree: &RootedTree,
        bits: u32,
        rng: &mut R,
    ) -> Self {
        assert!(
            (1..=64).contains(&bits),
            "label width must be between 1 and 64 bits"
        );
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        for c in tree.edge_children() {
            let t = tree
                .parent_edge(c)
                .expect("non-root vertex has a parent edge");
            assert!(h.contains(t), "tree edge outside H");
        }
        let mut labels: Vec<Option<u64>> = vec![None; graph.m()];
        // Accumulate, per vertex, the XOR of the labels of incident non-tree edges.
        let mut acc = vec![0u64; graph.n()];
        for id in h.iter() {
            // A tree edge is the parent edge of one of its endpoints.
            let e = graph.edge(id);
            if tree.parent_edge(e.u) == Some(id) || tree.parent_edge(e.v) == Some(id) {
                continue;
            }
            let label = rng.gen::<u64>() & mask;
            labels[id.index()] = Some(label);
            acc[e.u] ^= label;
            acc[e.v] ^= label;
        }
        // Tree edge {v, p(v)} label = XOR of acc over the subtree of v: a
        // non-tree edge contributes to the subtree XOR once iff exactly one of
        // its endpoints lies in the subtree, i.e. iff its fundamental cycle
        // uses the tree edge.
        let mut subtree = acc;
        for &v in tree.bfs_order().iter().rev() {
            if let Some(p) = tree.parent(v) {
                let edge = tree
                    .parent_edge(v)
                    .expect("non-root vertex has a parent edge");
                labels[edge.index()] = Some(subtree[v]);
                subtree[p] ^= subtree[v];
            }
        }
        Circulation { labels, bits }
    }

    /// The label width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The label of an edge of `H`, or `None` for edges outside `H`.
    pub fn label(&self, edge: EdgeId) -> Option<u64> {
        self.labels.get(edge.index()).copied().flatten()
    }

    /// The XOR of the labels of a set of edges (all must belong to `H`).
    ///
    /// # Panics
    ///
    /// Panics if any edge has no label (is outside `H`).
    pub fn xor_of(&self, edges: &[EdgeId]) -> u64 {
        edges
            .iter()
            .map(|e| self.label(*e).expect("edge outside the labelled subgraph"))
            .fold(0, |a, b| a ^ b)
    }

    /// Groups the edges of `h` by label. Under Property 5.1 (which holds
    /// w.h.p. for `bits = Ω(log n)`), two edges of a 2-edge-connected `H`
    /// form a cut pair iff they share a label, so every group of size ≥ 2 is
    /// an equivalence class of cut pairs and the graph is 3-edge-connected iff
    /// all groups are singletons.
    pub fn label_classes(&self, h: &EdgeSet) -> Vec<Vec<EdgeId>> {
        let mut map: std::collections::HashMap<u64, Vec<EdgeId>> = std::collections::HashMap::new();
        for id in h.iter() {
            if let Some(l) = self.label(id) {
                map.entry(l).or_default().push(id);
            }
        }
        let mut classes: Vec<Vec<EdgeId>> = map.into_values().collect();
        classes.sort_by_key(|c| c.first().copied());
        classes
    }

    /// All cut pairs implied by the labels: every unordered pair within a
    /// label class of size ≥ 2.
    pub fn cut_pairs(&self, h: &EdgeSet) -> Vec<(EdgeId, EdgeId)> {
        let mut pairs = Vec::new();
        for class in self.label_classes(h) {
            for i in 0..class.len() {
                for j in (i + 1)..class.len() {
                    pairs.push((class[i], class[j]));
                }
            }
        }
        pairs
    }

    /// Enumerates every subset of exactly `size` edges of `h` whose labels
    /// XOR to zero — the generalized label-class characterization of
    /// Corollary 5.3: an *induced* cut always XORs to zero (a circulation
    /// crosses every cut an even number of times, with certainty), and a
    /// non-cut XORs to zero only with probability `2^{-bits}` per subset.
    /// The size-2 case degenerates to the label classes of
    /// [`Circulation::label_classes`]; size 3 to XOR-completing triples.
    ///
    /// Subsets are generated in lexicographic edge-id order: the first
    /// `size - 1` edges are chosen in increasing id order and the last edge
    /// is found by a label lookup, so the total work is
    /// `O(binom(|h|, size - 1))` plus the matches. `budget` caps the number
    /// of visited partial subsets and candidate completions; `None` is
    /// returned when the cap is exceeded (the candidate pool "explodes"),
    /// signalling the caller to fall back to a sampling enumerator.
    pub fn xor_zero_subsets(
        &self,
        h: &EdgeSet,
        size: usize,
        budget: u64,
    ) -> Option<Vec<Vec<EdgeId>>> {
        assert!(size >= 1, "subset size must be at least 1");
        let ids: Vec<EdgeId> = h.iter().collect();
        let labels: Vec<u64> = ids
            .iter()
            .map(|&id| self.label(id).expect("edge of h has a label"))
            .collect();
        let mut visited = 0u64;
        let mut out = Vec::new();
        if size == 1 {
            for (i, &label) in labels.iter().enumerate() {
                visited += 1;
                if visited > budget {
                    return None;
                }
                if label == 0 {
                    out.push(vec![ids[i]]);
                }
            }
            return Some(out);
        }
        // label -> indices into `ids` (increasing), for completing a prefix of
        // `size - 1` edges into an XOR-zero subset with one lookup.
        let mut by_label: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &label) in labels.iter().enumerate() {
            by_label.entry(label).or_default().push(i);
        }
        let mut prefix = Vec::with_capacity(size);
        let complete = extend_prefix(
            &ids,
            &labels,
            &by_label,
            size,
            0,
            0,
            &mut prefix,
            &mut visited,
            budget,
            &mut out,
        );
        complete.then_some(out)
    }
}

/// Recursive helper of [`Circulation::xor_zero_subsets`]: extends `prefix`
/// (already XOR-ing to `acc`) with edges at indices `>= start`, completing it
/// via the label lookup once `size - 1` edges are chosen. Returns `false` as
/// soon as `budget` visits are exceeded.
#[allow(clippy::too_many_arguments)]
fn extend_prefix(
    ids: &[EdgeId],
    labels: &[u64],
    by_label: &std::collections::HashMap<u64, Vec<usize>>,
    size: usize,
    start: usize,
    acc: u64,
    prefix: &mut Vec<EdgeId>,
    visited: &mut u64,
    budget: u64,
    out: &mut Vec<Vec<EdgeId>>,
) -> bool {
    if prefix.len() == size - 1 {
        // The last edge must carry label `acc` and come after the prefix.
        if let Some(completions) = by_label.get(&acc) {
            for &j in completions {
                *visited += 1;
                if *visited > budget {
                    return false;
                }
                if j >= start {
                    let mut subset = prefix.clone();
                    subset.push(ids[j]);
                    out.push(subset);
                }
            }
        }
        return true;
    }
    let needed = size - prefix.len(); // including the completing edge
    if ids.len() < needed {
        return true;
    }
    for i in start..=(ids.len() - needed) {
        *visited += 1;
        if *visited > budget {
            return false;
        }
        prefix.push(ids[i]);
        let ok = extend_prefix(
            ids,
            labels,
            by_label,
            size,
            i + 1,
            acc ^ labels[i],
            prefix,
            visited,
            budget,
            out,
        );
        prefix.pop();
        if !ok {
            return false;
        }
    }
    true
}

/// The number of CONGEST rounds charged for computing the labels
/// distributively: one leaf-to-root scan of the spanning tree plus the local
/// random choices (Lemma 5.5), i.e. `O(depth(tree))`.
pub fn labelling_rounds(tree: &RootedTree) -> u64 {
    tree.height() as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{connectivity, generators, mst};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn spanning_tree(graph: &Graph, h: &EdgeSet) -> RootedTree {
        let bfs = graphs::bfs::bfs_in(graph, h, 0);
        RootedTree::new(graph, &bfs.tree_edges(graph), 0)
    }

    /// Exact (slow) cut-pair test by removal.
    fn is_cut_pair(graph: &Graph, h: &EdgeSet, a: EdgeId, b: EdgeId) -> bool {
        !connectivity::is_connected_after_removal(graph, h, &[a, b])
    }

    #[test]
    fn cycle_graph_has_all_equal_labels() {
        let g = generators::cycle(6, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        let labels: Vec<u64> = h.iter().map(|e| c.label(e).unwrap()).collect();
        assert!(
            labels.windows(2).all(|w| w[0] == w[1]),
            "every pair of cycle edges is a cut pair"
        );
        assert_eq!(c.cut_pairs(&h).len(), 6 * 5 / 2);
    }

    #[test]
    fn three_edge_connected_graph_has_distinct_labels() {
        let g = generators::complete(6, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        assert!(
            c.cut_pairs(&h).is_empty(),
            "K6 is 5-edge-connected: no cut pairs"
        );
        assert!(c.label_classes(&h).iter().all(|cl| cl.len() == 1));
    }

    #[test]
    fn labels_match_exact_cut_pairs_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [8, 12, 16] {
            let g = generators::random_k_edge_connected(n, 2, 3, &mut rng);
            let h = g.full_edge_set();
            let tree = spanning_tree(&g, &h);
            let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
            // With 64-bit labels, false positives are vanishingly unlikely at
            // this size; check both directions pairwise.
            let ids: Vec<EdgeId> = h.iter().collect();
            for i in 0..ids.len() {
                for j in (i + 1)..ids.len() {
                    let same = c.label(ids[i]) == c.label(ids[j]);
                    let real = is_cut_pair(&g, &h, ids[i], ids[j]);
                    assert_eq!(same, real, "pair ({:?}, {:?}) n={n}", ids[i], ids[j]);
                }
            }
        }
    }

    #[test]
    fn xor_of_a_cut_is_zero() {
        // In the 6-cycle, any two edges form a cut; their XOR must be zero.
        let g = generators::cycle(6, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        assert_eq!(c.xor_of(&[EdgeId(0), EdgeId(3)]), 0);
    }

    #[test]
    fn one_bit_labels_cannot_separate_everything() {
        // With b = 1 many non-cut pairs collide; this is the error-probability
        // regime that experiment E7 sweeps.
        let g = generators::complete(8, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let c = Circulation::sample(&g, &h, &tree, 1, &mut rng);
        // There are no real cut pairs, but with 1-bit labels collisions are
        // essentially certain among 28 edges.
        assert!(!c.cut_pairs(&h).is_empty());
    }

    #[test]
    fn labels_only_exist_for_h_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::cycle(5, 1);
        let mut h = g.full_edge_set();
        h.remove(EdgeId(4));
        // H is now a path (spanning, connected).
        let tree = spanning_tree(&g, &h);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        assert_eq!(c.label(EdgeId(4)), None);
        assert!(c.label(EdgeId(0)).is_some());
    }

    #[test]
    fn tree_edge_label_is_xor_of_covering_nontree_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let g = generators::random_k_edge_connected(10, 2, 5, &mut rng);
        let h = g.full_edge_set();
        let tree_edges = mst::kruskal(&g);
        let tree = RootedTree::new(&g, &tree_edges, 0);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        for child in tree.edge_children() {
            let t = tree.parent_edge(child).unwrap();
            let mut expected = 0u64;
            for (id, e) in g.edges() {
                if tree_edges.contains(id) || !h.contains(id) {
                    continue;
                }
                if tree.path_edges(e.u, e.v).contains(&t) {
                    expected ^= c.label(id).unwrap();
                }
            }
            assert_eq!(c.label(t), Some(expected));
        }
    }

    #[test]
    fn labelling_rounds_is_tree_height() {
        let g = generators::path(9, 1);
        let tree = spanning_tree(&g, &g.full_edge_set());
        assert_eq!(labelling_rounds(&tree), 9);
    }

    #[test]
    #[should_panic(expected = "tree edge outside H")]
    fn tree_edge_outside_h_rejected() {
        let g = generators::cycle(5, 1);
        let tree = spanning_tree(&g, &g.full_edge_set());
        let mut h = g.full_edge_set();
        h.remove(tree.parent_edge(1).expect("vertex 1 has a parent edge"));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        Circulation::sample(&g, &h, &tree, 64, &mut rng);
    }

    #[test]
    #[should_panic(expected = "between 1 and 64")]
    fn zero_bit_labels_rejected() {
        let g = generators::cycle(4, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        Circulation::sample(&g, &h, &tree, 0, &mut rng);
    }
}
