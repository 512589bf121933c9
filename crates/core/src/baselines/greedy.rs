//! The sequential greedy set-cover augmentation (the algorithm of Section 2.1
//! before parallelization): repeatedly add the edge with maximum
//! cost-effectiveness until every cut is covered.
//!
//! This is the classical `O(log n)`-approximation; the distributed algorithms
//! are compared against it to show they lose only a constant factor in
//! quality while being exponentially faster in rounds.

use super::BaselineSolution;
use crate::cover;
use crate::cuts::{AutoEnumerator, CutEnumerator, CutFamily};
use crate::error::{Error, Result};
use graphs::{connectivity, EdgeSet, Graph, RootedTree};

/// Greedy weighted TAP: cover all tree edges of `tree_edges` with non-tree
/// edges, always picking the edge maximizing (newly covered) / weight.
///
/// # Panics
///
/// Panics if the graph is not 2-edge-connected (some tree edge cannot be
/// covered).
pub fn tap(graph: &Graph, tree_edges: &EdgeSet) -> BaselineSolution {
    let tree = RootedTree::new(graph, tree_edges, 0);
    let non_tree: Vec<(graphs::EdgeId, usize, usize, u64)> = graph
        .edges()
        .filter(|(id, _)| !tree_edges.contains(*id))
        .map(|(id, e)| (id, e.u, e.v, e.weight))
        .collect();
    let mut covered = vec![false; graph.n()];
    covered[tree.root()] = true; // the root has no parent edge
    let mut uncovered = graph.n() - 1;
    let mut chosen = graph.empty_edge_set();

    while uncovered > 0 {
        let mut best: Option<(f64, graphs::EdgeId)> = None;
        let mut best_path: Vec<usize> = Vec::new();
        for &(id, u, v, w) in &non_tree {
            if chosen.contains(id) {
                continue;
            }
            let path: Vec<usize> = tree
                .path_edge_children(u, v)
                .into_iter()
                .filter(|&c| !covered[c])
                .collect();
            if path.is_empty() {
                continue;
            }
            let value = cover::exact(path.len(), w);
            let better = match best {
                None => true,
                Some((bv, bid)) => value > bv || (value == bv && id < bid),
            };
            if better {
                best = Some((value, id));
                best_path = path;
            }
        }
        let (_, id) = best.expect("graph must be 2-edge-connected: every tree edge has a cover");
        chosen.insert(id);
        for c in best_path {
            covered[c] = true;
            uncovered -= 1;
        }
    }

    let weight = graph.weight_of(&chosen);
    BaselineSolution {
        edges: chosen,
        weight,
    }
}

/// Greedy augmentation of a `(size+1 - 1) = size`-cut family: cover every cut
/// of the family with edges outside `h`, maximizing (newly covered) / weight.
///
/// This is the sequential counterpart of `Aug_k` with `size = k - 1`.
///
/// # Panics
///
/// Panics if some cut cannot be covered by any edge of the graph.
pub fn augment_cuts(graph: &Graph, h: &EdgeSet, family: &CutFamily) -> BaselineSolution {
    let mut covered = vec![false; family.len()];
    let mut uncovered = family.len();
    let mut chosen = graph.empty_edge_set();
    let candidates: Vec<(graphs::EdgeId, usize, usize, u64)> = graph
        .edges()
        .filter(|(id, _)| !h.contains(*id))
        .map(|(id, e)| (id, e.u, e.v, e.weight))
        .collect();

    while uncovered > 0 {
        let mut best: Option<(f64, graphs::EdgeId)> = None;
        let mut best_covers: Vec<usize> = Vec::new();
        for &(id, u, v, w) in &candidates {
            if chosen.contains(id) {
                continue;
            }
            let covers: Vec<usize> = (0..family.len())
                .filter(|&c| !covered[c] && family.crossed_by(c, u, v))
                .collect();
            if covers.is_empty() {
                continue;
            }
            let value = cover::exact(covers.len(), w);
            let better = match best {
                None => true,
                Some((bv, bid)) => value > bv || (value == bv && id < bid),
            };
            if better {
                best = Some((value, id));
                best_covers = covers;
            }
        }
        let (_, id) = best.expect("every cut must be coverable by some graph edge");
        chosen.insert(id);
        for c in best_covers {
            covered[c] = true;
            uncovered -= 1;
        }
    }

    let weight = graph.weight_of(&chosen);
    BaselineSolution {
        edges: chosen,
        weight,
    }
}

/// Greedy weighted k-ECSS: MST for the first connectivity level, then greedy
/// cut augmentation level by level (the sequential analogue of Claim 2.1).
/// Any `k >= 1` is supported (the pluggable cut enumerators lifted the former
/// `k <= 4` cap).
///
/// # Panics
///
/// Panics if the graph is not k-edge-connected or the cut enumeration fails.
pub fn k_ecss(graph: &Graph, k: usize) -> BaselineSolution {
    k_ecss_with_enumerator(
        graph,
        k,
        &kecss_runtime::Executor::Sequential,
        &AutoEnumerator,
    )
    .expect("greedy k-ECSS on a k-edge-connected graph cannot fail with the auto enumerator")
}

/// The general greedy entry point: explicit executor and
/// [`CutEnumerator`] strategy. Like `Aug_k`, each level's cover is certified
/// exactly, so the returned subgraph is always genuinely k-edge-connected.
///
/// # Errors
///
/// Whatever the enumerator reports, plus [`Error::IncompleteEnumeration`] if
/// a level fails its certification.
///
/// # Panics
///
/// Panics if `k == 0` or the graph is not k-edge-connected (some cut has no
/// covering edge).
pub fn k_ecss_with_enumerator(
    graph: &Graph,
    k: usize,
    exec: &kecss_runtime::Executor,
    enumerator: &dyn CutEnumerator,
) -> Result<BaselineSolution> {
    assert!(k >= 1, "k must be at least 1");
    // Observational only (DESIGN.md §11) — never feeds back into the bytes.
    let _solve_span = kecss_obs::span("solve");
    let mut h = {
        let _span = kecss_obs::span("mst");
        graphs::mst::kruskal(graph)
    };
    for level in 2..=k {
        let family =
            CutFamily::enumerate_with_enumerator(graph, &h, level - 1, enumerator, 0, exec)?;
        let added = augment_cuts(graph, &h, &family);
        h.union_with(&added.edges);
        if !connectivity::is_k_edge_connected_in(graph, &h, level) {
            return Err(Error::IncompleteEnumeration { size: level - 1 });
        }
    }
    let weight = graph.weight_of(&h);
    Ok(BaselineSolution { edges: h, weight })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{connectivity, generators, mst};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn greedy_tap_covers_every_tree_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in [8, 16, 32] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 2 * n, 40, &mut rng);
            let tree = mst::kruskal(&g);
            let sol = tap(&g, &tree);
            let union = tree.union(&sol.edges);
            assert!(
                connectivity::is_two_edge_connected_in(&g, &union),
                "n = {n}"
            );
            assert_eq!(sol.weight, g.weight_of(&sol.edges));
        }
    }

    #[test]
    fn greedy_tap_on_cycle_picks_the_single_closing_edge() {
        let g = generators::cycle(6, 2);
        let tree = mst::kruskal(&g);
        let sol = tap(&g, &tree);
        assert_eq!(sol.edges.len(), 1);
        assert_eq!(sol.weight, 2);
    }

    #[test]
    fn greedy_prefers_cheap_wide_covers() {
        // A path 0-1-2-3 plus an expensive parallel cover per edge and one
        // cheap edge covering everything: greedy must take the cheap one.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        let expensive1 = g.add_edge(0, 1, 10);
        let expensive2 = g.add_edge(1, 2, 10);
        let cheap = g.add_edge(0, 3, 3);
        let _ = expensive1;
        let _ = expensive2;
        let tree = graphs::EdgeSet::from_ids(
            g.m(),
            [graphs::EdgeId(0), graphs::EdgeId(1), graphs::EdgeId(2)],
        );
        let sol = tap(&g, &tree);
        assert!(sol.edges.contains(cheap));
        assert_eq!(sol.weight, 3);
    }

    #[test]
    fn greedy_k_ecss_produces_k_connected_subgraph() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for k in 2..=3 {
            let g = generators::random_weighted_k_edge_connected(14, k, 20, 12, &mut rng);
            let sol = k_ecss(&g, k);
            assert!(
                connectivity::is_k_edge_connected_in(&g, &sol.edges, k),
                "k = {k}: greedy result must be {k}-edge-connected"
            );
        }
    }

    #[test]
    fn greedy_k_ecss_works_past_the_former_cap() {
        let g = generators::harary(5, 12, 1);
        let sol = k_ecss(&g, 5);
        assert!(connectivity::is_k_edge_connected_in(&g, &sol.edges, 5));
    }

    #[test]
    fn augment_cuts_covers_the_family() {
        let g = generators::cycle(8, 1);
        // H = the cycle; cover all its cut pairs to reach 3-edge-connectivity…
        // which is impossible in the cycle alone, so use a richer graph.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g2 = generators::random_k_edge_connected(10, 3, 5, &mut rng);
        let h = mst::kruskal(&g2);
        // Augment connectivity 1 -> 2: cover all bridges of H.
        let family = CutFamily::enumerate(&g2, &h, 1).unwrap();
        let sol = augment_cuts(&g2, &h, &family);
        let union = h.union(&sol.edges);
        assert!(connectivity::is_two_edge_connected_in(&g2, &union));
        drop(g);
    }
}
