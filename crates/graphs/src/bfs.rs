//! Breadth-first search, distances, eccentricities and diameter.
//!
//! The CONGEST model's round complexities are stated in terms of the hop
//! diameter `D` of the communication graph, so the benchmark harness needs
//! exact (small graphs) and 2-approximate (large graphs) diameter
//! computations, as well as plain BFS trees.

use crate::graph::{EdgeId, EdgeSet, Graph, NodeId};
use std::collections::VecDeque;

/// The result of a breadth-first search from a root vertex.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The root of the search.
    pub root: NodeId,
    /// `parent[v]` is the BFS parent of `v`, or `None` for the root and for
    /// unreachable vertices.
    pub parent: Vec<Option<NodeId>>,
    /// `parent_edge[v]` is the edge to the parent, or `None` likewise.
    pub parent_edge: Vec<Option<EdgeId>>,
    /// `dist[v]` is the hop distance from the root, or `usize::MAX` if
    /// unreachable.
    pub dist: Vec<usize>,
    /// Vertices in BFS (non-decreasing distance) order; unreachable vertices
    /// are omitted.
    pub order: Vec<NodeId>,
}

impl BfsTree {
    /// Whether every vertex of the graph was reached.
    pub fn is_spanning(&self) -> bool {
        self.dist.iter().all(|&d| d != usize::MAX)
    }

    /// The maximum distance of any reachable vertex from the root
    /// (the root's eccentricity restricted to its component).
    pub fn eccentricity(&self) -> usize {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0)
    }

    /// The set of tree edges (parent pointers) as an [`EdgeSet`] over the
    /// original graph.
    pub fn tree_edges(&self, graph: &Graph) -> EdgeSet {
        let mut set = graph.empty_edge_set();
        for e in self.parent_edge.iter().flatten() {
            set.insert(*e);
        }
        set
    }
}

/// Runs BFS from `root` over all edges of `graph`.
pub fn bfs(graph: &Graph, root: NodeId) -> BfsTree {
    bfs_in(graph, &graph.full_edge_set(), root)
}

/// Runs BFS from `root` using only the edges in `edges`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn bfs_in(graph: &Graph, edges: &EdgeSet, root: NodeId) -> BfsTree {
    assert!(root < graph.n(), "root {root} out of range");
    let n = graph.n();
    let mut parent = vec![None; n];
    let mut parent_edge = vec![None; n];
    let mut dist = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    dist[root] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &(u, e) in graph.neighbors(v) {
            if edges.contains(e) && dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                parent[u] = Some(v);
                parent_edge[u] = Some(e);
                queue.push_back(u);
            }
        }
    }
    BfsTree {
        root,
        parent,
        parent_edge,
        dist,
        order,
    }
}

/// Hop distances from `root` restricted to `edges` (`usize::MAX` when
/// unreachable).
pub fn distances_in(graph: &Graph, edges: &EdgeSet, root: NodeId) -> Vec<usize> {
    bfs_in(graph, edges, root).dist
}

/// Exact (hop) diameter of the graph, computed with one BFS per vertex.
///
/// Returns `None` if the graph is disconnected or has no vertices.
/// Intended for the modest instance sizes used in tests and benchmarks.
pub fn diameter(graph: &Graph) -> Option<usize> {
    diameter_in(graph, &graph.full_edge_set())
}

/// Exact (hop) diameter restricted to an edge set.
///
/// Returns `None` if the restricted graph is disconnected or empty.
pub fn diameter_in(graph: &Graph, edges: &EdgeSet) -> Option<usize> {
    if graph.n() == 0 {
        return None;
    }
    let mut best = 0;
    for v in 0..graph.n() {
        let t = bfs_in(graph, edges, v);
        if !t.is_spanning() {
            return None;
        }
        best = best.max(t.eccentricity());
    }
    Some(best)
}

/// A 2-approximation of the diameter using two BFS passes (the second from a
/// farthest vertex of the first). Returns `None` when disconnected.
///
/// The returned value `d` satisfies `true_diameter / 2 <= d <= true_diameter`
/// for connected graphs; on trees it is exact.
pub fn approx_diameter(graph: &Graph) -> Option<usize> {
    if graph.n() == 0 {
        return None;
    }
    let first = bfs(graph, 0);
    if !first.is_spanning() {
        return None;
    }
    let far = first
        .dist
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .map(|(v, _)| v)
        .unwrap_or(0);
    let second = bfs(graph, far);
    Some(second.eccentricity())
}

/// The largest vertex count for which [`diameter_hint`] computes the exact
/// diameter; above it, the double-sweep 2-approximation is used.
pub const EXACT_DIAMETER_MAX_N: usize = 4096;

/// The accounting diameter: the one `D` every solver and the verifier charge
/// CONGEST rounds against. Exact (one BFS per vertex) up to
/// [`EXACT_DIAMETER_MAX_N`] vertices — which covers every test and benchmark
/// instance — and the [`approx_diameter`] double sweep beyond, where
/// `O(n · m)` exact computation would dominate the solve itself (charged
/// CONGEST rounds stay within a factor 2 of the exact-`D` charge).
///
/// Computed once per frozen graph: the value is memoized beside the CSR and
/// dropped by [`Graph::add_edge`]. Deterministic for a given graph. Returns
/// `None` when disconnected.
pub fn diameter_hint(graph: &Graph) -> Option<usize> {
    *graph.diameter_memo().get_or_init(|| {
        if graph.n() <= EXACT_DIAMETER_MAX_N {
            diameter(graph)
        } else {
            approx_diameter(graph)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path_gives_linear_distances() {
        let g = generators::path(5, 1);
        let t = bfs(&g, 0);
        assert_eq!(t.dist, vec![0, 1, 2, 3, 4]);
        assert!(t.is_spanning());
        assert_eq!(t.eccentricity(), 4);
        assert_eq!(t.order.len(), 5);
        assert_eq!(t.parent[0], None);
        assert_eq!(t.parent[3], Some(2));
    }

    #[test]
    fn bfs_respects_edge_mask() {
        let mut g = Graph::new(3);
        let a = g.add_edge(0, 1, 1);
        let _b = g.add_edge(1, 2, 1);
        let only_a = EdgeSet::from_ids(g.m(), [a]);
        let t = bfs_in(&g, &only_a, 0);
        assert_eq!(t.dist[1], 1);
        assert_eq!(t.dist[2], usize::MAX);
        assert!(!t.is_spanning());
    }

    #[test]
    fn tree_edges_form_spanning_tree_on_connected_graph() {
        let g = generators::cycle(6, 1);
        let t = bfs(&g, 0);
        let edges = t.tree_edges(&g);
        assert_eq!(edges.len(), 5);
    }

    #[test]
    fn diameter_of_cycle_and_path() {
        let c = generators::cycle(8, 1);
        assert_eq!(diameter(&c), Some(4));
        let p = generators::path(8, 1);
        assert_eq!(diameter(&p), Some(7));
        assert_eq!(approx_diameter(&p), Some(7));
        // The memoized accounting diameter agrees, on the first and the
        // memoized call alike.
        for g in [&c, &p] {
            for _ in 0..2 {
                assert_eq!(diameter_hint(g), diameter(g));
            }
        }
    }

    #[test]
    fn diameter_of_disconnected_graph_is_none() {
        let g = Graph::new(3);
        assert_eq!(diameter(&g), None);
        assert_eq!(approx_diameter(&g), None);
    }

    #[test]
    fn approx_diameter_within_factor_two() {
        let g = generators::complete(9, 1);
        let exact = diameter(&g).unwrap();
        let approx = approx_diameter(&g).unwrap();
        assert!(approx <= exact);
        assert!(approx * 2 >= exact);
    }

    #[test]
    fn distances_in_matches_bfs() {
        let g = generators::cycle(5, 1);
        let d = distances_in(&g, &g.full_edge_set(), 2);
        assert_eq!(d[2], 0);
        assert_eq!(d[0], 2);
        assert_eq!(d[4], 2);
    }
}
