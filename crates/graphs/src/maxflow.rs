//! Unit-capacity maximum flow for exact edge-connectivity queries.
//!
//! Edge connectivity between two vertices of an undirected graph equals the
//! maximum number of edge-disjoint paths between them (Menger), which is the
//! value of a maximum flow where every undirected edge has capacity one in
//! each direction. The verifier uses this to certify the outputs of every
//! k-ECSS algorithm, so it is deliberately simple (BFS augmenting paths) and
//! exact.

use crate::graph::{EdgeSet, Graph, NodeId};
use std::collections::VecDeque;

/// A residual arc in the unit-capacity flow network.
#[derive(Clone, Copy, Debug)]
struct Arc {
    to: NodeId,
    /// Residual capacity (0 or 1 initially; reverse arcs also start at 1
    /// because the edge is undirected).
    cap: u32,
    /// Index of the reverse arc in the arena.
    rev: usize,
}

/// A reusable unit-capacity max-flow solver over a masked subgraph.
///
/// The per-vertex arc lists are stored CSR-style (offsets into one contiguous
/// arc-index array) so the BFS inner loop walks flat memory: no per-vertex
/// `Vec`s, built with a counting sort over the masked edge set.
#[derive(Clone, Debug)]
pub struct UnitFlow {
    n: usize,
    arcs: Vec<Arc>,
    /// `head_offsets[v]..head_offsets[v + 1]` indexes `head_arcs` for `v`.
    head_offsets: Vec<usize>,
    /// Arc-arena indices, grouped by owning vertex.
    head_arcs: Vec<usize>,
}

impl UnitFlow {
    /// Builds the flow network for the subgraph of `graph` given by `edges`.
    pub fn new(graph: &Graph, edges: &EdgeSet) -> Self {
        let n = graph.n();
        let mut head_offsets = vec![0usize; n + 1];
        for id in edges.iter() {
            let e = graph.edge(id);
            head_offsets[e.u + 1] += 1;
            head_offsets[e.v + 1] += 1;
        }
        for v in 0..n {
            head_offsets[v + 1] += head_offsets[v];
        }
        let mut arcs = Vec::with_capacity(2 * edges.len());
        let mut head_arcs = vec![0usize; 2 * edges.len()];
        let mut cursor = head_offsets.clone();
        for id in edges.iter() {
            let e = graph.edge(id);
            let a = arcs.len();
            // Undirected unit edge: both directions start at capacity 1.
            arcs.push(Arc {
                to: e.v,
                cap: 1,
                rev: a + 1,
            });
            arcs.push(Arc {
                to: e.u,
                cap: 1,
                rev: a,
            });
            head_arcs[cursor[e.u]] = a;
            cursor[e.u] += 1;
            head_arcs[cursor[e.v]] = a + 1;
            cursor[e.v] += 1;
        }
        UnitFlow {
            n,
            arcs,
            head_offsets,
            head_arcs,
        }
    }

    /// The arc-arena indices incident to `v`.
    #[inline]
    fn head(&self, v: NodeId) -> &[usize] {
        &self.head_arcs[self.head_offsets[v]..self.head_offsets[v + 1]]
    }

    fn reset(&mut self) {
        // Undirected unit edges: both directions back to capacity 1.
        for arc in &mut self.arcs {
            arc.cap = 1;
        }
    }

    /// Maximum `s`–`t` flow value, stopping early once it reaches `limit`.
    ///
    /// With unit capacities each augmentation adds exactly one unit, so the
    /// cost is `O(limit * m)`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either vertex is out of range.
    pub fn max_flow_capped(&mut self, s: NodeId, t: NodeId, limit: u32) -> u32 {
        self.max_flow_from_set_capped(&[s], t, limit)
    }

    /// Maximum `s`–`t` flow value (uncapped; bounded by the degree of `s`).
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> u32 {
        let cap = self.head(s).len() as u32;
        self.max_flow_capped(s, t, cap)
    }

    /// Maximum flow from the vertex set `sources`, contracted into one
    /// super-source, to `t`, stopping early once it reaches `limit`. The
    /// flow stays in the network afterwards, so [`UnitFlow::residual`] reads
    /// its residual graph.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, contains `t`, or a vertex is out of
    /// range.
    pub fn max_flow_from_set_capped(&mut self, sources: &[NodeId], t: NodeId, limit: u32) -> u32 {
        assert!(!sources.is_empty(), "the source set must not be empty");
        assert!(
            t < self.n && sources.iter().all(|&s| s < self.n),
            "flow endpoints out of range"
        );
        assert!(!sources.contains(&t), "source and sink must differ");
        self.reset();
        let mut flow = 0;
        while flow < limit && self.augment(sources, t) {
            flow += 1;
        }
        flow
    }

    /// The residual neighbours of `v` under the current flow: with
    /// `outgoing`, every `w` with a residual arc `v → w`; otherwise every
    /// `w` with a residual arc `w → v`. A vertex appears once per residual
    /// arc (parallel edges repeat it).
    pub fn residual(&self, v: NodeId, outgoing: bool) -> impl Iterator<Item = NodeId> + '_ {
        self.head(v).iter().filter_map(move |&ai| {
            let arc = self.arcs[ai];
            let cap = if outgoing {
                arc.cap
            } else {
                self.arcs[arc.rev].cap
            };
            (cap > 0).then_some(arc.to)
        })
    }

    /// Finds one augmenting path from the source set by BFS and pushes one
    /// unit along it.
    fn augment(&mut self, sources: &[NodeId], t: NodeId) -> bool {
        let mut pred: Vec<Option<usize>> = vec![None; self.n];
        let mut seen = vec![false; self.n];
        let mut queue = VecDeque::with_capacity(sources.len());
        for &s in sources {
            seen[s] = true;
            queue.push_back(s);
        }
        'bfs: while let Some(v) = queue.pop_front() {
            for &ai in self.head(v) {
                let arc = self.arcs[ai];
                if arc.cap > 0 && !seen[arc.to] {
                    seen[arc.to] = true;
                    pred[arc.to] = Some(ai);
                    if arc.to == t {
                        break 'bfs;
                    }
                    queue.push_back(arc.to);
                }
            }
        }
        if !seen[t] {
            return false;
        }
        // Walk back from t to the source it was reached from (sources have
        // no predecessor), pushing one unit.
        let mut v = t;
        while let Some(ai) = pred[v] {
            self.arcs[ai].cap -= 1;
            let rev = self.arcs[ai].rev;
            self.arcs[rev].cap += 1;
            v = self.arcs[rev].to;
        }
        true
    }
}

/// The local edge connectivity between `s` and `t` in the subgraph given by
/// `edges` (the maximum number of edge-disjoint `s`–`t` paths).
pub fn local_edge_connectivity_in(graph: &Graph, edges: &EdgeSet, s: NodeId, t: NodeId) -> u32 {
    UnitFlow::new(graph, edges).max_flow(s, t)
}

/// The local edge connectivity capped at `limit` (early exit).
pub fn local_edge_connectivity_capped(
    graph: &Graph,
    edges: &EdgeSet,
    s: NodeId,
    t: NodeId,
    limit: u32,
) -> u32 {
    UnitFlow::new(graph, edges).max_flow_capped(s, t, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn flow_on_cycle_is_two() {
        let g = generators::cycle(6, 1);
        let all = g.full_edge_set();
        assert_eq!(local_edge_connectivity_in(&g, &all, 0, 3), 2);
    }

    #[test]
    fn flow_on_path_is_one() {
        let g = generators::path(4, 1);
        let all = g.full_edge_set();
        assert_eq!(local_edge_connectivity_in(&g, &all, 0, 3), 1);
    }

    #[test]
    fn flow_on_complete_graph_equals_degree() {
        let g = generators::complete(5, 1);
        let all = g.full_edge_set();
        assert_eq!(local_edge_connectivity_in(&g, &all, 0, 4), 4);
    }

    #[test]
    fn capped_flow_stops_early() {
        let g = generators::complete(6, 1);
        let all = g.full_edge_set();
        assert_eq!(local_edge_connectivity_capped(&g, &all, 0, 5, 2), 2);
    }

    #[test]
    fn flow_respects_edge_mask() {
        let g = generators::cycle(5, 1);
        let mut half = g.empty_edge_set();
        // Keep only edges 0-1, 1-2 (a path); connectivity drops to 1.
        half.insert(crate::EdgeId(0));
        half.insert(crate::EdgeId(1));
        assert_eq!(local_edge_connectivity_in(&g, &half, 0, 2), 1);
        assert_eq!(local_edge_connectivity_in(&g, &half, 0, 3), 0);
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 1, 1);
        let all = g.full_edge_set();
        assert_eq!(local_edge_connectivity_in(&g, &all, 0, 1), 3);
    }

    #[test]
    fn disconnected_vertices_have_zero_flow() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(2, 3, 1);
        let all = g.full_edge_set();
        assert_eq!(local_edge_connectivity_in(&g, &all, 0, 3), 0);
    }

    #[test]
    fn reusing_solver_resets_flow() {
        let g = generators::cycle(5, 1);
        let all = g.full_edge_set();
        let mut f = UnitFlow::new(&g, &all);
        assert_eq!(f.max_flow(0, 2), 2);
        assert_eq!(f.max_flow(1, 3), 2);
        assert_eq!(f.max_flow(0, 2), 2);
    }

    #[test]
    fn source_set_flow_contracts_the_sources() {
        // On the 6-cycle, {0, 1, 2} → 4 is cut by the two edges leaving the
        // arc 0..=2; the residual graph after the flow reaches nothing past
        // the sources from the source side.
        let g = generators::cycle(6, 1);
        let all = g.full_edge_set();
        let mut f = UnitFlow::new(&g, &all);
        assert_eq!(f.max_flow_from_set_capped(&[0, 1, 2], 4, 5), 2);
        let mut out: Vec<NodeId> = f.residual(2, true).collect();
        out.sort_unstable();
        assert_eq!(out, vec![1], "2 → 3 is saturated");
        let into: Vec<NodeId> = f.residual(3, false).collect();
        assert_eq!(into, vec![4], "only 4 → 3 stays residual into 3");
        assert_eq!(f.max_flow_from_set_capped(&[0, 1, 2], 4, 1), 1);
    }
}
