//! Deterministic enumeration of every minimum cut, after Picard & Queyranne
//! (1980); DESIGN.md §12 has the argument.
//!
//! For `t = 1..n`, a unit flow from the contracted source set `{0..t-1}` to
//! `t`, capped at `size + 1`, either exceeds `size` (skip `t`), falls below
//! it (`λ(H) < size`: [`Error::InvalidCutRequest`]), or equals it. Then the
//! minimum `{0..t-1}`–`t` cuts are the residual closures that contain the
//! sources and exclude `t`, listed by a binary search whose every branch
//! ends in a cut. Each minimum cut is listed once, at the smallest vertex
//! outside 0's side; the flows run through the [`Executor`] in contiguous
//! ranges and the result is sorted.

use super::{check_request, Cut, CutEnumerator};
use crate::error::{Error, Result};
use graphs::maxflow::UnitFlow;
use graphs::{EdgeSet, Graph, NodeId};
use kecss_runtime::Executor;

/// The deterministic minimum-cut enumerator: every cut of exactly `size`
/// edges of a connected `(V, h)` with `λ(h) = size`, in the
/// [`CutEnumerator`] order. It returns no cuts when `λ(h) > size` and
/// [`Error::InvalidCutRequest`] when `λ(h) < size`. It draws no randomness
/// and ignores `salt`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinCutEnumerator;

impl CutEnumerator for MinCutEnumerator {
    fn name(&self) -> &'static str {
        "mincut"
    }

    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        _salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>> {
        check_request(graph, h, size)?;
        let n = graph.n();
        let chunk = exec.chunk_len(n.saturating_sub(1));
        let ranges: Vec<(NodeId, NodeId)> = (1..n)
            .step_by(chunk)
            .map(|lo| (lo, (lo + chunk).min(n)))
            .collect();
        let per_range = exec.map(&ranges, |&(lo, hi)| {
            let mut flow = UnitFlow::new(graph, h);
            let mut cuts = Vec::new();
            for t in lo..hi {
                cuts_separating(graph, h, &mut flow, size, t, &mut cuts)?;
            }
            Ok(cuts)
        });
        let mut out = Vec::new();
        for cuts in per_range {
            out.extend(cuts?);
        }
        out.sort();
        kecss_obs::counter_with("solver_enum_cuts_total", &[("strategy", "mincut")])
            .add(out.len() as u64);
        Ok(out)
    }
}

/// Which side of the cut a vertex is on while the closures are listed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Free,
    Source,
    Sink,
}

/// Appends to `out` every minimum cut whose 0-side contains `{0..t-1}` and
/// excludes `t`.
fn cuts_separating(
    graph: &Graph,
    h: &EdgeSet,
    flow: &mut UnitFlow,
    size: usize,
    t: NodeId,
    out: &mut Vec<Cut>,
) -> Result<()> {
    let sources: Vec<NodeId> = (0..t).collect();
    let value = flow.max_flow_from_set_capped(&sources, t, size as u32 + 1) as usize;
    if value > size {
        return Ok(());
    }
    if value < size {
        return Err(Error::InvalidCutRequest {
            reason: format!(
                "the subgraph has a cut of {value} edges, below the requested size {size}; \
                 minimum-cut enumeration needs an exactly {size}-edge-connected subgraph"
            ),
        });
    }
    let mut closure = Closure {
        flow,
        side: vec![Side::Free; graph.n()],
        trail: Vec::new(),
        stack: Vec::new(),
    };
    for &s in &sources {
        closure.assign(s, Side::Source);
    }
    closure.assign(t, Side::Sink);
    closure.trail.clear();

    // Decisions, each `(vertex, trail length before it, sink branch taken)`,
    // made in increasing vertex order.
    let mut decisions: Vec<(NodeId, usize, bool)> = Vec::new();
    loop {
        let from = decisions.last().map_or(0, |&(v, _, _)| v + 1);
        if let Some(v) = (from..graph.n()).find(|&v| closure.side[v] == Side::Free) {
            decisions.push((v, closure.trail.len(), false));
            closure.assign(v, Side::Source);
            continue;
        }
        out.push(
            h.iter()
                .filter(|&id| {
                    let e = graph.edge(id);
                    closure.side[e.u] != closure.side[e.v]
                })
                .collect(),
        );
        // Backtrack to the deepest decision whose sink branch is untried.
        loop {
            let Some((v, mark, sink_taken)) = decisions.last_mut() else {
                return Ok(());
            };
            for u in closure.trail.drain(*mark..) {
                closure.side[u] = Side::Free;
            }
            if !*sink_taken {
                *sink_taken = true;
                let v = *v;
                closure.assign(v, Side::Sink);
                break;
            }
            decisions.pop();
        }
    }
}

/// The partial assignment of vertices to sides, kept closed under the
/// residual graph: the source side is closed under outgoing residual arcs,
/// the sink side under incoming ones.
struct Closure<'a> {
    flow: &'a UnitFlow,
    side: Vec<Side>,
    /// Vertices assigned since the search began, in order, for undoing.
    trail: Vec<NodeId>,
    /// BFS scratch.
    stack: Vec<NodeId>,
}

impl Closure<'_> {
    /// Puts the free vertex `v` on `side` with every free vertex it reaches
    /// (source side) or that reaches it (sink side) in the residual graph.
    /// Neither walk can meet the other side, since both sides are closed.
    fn assign(&mut self, v: NodeId, side: Side) {
        if self.side[v] != Side::Free {
            return;
        }
        let flow = self.flow;
        self.side[v] = side;
        self.trail.push(v);
        self.stack.push(v);
        while let Some(u) = self.stack.pop() {
            for w in flow.residual(u, side == Side::Source) {
                if self.side[w] == Side::Free {
                    self.side[w] = side;
                    self.trail.push(w);
                    self.stack.push(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::naive_induced_cuts;
    use super::*;
    use crate::cuts::LabelEnumerator;
    use graphs::{connectivity, generators};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn enumerate(g: &Graph, h: &EdgeSet, size: usize, exec: &Executor) -> Result<Vec<Cut>> {
        MinCutEnumerator.cuts(g, h, size, 0, exec)
    }

    #[test]
    fn matches_naive_induced_cuts_size_four() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::random_k_edge_connected(9, 4, 3, &mut rng);
        let h = g.full_edge_set();
        let cuts = enumerate(&g, &h, 4, &Executor::Sequential).unwrap();
        assert!(!cuts.is_empty());
        assert_eq!(cuts, naive_induced_cuts(&g, &h, 4));
    }

    #[test]
    fn matches_naive_and_label_on_torus() {
        let g = generators::torus(3, 4, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let cuts = enumerate(&g, &h, 4, &exec).unwrap();
        assert_eq!(cuts, naive_induced_cuts(&g, &h, 4));
        let label = LabelEnumerator::default()
            .cuts(&g, &h, 4, 0, &exec)
            .unwrap();
        assert_eq!(cuts, label);
    }

    #[test]
    fn matches_label_ground_truth_on_a_subgraph() {
        // H a proper subgraph of G, as Aug_k calls it: C_12(1, 2), the
        // first 24 edges of harary(5, 12).
        let g = generators::harary(5, 12, 1);
        let h = EdgeSet::from_ids(g.m(), (0..24).map(graphs::EdgeId));
        let exec = Executor::Sequential;
        let cuts = enumerate(&g, &h, 4, &exec).unwrap();
        assert_eq!(cuts.len(), 12, "the vertex stars of H");
        let label = LabelEnumerator::default()
            .cuts(&g, &h, 4, 0, &exec)
            .unwrap();
        assert_eq!(cuts, label);
    }

    #[test]
    fn sizes_off_the_connectivity_are_empty_or_rejected() {
        let g = generators::harary(4, 9, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        assert!(enumerate(&g, &h, 3, &exec).unwrap().is_empty());
        let err = enumerate(&g, &h, 5, &exec).unwrap_err();
        assert!(matches!(err, Error::InvalidCutRequest { .. }), "{err}");
        assert!(enumerate(&g, &h, 0, &exec).is_err());
    }

    #[test]
    fn tiny_graphs() {
        let exec = Executor::Sequential;
        let single = Graph::new(1);
        assert!(enumerate(&single, &single.full_edge_set(), 1, &exec)
            .unwrap()
            .is_empty());
        let mut pair = Graph::new(2);
        for _ in 0..4 {
            pair.add_edge(0, 1, 1);
        }
        let h = pair.full_edge_set();
        assert_eq!(
            enumerate(&pair, &h, 4, &exec).unwrap(),
            vec![h.iter().collect::<Cut>()]
        );
    }

    /// A small graph with `λ = size` for `size` in `1..=6`: random,
    /// Harary or torus (the torus is 4-regular, so it serves size 4).
    fn instance(shape: u8, size: usize, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match shape % 3 {
            0 if size <= 4 => {
                let n = size + 3 + (seed % 4) as usize;
                generators::random_k_edge_connected(n + n % 2, size, 2, &mut rng)
            }
            2 if size == 4 => generators::torus(3, 3 + (seed % 2) as usize, 1),
            // Odd-size Harary graphs need an even vertex count.
            _ => generators::harary(size, size + 1 + (size + 1) % 2 * (seed % 2) as usize, 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// At `size = λ(H)` the enumerator lists exactly the induced cuts,
        /// and `Threaded(4)` lists them in the same order.
        #[test]
        fn equals_naive_induced_cuts_at_the_connectivity(
            shape in 0u8..3,
            size in 1usize..=6,
            seed in 0u64..500,
        ) {
            let g = instance(shape, size, seed);
            let h = g.full_edge_set();
            let lambda = connectivity::edge_connectivity(&g);
            let sequential = enumerate(&g, &h, lambda, &Executor::Sequential).unwrap();
            prop_assert_eq!(&sequential, &naive_induced_cuts(&g, &h, lambda));
            let threaded = enumerate(&g, &h, lambda, &Executor::from_threads(4)).unwrap();
            prop_assert_eq!(&threaded, &sequential);
        }
    }
}
