//! Disjoint-set union (union–find) with union by rank and path compression.

/// A disjoint-set forest over the integers `0..n`.
///
/// Used by Kruskal's MST, the Borůvka-style distributed MST simulation, and
/// connectivity checks on masked edge sets.
///
/// # Example
///
/// ```
/// use graphs::dsu::DisjointSets;
///
/// let mut dsu = DisjointSets::new(4);
/// assert!(dsu.union(0, 1));
/// assert!(dsu.union(2, 3));
/// assert!(!dsu.union(1, 0));
/// assert!(dsu.connected(0, 1));
/// assert!(!dsu.connected(0, 2));
/// assert_eq!(dsu.component_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct DisjointSets {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The representative of the set containing `x`, with path compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// The representative of the set containing `x` without mutating the
    /// structure (no path compression). Useful when only a shared reference
    /// is available.
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        root
    }

    /// Merges the sets containing `a` and `b`. Returns `true` if they were
    /// previously different sets.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets currently represented.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Component label of every element, with labels normalized to the
    /// representative's index.
    pub fn labels(&mut self) -> Vec<usize> {
        (0..self.len()).map(|v| self.find(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_start_disconnected() {
        let mut d = DisjointSets::new(3);
        assert_eq!(d.component_count(), 3);
        assert!(!d.connected(0, 2));
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn union_merges_and_counts() {
        let mut d = DisjointSets::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(1, 2));
        assert!(!d.union(0, 2));
        assert_eq!(d.component_count(), 3);
        assert!(d.connected(0, 2));
        assert!(!d.connected(0, 3));
    }

    #[test]
    fn find_immutable_matches_find() {
        let mut d = DisjointSets::new(6);
        d.union(0, 1);
        d.union(2, 3);
        d.union(1, 3);
        for v in 0..4 {
            assert_eq!(d.find_immutable(v), d.find_immutable(0));
        }
        assert_eq!(d.find(5), 5);
        assert_eq!(d.find_immutable(5), 5);
    }

    #[test]
    fn labels_are_consistent_per_component() {
        let mut d = DisjointSets::new(4);
        d.union(0, 3);
        let labels = d.labels();
        assert_eq!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[1], labels[2]);
    }

    #[test]
    fn long_chain_compresses() {
        let n = 1000;
        let mut d = DisjointSets::new(n);
        for i in 0..n - 1 {
            d.union(i, i + 1);
        }
        assert_eq!(d.component_count(), 1);
        let r = d.find(0);
        for i in 0..n {
            assert_eq!(d.find(i), r);
        }
    }
}
