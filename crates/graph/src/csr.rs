//! In-memory Compressed Sparse Row (CSR) graph.
//!
//! The paper's in-memory implementation uses Boost's compressed-sparse-row
//! graph; this is the equivalent structure: an `offsets` array of `n + 1`
//! cumulative degrees, a `targets` array of `m` edge endpoints, and an
//! optional parallel `weights` array.

use crate::traits::{Graph, VertexIndex};
use crate::{Vertex, Weight};

/// Compressed Sparse Row graph, generic over the stored index width.
///
/// `CsrGraph<u32>` halves the edge-array footprint relative to
/// `CsrGraph<u64>` — the configuration trick the paper uses to fit 2^30
/// vertex graphs where 64-bit-only libraries ran out of memory.
#[derive(Clone, Debug)]
pub struct CsrGraph<V: VertexIndex = u32> {
    offsets: Vec<u64>,
    targets: Vec<V>,
    weights: Option<Vec<Weight>>,
}

impl<V: VertexIndex> CsrGraph<V> {
    /// Build directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent: `offsets` must be non-empty and
    /// non-decreasing, its last entry must equal `targets.len()`, and
    /// `weights` (when present) must parallel `targets`.
    pub fn from_raw_parts(
        offsets: Vec<u64>,
        targets: Vec<V>,
        weights: Option<Vec<Weight>>,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n + 1 entries");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "last offset must equal edge count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        if let Some(w) = &weights {
            assert_eq!(w.len(), targets.len(), "weights must parallel targets");
        }
        CsrGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// The empty graph with `n` isolated vertices.
    pub fn empty(n: u64) -> Self {
        CsrGraph {
            offsets: vec![0; n as usize + 1],
            targets: Vec::new(),
            weights: None,
        }
    }

    /// Slice of out-neighbor indices of `v` (stored width).
    #[inline]
    pub fn neighbor_slice(&self, v: Vertex) -> &[V] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Slice of edge weights of `v`, if the graph is weighted.
    #[inline]
    pub fn weight_slice(&self, v: Vertex) -> Option<&[Weight]> {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.weights.as_ref().map(|w| &w[lo..hi])
    }

    /// The cumulative-degree array (`n + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat edge-target array (`m` entries).
    pub fn targets(&self) -> &[V] {
        &self.targets
    }

    /// The flat edge-weight array, if present.
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }
}

impl<V: VertexIndex> Graph for CsrGraph<V> {
    #[inline]
    fn num_vertices(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    #[inline]
    fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    #[inline]
    fn out_degree(&self, v: Vertex) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(Vertex, Weight)>(&self, v: Vertex, mut f: F) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        match &self.weights {
            Some(w) => {
                for (t, &wt) in self.targets[lo..hi].iter().zip(&w[lo..hi]) {
                    f(t.to_u64(), wt);
                }
            }
            None => {
                for t in &self.targets[lo..hi] {
                    f(t.to_u64(), 1);
                }
            }
        }
    }

    #[inline]
    fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph<u32> {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        GraphBuilder::new(4)
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(1, 3)
            .add_edge(2, 3)
            .build()
    }

    #[test]
    fn basic_topology() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(0), vec![1, 2]);
        assert_eq!(g.neighbors(3), Vec::<u64>::new());
    }

    #[test]
    fn unweighted_reports_unit_weights() {
        let g = diamond();
        assert!(!g.is_weighted());
        let mut ws = Vec::new();
        g.for_each_neighbor(0, |_, w| ws.push(w));
        assert_eq!(ws, vec![1, 1]);
    }

    #[test]
    fn empty_graph() {
        let g: CsrGraph<u32> = CsrGraph::empty(7);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
        for v in 0..7 {
            assert_eq!(g.out_degree(v), 0);
        }
    }

    #[test]
    #[should_panic]
    fn from_raw_parts_rejects_bad_offsets() {
        let _ = CsrGraph::<u32>::from_raw_parts(vec![0, 3, 2], vec![1, 0], None);
    }

    #[test]
    #[should_panic]
    fn from_raw_parts_rejects_mismatched_weights() {
        let _ = CsrGraph::<u32>::from_raw_parts(vec![0, 2], vec![0, 1], Some(vec![7]));
    }
}
