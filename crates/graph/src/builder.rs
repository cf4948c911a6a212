//! Edge-list → CSR construction.

use crate::traits::{VertexIndex, WeightedEdgeList};
use crate::{CsrGraph, Vertex, Weight};

/// Builds a [`CsrGraph`] from an edge list.
///
/// Supports the transformations the paper applies to its inputs:
///
/// * **deduplication** — RMAT inputs are generated "with unique edges";
///   [`dedup`](Self::dedup) removes parallel edges (keeping the smallest
///   weight, which preserves shortest paths).
/// * **symmetrization** — "undirected versions of these graphs … were
///   created by adding reverse edges"; see [`symmetrize`](Self::symmetrize).
/// * **self-loop removal** — optional; self-loops never affect BFS/SSSP/CC
///   results but inflate edge counts.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: u64,
    edges: WeightedEdgeList,
    weighted: bool,
}

impl GraphBuilder {
    /// Start a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: u64) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            weighted: false,
        }
    }

    /// Start from a pre-collected weighted edge list.
    pub fn from_edges(num_vertices: u64, edges: WeightedEdgeList, weighted: bool) -> Self {
        GraphBuilder {
            num_vertices,
            edges,
            weighted,
        }
    }

    /// Add an unweighted (weight `1`) directed edge.
    pub fn add_edge(mut self, src: Vertex, dst: Vertex) -> Self {
        self.push_edge(src, dst, 1);
        self
    }

    /// Add a weighted directed edge; marks the graph weighted.
    pub fn add_weighted_edge(mut self, src: Vertex, dst: Vertex, w: Weight) -> Self {
        self.weighted = true;
        self.push_edge(src, dst, w);
        self
    }

    fn push_edge(&mut self, src: Vertex, dst: Vertex, w: Weight) {
        assert!(
            src < self.num_vertices && dst < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        self.edges.push((src, dst, w));
    }

    /// Add the reverse of every staged edge (same weight), making the graph
    /// undirected in the CSR-of-arcs sense the paper uses for CC inputs.
    pub fn symmetrize(mut self) -> Self {
        let rev: WeightedEdgeList = self.edges.iter().map(|&(s, t, w)| (t, s, w)).collect();
        self.edges.extend(rev);
        self
    }

    /// Remove duplicate `(src, dst)` pairs, keeping the minimum weight.
    pub fn dedup(mut self) -> Self {
        self.edges.sort_unstable();
        self.edges.dedup_by_key(|e| (e.0, e.1));
        self
    }

    /// Remove self-loop edges.
    pub fn remove_self_loops(mut self) -> Self {
        self.edges.retain(|&(s, t, _)| s != t);
        self
    }

    /// Finish building: counting-sort the edges into CSR order.
    ///
    /// # Panics
    /// Panics (in [`VertexIndex::from_u64`], debug builds) if a vertex id
    /// does not fit the requested index width.
    pub fn build<V: VertexIndex>(self) -> CsrGraph<V> {
        let n = self.num_vertices as usize;
        let m = self.edges.len();

        // Counting sort by source: one pass to count, one to scatter. This is
        // O(n + m) and avoids a comparison sort of the full edge list.
        let mut offsets = vec![0u64; n + 1];
        for &(s, _, _) in &self.edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        let mut cursor = offsets.clone();
        let mut targets: Vec<V> = vec![V::from_u64(0); m];
        let mut weights: Option<Vec<Weight>> = self.weighted.then(|| vec![0; m]);
        for &(s, t, w) in &self.edges {
            let pos = cursor[s as usize] as usize;
            cursor[s as usize] += 1;
            targets[pos] = V::from_u64(t);
            if let Some(ws) = &mut weights {
                ws[pos] = w;
            }
        }

        // Sort each adjacency list by target id: deterministic layout, better
        // locality, and required by the SEM file format's semi-sorted reads.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            match &mut weights {
                Some(ws) => {
                    let mut pairs: Vec<(V, Weight)> = targets[lo..hi]
                        .iter()
                        .copied()
                        .zip(ws[lo..hi].iter().copied())
                        .collect();
                    pairs.sort_unstable_by_key(|&(t, w)| (t, w));
                    for (i, (t, w)) in pairs.into_iter().enumerate() {
                        targets[lo + i] = t;
                        ws[lo + i] = w;
                    }
                }
                None => targets[lo..hi].sort_unstable(),
            }
        }

        CsrGraph::from_raw_parts(offsets, targets, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn build_sorts_adjacency() {
        let g: CsrGraph<u32> = GraphBuilder::new(3)
            .add_edge(0, 2)
            .add_edge(0, 1)
            .add_edge(2, 0)
            .build();
        assert_eq!(g.neighbors(0), vec![1, 2]);
        assert_eq!(g.neighbors(2), vec![0]);
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let g: CsrGraph<u32> = GraphBuilder::new(3)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .symmetrize()
            .build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), vec![0, 2]);
    }

    #[test]
    fn dedup_keeps_min_weight() {
        let g: CsrGraph<u32> = GraphBuilder::new(2)
            .add_weighted_edge(0, 1, 9)
            .add_weighted_edge(0, 1, 3)
            .add_weighted_edge(0, 1, 7)
            .dedup()
            .build();
        assert_eq!(g.num_edges(), 1);
        let mut seen = Vec::new();
        g.for_each_neighbor(0, |t, w| seen.push((t, w)));
        assert_eq!(seen, vec![(1, 3)]);
    }

    #[test]
    fn remove_self_loops() {
        let g: CsrGraph<u32> = GraphBuilder::new(2)
            .add_edge(0, 0)
            .add_edge(0, 1)
            .add_edge(1, 1)
            .remove_self_loops()
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), vec![1]);
    }

    #[test]
    fn weighted_build_parallel_arrays() {
        let g: CsrGraph<u32> = GraphBuilder::new(3)
            .add_weighted_edge(0, 2, 5)
            .add_weighted_edge(0, 1, 2)
            .build();
        assert!(g.is_weighted());
        let mut seen = Vec::new();
        g.for_each_neighbor(0, |t, w| seen.push((t, w)));
        assert_eq!(seen, vec![(1, 2), (2, 5)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let _ = GraphBuilder::new(2).add_edge(0, 5);
    }

    #[test]
    fn vertices_with_no_edges_are_preserved() {
        let g: CsrGraph<u32> = GraphBuilder::new(10).add_edge(0, 9).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degree(5), 0);
    }
}
