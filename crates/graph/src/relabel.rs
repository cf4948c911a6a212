//! Vertex relabeling for locality.
//!
//! The paper's semi-external traversal semi-sorts its *visit order* by
//! vertex id; how much locality that buys depends on the labeling itself.
//! This module provides the two standard relabelings:
//!
//! * [`by_degree`] — hubs first. Packs the high-traffic adjacency lists of
//!   a power-law graph into the first storage blocks (the layout the
//!   Mehlhorn–Meyer external-BFS line exploits, cited by the paper §VI-B).
//! * [`by_bfs`] — BFS discovery order from a root. Neighbors of
//!   consecutively visited vertices land in nearby blocks, the classic
//!   bandwidth-reduction permutation.
//!
//! Both return a [`Permutation`]; [`relabel`] rebuilds the graph under it.
//! The SEM ablation (`ablation -- relabel`) measures their effect on
//! block-cache hit rate.

use crate::csr::CsrGraph;
use crate::traits::{Graph, VertexIndex, WeightedEdgeList};
use crate::{GraphBuilder, Vertex};
use std::collections::VecDeque;

/// A relabeling: `perm[old_id] = new_id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<Vertex>,
}

impl Permutation {
    /// Build from a forward map; must be a bijection on `0..len`.
    pub fn new(forward: Vec<Vertex>) -> Self {
        debug_assert!(
            {
                let mut seen = vec![false; forward.len()];
                forward.iter().all(|&v| {
                    let ok = (v as usize) < seen.len() && !seen[v as usize];
                    if ok {
                        seen[v as usize] = true;
                    }
                    ok
                })
            },
            "forward map is not a permutation"
        );
        Permutation { forward }
    }

    /// New id of `old`.
    #[inline]
    pub fn map(&self, old: Vertex) -> Vertex {
        self.forward[old as usize]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }
}

/// Rebuild `g` under `perm` (edges and weights carried over).
pub fn relabel<V: VertexIndex>(g: &CsrGraph<V>, perm: &Permutation) -> CsrGraph<V> {
    assert_eq!(perm.len() as u64, g.num_vertices());
    let mut edges: WeightedEdgeList = Vec::with_capacity(g.num_edges() as usize);
    for v in 0..g.num_vertices() {
        g.for_each_neighbor(v, |t, w| {
            edges.push((perm.map(v), perm.map(t), w));
        });
    }
    GraphBuilder::from_edges(g.num_vertices(), edges, g.is_weighted()).build()
}

/// Permutation placing vertices in decreasing out-degree order
/// (ties by original id, so it is deterministic).
pub fn by_degree<V: VertexIndex>(g: &CsrGraph<V>) -> Permutation {
    let n = g.num_vertices();
    let mut order: Vec<Vertex> = (0..n).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    let mut forward = vec![0; n as usize];
    for (new, &old) in order.iter().enumerate() {
        forward[old as usize] = new as Vertex;
    }
    Permutation::new(forward)
}

/// Permutation by BFS discovery order from `root`; vertices unreachable
/// from `root` keep their relative order after all reachable ones.
pub fn by_bfs<V: VertexIndex>(g: &CsrGraph<V>, root: Vertex) -> Permutation {
    let n = g.num_vertices();
    assert!(root < n);
    let mut forward: Vec<Vertex> = vec![Vertex::MAX; n as usize];
    let mut next_id: Vertex = 0;
    let mut queue = VecDeque::new();
    forward[root as usize] = next_id;
    next_id += 1;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        g.for_each_neighbor(v, |t, _| {
            if forward[t as usize] == Vertex::MAX {
                forward[t as usize] = next_id;
                next_id += 1;
                queue.push_back(t);
            }
        });
    }
    for slot in forward.iter_mut() {
        if *slot == Vertex::MAX {
            *slot = next_id;
            next_id += 1;
        }
    }
    Permutation::new(forward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{path_graph, star_graph, RmatGenerator, RmatParams};

    #[test]
    fn degree_relabel_puts_hub_first() {
        let g = star_graph(10);
        let perm = by_degree(&g);
        assert_eq!(perm.map(0), 0, "hub keeps id 0");
        let rg = relabel(&g, &perm);
        assert_eq!(rg.out_degree(0), 9);
    }

    #[test]
    fn bfs_relabel_is_discovery_order_on_path() {
        let g = path_graph(5);
        let perm = by_bfs(&g, 0);
        for v in 0..5 {
            assert_eq!(perm.map(v), v, "path from 0 is already BFS order");
        }
        // From the middle: 2,3,4 discovered; 0,1 appended.
        let perm = by_bfs(&g, 2);
        assert_eq!(perm.map(2), 0);
        assert_eq!(perm.map(3), 1);
        assert_eq!(perm.map(4), 2);
    }

    #[test]
    fn relabeled_graph_is_isomorphic() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 8, 6, 5).undirected();
        let perm = by_degree(&g);
        let rg = relabel(&g, &perm);
        assert_eq!(rg.num_vertices(), g.num_vertices());
        assert_eq!(rg.num_edges(), g.num_edges());
        // Edge (u, v) exists iff (perm(u), perm(v)) exists.
        for u in 0..g.num_vertices() {
            let mut mapped: Vec<Vertex> = g.neighbors(u).iter().map(|&t| perm.map(t)).collect();
            mapped.sort_unstable();
            assert_eq!(rg.neighbors(perm.map(u)), mapped, "vertex {u}");
        }
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn rejects_non_permutation() {
        let _ = Permutation::new(vec![0, 0, 1]);
    }
}
