//! Bounded-depth (k-hop) neighborhood queries.
//!
//! The paper's motivating applications — "analysts who wish to search such
//! graphs" over WWW/social/security datasets — rarely need a full
//! traversal; they ask for the neighborhood within a few hops of an
//! entity. This is the asynchronous BFS with a depth cutoff: visitors at
//! the horizon simply do not expand, so the traversal touches only the
//! neighborhood (plus its frontier), not the graph.

use crate::config::Config;
use crate::result::{TraversalOutput, TraversalStats};
use asyncgt_graph::{Graph, Vertex, INF_DIST, NO_VERTEX};
use asyncgt_vq::{AtomicStateArray, PushCtx, VisitHandler, Visitor, VisitorQueue};
use std::sync::atomic::{AtomicU64, Ordering};

/// BFS visitor with a depth horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HopVisitor {
    depth: u64,
    vertex: u32,
    parent: u32,
}

impl Visitor for HopVisitor {
    fn target(&self) -> u64 {
        self.vertex as u64
    }
    fn priority(&self) -> u64 {
        self.depth
    }
}

struct KhopHandler<'a, G> {
    g: &'a G,
    dist: &'a AtomicStateArray,
    parent: &'a AtomicStateArray,
    relaxations: &'a AtomicU64,
    max_depth: u64,
}

impl<'a, G: Graph> VisitHandler<HopVisitor> for KhopHandler<'a, G> {
    fn visit(&self, v: HopVisitor, ctx: &mut PushCtx<'_, HopVisitor>) {
        let vertex = v.vertex as u64;
        if v.depth < self.dist.get(vertex) {
            self.dist.set(vertex, v.depth);
            self.parent.set(
                vertex,
                if v.parent == u32::MAX {
                    NO_VERTEX
                } else {
                    v.parent as u64
                },
            );
            self.relaxations.fetch_add(1, Ordering::Relaxed);
            if v.depth == self.max_depth {
                return; // horizon: member of the k-hop ball, not expanded
            }
            self.g.for_each_neighbor(vertex, |t, _| {
                ctx.push(HopVisitor {
                    depth: v.depth + 1,
                    vertex: t as u32,
                    parent: v.vertex,
                });
            });
        }
    }
}

/// BFS from `source` truncated at `max_depth` hops.
///
/// `dist[v]` is the hop distance for every vertex within the ball (`≤
/// max_depth`) and `INF_DIST` outside it. Distances within the ball are
/// exact BFS distances (a shorter path through outside the ball cannot
/// exist for unweighted BFS).
///
/// ```
/// use asyncgt::{bfs_bounded, Config, INF_DIST};
/// use asyncgt::graph::generators::path_graph;
///
/// let g = path_graph(10);
/// let out = bfs_bounded(&g, 0, 3, &Config::with_threads(2));
/// assert_eq!(out.dist[3], 3);
/// assert_eq!(out.dist[4], INF_DIST); // beyond the horizon
/// ```
pub fn bfs_bounded<G: Graph>(
    g: &G,
    source: Vertex,
    max_depth: u64,
    cfg: &Config,
) -> TraversalOutput {
    let n = g.num_vertices();
    assert!(
        source < n,
        "source vertex {source} out of range ({n} vertices)"
    );
    assert!(
        n < u32::MAX as u64,
        "async traversal stores vertex ids as u32; got {n} vertices"
    );

    let dist = AtomicStateArray::new(n as usize, INF_DIST);
    let parent = AtomicStateArray::new(n as usize, NO_VERTEX);
    let relaxations = AtomicU64::new(0);
    let handler = KhopHandler {
        g,
        dist: &dist,
        parent: &parent,
        relaxations: &relaxations,
        max_depth,
    };
    let init = HopVisitor {
        depth: 0,
        vertex: source as u32,
        parent: u32::MAX,
    };
    let run = VisitorQueue::run(&cfg.vq(0), &handler, [init]);

    TraversalOutput {
        dist: dist.to_vec(),
        parent: parent.to_vec(),
        stats: TraversalStats {
            visitors_executed: run.visitors_executed,
            visitors_pushed: run.visitors_pushed,
            local_pushes: run.local_pushes,
            parks: run.parks,
            inbox_batches: run.inbox_batches,
            relaxations: relaxations.into_inner(),
            elapsed: run.elapsed,
            num_threads: run.num_threads,
        },
    }
}

/// The vertex ids within `max_depth` hops of `source` (the "k-hop ball"),
/// in ascending order.
pub fn khop_ball<G: Graph>(g: &G, source: Vertex, max_depth: u64, cfg: &Config) -> Vec<Vertex> {
    let out = bfs_bounded(g, source, max_depth, cfg);
    (0..g.num_vertices())
        .filter(|&v| out.dist[v as usize] != INF_DIST)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncgt_baselines::serial;
    use asyncgt_graph::generators::{
        binary_tree, grid_graph, path_graph, RmatGenerator, RmatParams,
    };

    fn cfg() -> Config {
        Config::with_threads(4)
    }

    #[test]
    fn horizon_cuts_exactly() {
        let g = path_graph(20);
        let out = bfs_bounded(&g, 0, 5, &cfg());
        for v in 0..=5u64 {
            assert_eq!(out.dist[v as usize], v);
        }
        for v in 6..20u64 {
            assert_eq!(out.dist[v as usize], INF_DIST);
        }
    }

    #[test]
    fn matches_full_bfs_within_ball() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 91).directed();
        let full = serial::bfs(&g, 0);
        let k = 2;
        let out = bfs_bounded(&g, 0, k, &cfg());
        for v in 0..g.num_vertices() as usize {
            if full.dist[v] <= k {
                assert_eq!(out.dist[v], full.dist[v], "vertex {v}");
            } else {
                assert_eq!(out.dist[v], INF_DIST, "vertex {v} beyond horizon");
            }
        }
    }

    #[test]
    fn ball_membership() {
        let g = grid_graph(9, 9);
        let center = 4 * 9 + 4;
        let ball = khop_ball(&g, center, 2, &cfg());
        // Manhattan ball of radius 2 in an open grid: 13 cells.
        assert_eq!(ball.len(), 13);
        assert!(ball.contains(&center));
    }

    #[test]
    fn depth_zero_is_just_the_source() {
        let g = binary_tree(5);
        let ball = khop_ball(&g, 0, 0, &cfg());
        assert_eq!(ball, vec![0]);
    }

    #[test]
    fn visits_far_fewer_than_full_traversal() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 12, 16, 6).directed();
        let bounded = bfs_bounded(&g, 0, 1, &cfg());
        let full = crate::try_bfs(&g, 0, &cfg()).unwrap();
        assert!(
            bounded.stats.visitors_executed * 4 < full.stats.visitors_executed,
            "1-hop query must do far less work than a full BFS ({} vs {})",
            bounded.stats.visitors_executed,
            full.stats.visitors_executed
        );
    }
}
