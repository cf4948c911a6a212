//! Bounded-depth (k-hop) neighborhood queries.
//!
//! The paper's motivating applications — "analysts who wish to search such
//! graphs" over WWW/social/security datasets — rarely need a full
//! traversal; they ask for the neighborhood within a few hops of an
//! entity. This is the asynchronous BFS with a depth cutoff: visitors at
//! the horizon simply do not expand, so the traversal touches only the
//! neighborhood (plus its frontier), not the graph.

use crate::config::Config;
use crate::error::TraversalError;
use crate::result::TraversalOutput;
use crate::sssp::{run_path, Cost};
use asyncgt_graph::{Graph, Vertex, INF_DIST};
use asyncgt_obs::NoopRecorder;

/// BFS from `source` truncated at `max_depth` hops.
///
/// `dist[v]` is the hop distance for every vertex within the ball (`≤
/// max_depth`) and `INF_DIST` outside it. Distances within the ball are
/// exact BFS distances (a shorter path through outside the ball cannot
/// exist for unweighted BFS).
///
/// Fails like [`try_bfs`](crate::try_bfs): an out-of-range source or an
/// oversized graph is rejected before the run, and a storage failure
/// aborts it with partial statistics.
///
/// ```
/// use asyncgt::{bfs_bounded, Config, INF_DIST};
/// use asyncgt::graph::generators::path_graph;
///
/// let g = path_graph(10);
/// let out = bfs_bounded(&g, 0, 3, &Config::with_threads(2))?;
/// assert_eq!(out.dist[3], 3);
/// assert_eq!(out.dist[4], INF_DIST); // beyond the horizon
/// # Ok::<(), asyncgt::TraversalError>(())
/// ```
pub fn bfs_bounded<G: Graph>(
    g: &G,
    source: Vertex,
    max_depth: u64,
    cfg: &Config,
) -> Result<TraversalOutput, TraversalError> {
    run_path(g, source, cfg, Cost::Hop, max_depth, &NoopRecorder)
}

/// The vertex ids within `max_depth` hops of `source` (the "k-hop ball"),
/// in ascending order. Fails like [`bfs_bounded`].
pub fn khop_ball<G: Graph>(
    g: &G,
    source: Vertex,
    max_depth: u64,
    cfg: &Config,
) -> Result<Vec<Vertex>, TraversalError> {
    let out = bfs_bounded(g, source, max_depth, cfg)?;
    Ok((0..g.num_vertices())
        .filter(|&v| out.dist[v as usize] != INF_DIST)
        .collect())
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
        let out = bfs_bounded(&g, 0, 5, &cfg()).unwrap();
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
        let out = bfs_bounded(&g, 0, k, &cfg()).unwrap();
        for v in 0..g.num_vertices() as usize {
            if full.dist[v] <= k {
                assert_eq!(out.dist[v], full.dist[v], "vertex {v}");
            } else {
                assert_eq!(out.dist[v], INF_DIST, "vertex {v} beyond horizon");
            }
        }
    }

    #[test]
    fn unbounded_depth_is_a_full_bfs() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 17).directed();
        let out = bfs_bounded(&g, 0, u64::MAX, &cfg()).unwrap();
        assert_eq!(out.dist, crate::try_bfs(&g, 0, &cfg()).unwrap().dist);
    }

    #[test]
    fn ball_membership() {
        let g = grid_graph(9, 9);
        let center = 4 * 9 + 4;
        let ball = khop_ball(&g, center, 2, &cfg()).unwrap();
        // Manhattan ball of radius 2 in an open grid: 13 cells.
        assert_eq!(ball.len(), 13);
        assert!(ball.contains(&center));
    }

    #[test]
    fn depth_zero_is_just_the_source() {
        let g = binary_tree(5);
        let ball = khop_ball(&g, 0, 0, &cfg()).unwrap();
        assert_eq!(ball, vec![0]);
    }

    #[test]
    fn visits_far_fewer_than_full_traversal() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 12, 16, 6).directed();
        let bounded = bfs_bounded(&g, 0, 1, &cfg()).unwrap();
        let full = crate::try_bfs(&g, 0, &cfg()).unwrap();
        assert!(
            bounded.stats.visitors_executed * 4 < full.stats.visitors_executed,
            "1-hop query must do far less work than a full BFS ({} vs {})",
            bounded.stats.visitors_executed,
            full.stats.visitors_executed
        );
    }

    #[test]
    fn out_of_range_source_is_a_typed_error() {
        let g = path_graph(5);
        let err = bfs_bounded(&g, 5, 2, &cfg()).unwrap_err();
        assert!(matches!(
            err,
            TraversalError::InvalidSource {
                source: 5,
                num_vertices: 5
            }
        ));
        assert!(matches!(
            khop_ball(&g, 99, 1, &cfg()),
            Err(TraversalError::InvalidSource { source: 99, .. })
        ));
    }
}
