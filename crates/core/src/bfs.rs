//! Asynchronous Breadth-First Search.
//!
//! Per the paper (§III-B): "we compute a Breadth First Search (BFS) by
//! applying our asynchronous SSSP algorithm with all edge weights equal
//! to 1" — the distance array then holds BFS level numbers and the
//! priority queues drain levels approximately in order, without barriers
//! between levels.

use crate::config::Config;
use crate::error::TraversalError;
use crate::result::TraversalOutput;
use crate::sssp::{run_path, Cost};
use asyncgt_graph::{Graph, Vertex, INF_DIST};
use asyncgt_obs::{NoopRecorder, Recorder};

/// Asynchronous BFS from `source`. Edge weights, if any, are ignored.
///
/// A storage failure that exhausts its retry budget (or any other handler
/// abort) returns `Err` with the classified [`TraversalError`] and partial
/// statistics; an out-of-range source or an oversized graph is rejected
/// before the run. For several sources at once, submit them to a
/// [`TraversalEngine`](crate::TraversalEngine) with
/// [`submit_bfs`](crate::TraversalEngine::submit_bfs).
///
/// ```
/// use asyncgt::{try_bfs, Config};
/// use asyncgt::graph::generators::binary_tree;
///
/// let g = binary_tree(4);
/// let out = try_bfs(&g, 0, &Config::with_threads(2))?;
/// assert_eq!(out.dist[0], 0);
/// assert_eq!(out.dist[14], 3); // leaves of a 4-level tree
/// assert_eq!(out.level_count(), 4);
/// # Ok::<(), asyncgt::TraversalError>(())
/// ```
pub fn try_bfs<G: Graph>(
    g: &G,
    source: Vertex,
    cfg: &Config,
) -> Result<TraversalOutput, TraversalError> {
    run_path(g, source, cfg, Cost::Hop, INF_DIST, &NoopRecorder)
}

/// [`try_bfs`] with a metrics [`Recorder`] (e.g.
/// [`ShardedRecorder`](asyncgt_obs::ShardedRecorder)) collecting phase
/// spans, per-worker counters, and service-time histograms. `try_bfs`
/// itself is this with [`NoopRecorder`], which compiles the
/// instrumentation out.
pub fn try_bfs_recorded<G: Graph, R: Recorder>(
    g: &G,
    source: Vertex,
    cfg: &Config,
    recorder: &R,
) -> Result<TraversalOutput, TraversalError> {
    run_path(g, source, cfg, Cost::Hop, INF_DIST, recorder)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{with_engine, EngineOpts};
    use asyncgt_baselines::{level_sync, serial};
    use asyncgt_graph::generators::{
        binary_tree, grid_graph, path_graph, star_graph, RmatGenerator, RmatParams,
    };
    use asyncgt_graph::weights::{weighted_copy, WeightKind};

    #[test]
    fn matches_serial_on_rmat() {
        for (params, seed) in [(RmatParams::RMAT_A, 7u64), (RmatParams::RMAT_B, 8)] {
            let g = RmatGenerator::new(params, 10, 8, seed).directed();
            let expect = serial::bfs(&g, 0);
            for threads in [1, 4, 64] {
                let out = try_bfs(&g, 0, &Config::with_threads(threads)).unwrap();
                assert_eq!(out.dist, expect.dist, "threads={threads}");
            }
        }
    }

    #[test]
    fn one_thread_expands_each_reached_vertex_once() {
        // One worker drains levels in order, so every vertex is claimed
        // first at its final level: one visitor and one relaxation per
        // reached vertex, none stale.
        let g = RmatGenerator::new(RmatParams::RMAT_A, 12, 16, 3).directed();
        let out = try_bfs(&g, 0, &Config::with_threads(1)).unwrap();
        assert_eq!(out.dist, serial::bfs(&g, 0).dist);
        assert!(out.reached_count() > 1000);
        assert_eq!(out.stats.visitors_executed, out.stats.relaxations);
        assert_eq!(out.stats.relaxations, out.reached_count());
    }

    #[test]
    fn matches_level_sync_on_grid() {
        let g = grid_graph(20, 20);
        let ours = try_bfs(&g, 0, &Config::with_threads(8)).unwrap();
        let sync = level_sync::bfs(&g, 0, 4);
        assert_eq!(ours.dist, sync.dist);
    }

    #[test]
    fn ignores_weights() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 2).directed();
        let wg = weighted_copy(&g, WeightKind::Uniform, 1);
        let unweighted = try_bfs(&g, 0, &Config::with_threads(4)).unwrap();
        let weighted = try_bfs(&wg, 0, &Config::with_threads(4)).unwrap();
        assert_eq!(unweighted.dist, weighted.dist, "BFS must ignore weights");
    }

    #[test]
    fn star_reached_in_one_level() {
        let out = try_bfs(&star_graph(100), 0, &Config::with_threads(8)).unwrap();
        assert_eq!(out.level_count(), 2); // level 0 (hub) + level 1
        assert_eq!(out.reached_count(), 100);
        assert!(out.dist[1..].iter().all(|&d| d == 1));
    }

    #[test]
    fn disconnected_part_unreached() {
        let g = path_graph(6);
        let out = try_bfs(&g, 3, &Config::with_threads(2)).unwrap();
        assert_eq!(out.dist[..3], [INF_DIST, INF_DIST, INF_DIST]);
        assert_eq!(out.dist[3..], [0, 1, 2]);
        assert!((out.visited_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn parents_form_bfs_tree() {
        let g = binary_tree(5);
        let out = try_bfs(&g, 0, &Config::with_threads(4)).unwrap();
        for v in 1..g.num_vertices() {
            let p = out.parent[v as usize];
            assert_eq!(out.dist[v as usize], out.dist[p as usize] + 1);
            assert!(g.neighbors(p).contains(&v));
        }
    }

    /// Multi-source BFS through the engine: `dist` is the hop count to
    /// the nearest source.
    fn engine_bfs<G: Graph>(g: &G, sources: &[Vertex], threads: usize) -> TraversalOutput {
        let opts = EngineOpts::with_threads(threads);
        let (out, _) = with_engine(g, &opts, &NoopRecorder, |eng| {
            eng.submit_bfs(sources).unwrap().wait().unwrap()
        });
        out
    }

    #[test]
    fn multi_source_is_min_over_single_sources() {
        let g = RmatGenerator::new(RmatParams::RMAT_B, 9, 6, 44).directed();
        let sources = [0u64, 17, 200];
        let multi = engine_bfs(&g, &sources, 8);
        let singles: Vec<_> = sources.iter().map(|&s| serial::bfs(&g, s).dist).collect();
        for v in 0..g.num_vertices() as usize {
            let want = singles.iter().map(|d| d[v]).min().unwrap();
            assert_eq!(multi.dist[v], want, "vertex {v}");
        }
        assert_eq!(
            engine_bfs(&path_graph(6), &[0, 4], 2).dist,
            [0, 1, 2, 3, 0, 1]
        );
    }

    #[test]
    fn multi_source_single_equals_bfs() {
        let g = grid_graph(10, 10);
        let a = try_bfs(&g, 3, &Config::with_threads(4)).unwrap();
        let b = engine_bfs(&g, &[3], 4);
        assert_eq!(a.dist, b.dist);
    }

    /// A vertex count past the `u32` visitor encoding, with no edges: the
    /// check must reject it before allocating any label array.
    pub(crate) struct Huge;

    impl Graph for Huge {
        fn num_vertices(&self) -> u64 {
            u32::MAX as u64
        }
        fn num_edges(&self) -> u64 {
            0
        }
        fn out_degree(&self, _: Vertex) -> u64 {
            0
        }
        fn for_each_neighbor<F: FnMut(Vertex, asyncgt_graph::Weight)>(&self, _: Vertex, _: F) {}
    }

    #[test]
    fn oversized_graph_is_a_typed_error() {
        let err = try_bfs(&Huge, 0, &Config::default()).unwrap_err();
        assert!(matches!(
            err,
            TraversalError::GraphTooLarge {
                num_vertices: 0xFFFF_FFFF
            }
        ));
        assert_eq!(err.stats(), Default::default());
        let err = crate::try_connected_components(&Huge, &Config::default()).unwrap_err();
        assert!(matches!(err, TraversalError::GraphTooLarge { .. }));
    }

    #[test]
    fn every_source_works() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 7, 4, 55).directed();
        for source in [0u64, 1, 63, 127] {
            let out = try_bfs(&g, source, &Config::with_threads(4)).unwrap();
            let expect = serial::bfs(&g, source);
            assert_eq!(out.dist, expect.dist, "source={source}");
        }
    }
}
