//! Integration tests for the bounded-depth queries built on the traversal
//! building blocks (`bfs_bounded` / k-hop), including over semi-external
//! storage — the search analyst's "who is within k hops" query the paper
//! motivates.

use asyncgt::storage::write_sem_graph;
use asyncgt::{bfs_bounded, Config, SemGraph, INF_DIST};
use asyncgt_graph::generators::{RmatGenerator, RmatParams};
use asyncgt_graph::Graph;
use asyncgt_integration_tests::scratch;

#[test]
fn khop_over_sem_matches_in_memory() {
    let g = RmatGenerator::new(RmatParams::RMAT_B, 9, 8, 62).directed();
    let path = scratch("analytics_khop.agt");
    write_sem_graph(&path, &g).unwrap();
    let sem = SemGraph::open(&path).unwrap();

    for k in [0u64, 1, 3] {
        let im = bfs_bounded(&g, 0, k, &Config::with_threads(4)).unwrap();
        let se = bfs_bounded(&sem, 0, k, &Config::with_threads(16)).unwrap();
        assert_eq!(im.dist, se.dist, "k = {k}");
    }
}

#[test]
fn bounded_bfs_respects_unreached_invariants() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 67).directed();
    let out = bfs_bounded(&g, 0, 2, &Config::with_threads(8)).unwrap();
    for v in 0..g.num_vertices() as usize {
        if out.dist[v] == INF_DIST {
            assert_eq!(out.parent[v], asyncgt::NO_VERTEX);
        } else {
            assert!(out.dist[v] <= 2);
        }
    }
}
