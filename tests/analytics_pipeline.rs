//! Integration tests for the analytics layer built on the traversal
//! building blocks: PageRank / diameter / k-hop, including over
//! semi-external storage — the "many graph
//! analysis algorithms and applications" the paper positions its
//! traversals as building blocks for.

use asyncgt::storage::write_sem_graph;
use asyncgt::{bfs_bounded, double_sweep, pagerank, Config, PageRankParams, SemGraph, INF_DIST};
use asyncgt_baselines::power_iteration;
use asyncgt_graph::generators::{webgraph_like, RmatGenerator, RmatParams, WebGraphParams};
use asyncgt_graph::Graph;
use asyncgt_integration_tests::scratch;

#[test]
fn pagerank_works_over_sem_storage() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 61).undirected();
    let path = scratch("analytics_pr.agt");
    write_sem_graph(&path, &g).unwrap();
    let sem = SemGraph::open(&path).unwrap();

    let params = PageRankParams {
        damping: 0.85,
        tolerance: 1e-9,
    };
    let im = pagerank(&g, &params, &Config::with_threads(4));
    let se = pagerank(&sem, &params, &Config::with_threads(16));
    let l1: f64 = im
        .rank
        .iter()
        .zip(&se.rank)
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(l1 < 1e-5, "IM and SEM PageRank diverged: L1 = {l1}");
}

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
fn diameter_consistent_between_im_and_sem() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 65).undirected();
    let path = scratch("analytics_diam.agt");
    write_sem_graph(&path, &g).unwrap();
    let sem = SemGraph::open(&path).unwrap();

    let im = double_sweep(&g, 0, &Config::with_threads(4)).unwrap();
    let se = double_sweep(&sem, 0, &Config::with_threads(8)).unwrap();
    assert_eq!(im.diameter_lower_bound, se.diameter_lower_bound);
}

#[test]
fn pagerank_reference_cross_check_on_webgraph() {
    let g = webgraph_like(&WebGraphParams::webbase_like(2048, 66));
    let ours = pagerank(
        &g,
        &PageRankParams {
            damping: 0.85,
            tolerance: 1e-10,
        },
        &Config::with_threads(8),
    );
    let reference = power_iteration::pagerank(&g, 0.85, 200, 1e-12);
    let l1: f64 = ours
        .rank
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(l1 < 1e-4, "L1 to power iteration: {l1}");
    // Top page agrees.
    let top_ours = ours.top_k(1)[0].0;
    let top_ref = (0..reference.len())
        .max_by(|&a, &b| reference[a].partial_cmp(&reference[b]).unwrap())
        .unwrap() as u64;
    assert_eq!(top_ours, top_ref);
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
