//! The asynchronous traversals are exact algorithms: on every input and at
//! every thread count they must produce the same distances/labels as the
//! serial textbook implementations. These tests sweep random graphs, RMAT
//! graphs, and degenerate structures across thread counts.

use asyncgt::{try_bfs, try_connected_components, try_sssp, Config};
use asyncgt_baselines::{level_sync, serial, union_find};
use asyncgt_graph::generators::{
    binary_tree, complete_graph, cycle_graph, grid_graph, path_graph, star_graph, RmatGenerator,
    RmatParams,
};
use asyncgt_graph::weights::{weighted_copy, WeightKind};
use asyncgt_integration_tests::{random_graph, random_undirected};

const THREADS: &[usize] = &[1, 3, 8, 32];

#[test]
fn bfs_equals_serial_on_random_graphs() {
    for seed in 0..6 {
        let g = random_graph(300, 1800, 1, seed);
        let expect = serial::bfs(&g, 0);
        for &t in THREADS {
            let out = try_bfs(&g, 0, &Config::with_threads(t)).unwrap();
            assert_eq!(out.dist, expect.dist, "seed={seed} threads={t}");
        }
    }
}

#[test]
fn sssp_equals_dijkstra_on_random_graphs() {
    for seed in 0..6 {
        let g = random_graph(250, 1500, 1000, seed + 100);
        let expect = serial::dijkstra(&g, 0);
        for &t in THREADS {
            let out = try_sssp(&g, 0, &Config::with_threads(t)).unwrap();
            assert_eq!(out.dist, expect.dist, "seed={seed} threads={t}");
        }
    }
}

#[test]
fn sssp_with_zero_weight_edges() {
    // Zero weights are legal ("non-negatively weighted") and exercise the
    // equal-priority path in the queues.
    for seed in 0..4 {
        let g = random_graph(200, 1200, 3, seed + 500); // many zero/small weights
        let expect = serial::dijkstra(&g, 0);
        let out = try_sssp(&g, 0, &Config::with_threads(8)).unwrap();
        assert_eq!(out.dist, expect.dist, "seed={seed}");
    }
}

#[test]
fn cc_equals_serial_on_random_graphs() {
    for seed in 0..6 {
        let g = random_undirected(300, 500, seed + 200);
        let expect = serial::connected_components(&g);
        for &t in THREADS {
            let out = try_connected_components(&g, &Config::with_threads(t)).unwrap();
            assert_eq!(out.ccid, expect, "seed={seed} threads={t}");
        }
    }
}

#[test]
fn all_algorithms_agree_on_rmat() {
    for params in [RmatParams::RMAT_A, RmatParams::RMAT_B] {
        let gen = RmatGenerator::new(params, 11, 8, 99);
        let d = gen.directed();
        let u = gen.undirected();

        // BFS: serial == level-sync == async.
        let b_ser = serial::bfs(&d, 0);
        assert_eq!(level_sync::bfs(&d, 0, 4).dist, b_ser.dist);
        assert_eq!(
            try_bfs(&d, 0, &Config::with_threads(16)).unwrap().dist,
            b_ser.dist
        );

        // SSSP: dijkstra == async.
        let w = weighted_copy(&d, WeightKind::LogUniform, 3);
        let s_ser = serial::dijkstra(&w, 0);
        assert_eq!(
            try_sssp(&w, 0, &Config::with_threads(16)).unwrap().dist,
            s_ser.dist
        );

        // CC: serial BFS == union-find == label-prop == async.
        let c_ser = serial::connected_components(&u);
        assert_eq!(union_find::connected_components(&u), c_ser);
        assert_eq!(level_sync::connected_components(&u, 4), c_ser);
        assert_eq!(
            try_connected_components(&u, &Config::with_threads(16))
                .unwrap()
                .ccid,
            c_ser
        );
    }
}

#[test]
fn degenerate_structures() {
    let cfg = Config::with_threads(8);
    // Chain (paper Fig. 2 worst case).
    let chain = path_graph(1000);
    assert_eq!(
        try_bfs(&chain, 0, &cfg).unwrap().dist,
        serial::bfs(&chain, 0).dist
    );
    // Star (extreme hub).
    let star = star_graph(1000);
    assert_eq!(
        try_connected_components(&star, &cfg)
            .unwrap()
            .component_count(),
        1
    );
    // Complete graph (every pair adjacent).
    let k = complete_graph(64);
    let out = try_bfs(&k, 5, &cfg).unwrap();
    assert_eq!(out.level_count(), 2);
    assert_eq!(out.reached_count(), 64);
    // Cycle, binary tree, grid.
    for g in [cycle_graph(501), grid_graph(25, 40)] {
        assert_eq!(try_bfs(&g, 0, &cfg).unwrap().dist, serial::bfs(&g, 0).dist);
    }
    let t = binary_tree(10);
    assert_eq!(try_bfs(&t, 0, &cfg).unwrap().dist, serial::bfs(&t, 0).dist);
}

#[test]
fn single_vertex_graph() {
    let g = asyncgt::CsrGraph::<u32>::empty(1);
    let cfg = Config::with_threads(4);
    let out = try_bfs(&g, 0, &cfg).unwrap();
    assert_eq!(out.dist, vec![0]);
    let cc = try_connected_components(&g, &cfg).unwrap();
    assert_eq!(cc.ccid, vec![0]);
}

#[test]
fn repeated_runs_are_deterministic_in_result() {
    // The execution order is nondeterministic; the *results* never are.
    let g = random_graph(400, 2400, 50, 7);
    let first = try_sssp(&g, 0, &Config::with_threads(16)).unwrap();
    for _ in 0..5 {
        let again = try_sssp(&g, 0, &Config::with_threads(16)).unwrap();
        assert_eq!(again.dist, first.dist);
    }
}
