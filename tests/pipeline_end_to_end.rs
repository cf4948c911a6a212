//! End-to-end pipeline tests covering the full user workflow:
//! generate → save edge list → reload → build CSR → serialize SEM →
//! reopen semi-external → traverse → validate.

use asyncgt::storage::{write_sem_graph, SemGraph};
use asyncgt::validate::{check_components, check_shortest_paths};
use asyncgt::{try_bfs, try_connected_components, try_sssp, Config};
use asyncgt_graph::generators::{RmatGenerator, RmatParams};
use asyncgt_graph::weights::{assign_weights, WeightKind};
use asyncgt_graph::{io, Graph, GraphBuilder};
use asyncgt_integration_tests::scratch;
use std::fs::File;

#[test]
fn full_pipeline_binary_edge_list() {
    // 1. Generate RMAT edges with LUW weights.
    let gen = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 30);
    let n = gen.num_vertices();
    let mut edges = gen.edges();
    assign_weights(&mut edges, WeightKind::LogUniform, n, 77);

    // 2. Save and reload as a binary edge list.
    let elist = scratch("pipeline.edges");
    io::save_binary(&elist, n, &edges, true).unwrap();
    let (hdr, loaded) = io::load_binary(&elist).unwrap();
    assert_eq!(hdr.num_vertices, n);
    assert!(hdr.weighted);
    assert_eq!(loaded, edges);

    // 3. Build the in-memory CSR and run SSSP.
    let g = GraphBuilder::from_edges(n, loaded, true).build::<u32>();
    let cfg = Config::with_threads(16);
    let im = try_sssp(&g, 0, &cfg).unwrap();
    check_shortest_paths(&g, 0, &im, false).unwrap();

    // 4. Serialize to the SEM format and traverse semi-externally.
    let semf = scratch("pipeline.agt");
    write_sem_graph(&semf, &g).unwrap();
    let sem = SemGraph::open(&semf).unwrap();
    let se = try_sssp(&sem, 0, &cfg).unwrap();
    assert_eq!(se.dist, im.dist);
    // Parent arrays may differ between runs when shortest paths tie; each
    // must independently satisfy the shortest-path-tree invariants.
    check_shortest_paths(&sem, 0, &se, false).unwrap();
}

#[test]
fn full_pipeline_text_edge_list() {
    let gen = RmatGenerator::new(RmatParams::RMAT_B, 8, 4, 31);
    let n = gen.num_vertices();
    let edges = gen.edges();

    let path = scratch("pipeline.txt");
    io::write_text(File::create(&path).unwrap(), n, &edges, false).unwrap();
    let (hdr, loaded) = io::read_text(File::open(&path).unwrap()).unwrap();
    assert_eq!(hdr.num_vertices, n);
    assert_eq!(loaded.len(), edges.len());

    // Undirected CC across the whole pipeline.
    let g = GraphBuilder::from_edges(n, loaded, false)
        .symmetrize()
        .dedup()
        .build::<u32>();
    let out = try_connected_components(&g, &Config::with_threads(8)).unwrap();
    check_components(&g, &out.ccid).unwrap();
}

#[test]
fn bfs_stats_columns_are_consistent() {
    // The experiment tables derive their columns from these accessors; make
    // sure they are internally consistent on a realistic workload.
    let g = RmatGenerator::new(RmatParams::RMAT_A, 11, 16, 32).directed();
    let out = try_bfs(&g, 0, &Config::with_threads(32)).unwrap();
    check_shortest_paths(&g, 0, &out, true).unwrap();

    let reached = out.reached_count();
    assert!(reached > 0);
    assert!(out.level_count() <= reached);
    assert!(out.visited_fraction() <= 1.0);
    assert!(
        out.stats.relaxations >= reached,
        "each reached vertex relaxed ≥ once"
    );
    assert_eq!(
        out.stats.visitors_pushed, out.stats.visitors_executed,
        "at termination every pushed visitor has executed"
    );
    assert!(out.stats.local_pushes <= out.stats.visitors_pushed);
    assert!(out.stats.elapsed.as_nanos() > 0);
}

#[test]
fn sem_file_is_portable_across_opens() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 33).directed();
    let path = scratch("portable.agt");
    write_sem_graph(&path, &g).unwrap();

    // Multiple concurrent SemGraph instances over the same file.
    let sem1 = SemGraph::open(&path).unwrap();
    let sem2 = SemGraph::open(&path).unwrap();
    let a = try_bfs(&sem1, 0, &Config::with_threads(8)).unwrap();
    let b = try_bfs(&sem2, 0, &Config::with_threads(2)).unwrap();
    assert_eq!(a.dist, b.dist);
    assert_eq!(sem1.num_edges(), g.num_edges());
}
