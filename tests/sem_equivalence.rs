//! The semi-external implementation must produce byte-identical results to
//! the in-memory one — same algorithms, different storage — across block
//! sizes, cache configurations, and simulated devices.

use asyncgt::storage::reader::SemConfig;
use asyncgt::storage::{write_sem_graph, DeviceModel, SemGraph, SimulatedFlash};
use asyncgt::{try_bfs, try_connected_components, try_sssp, Config};
use asyncgt_graph::generators::{RmatGenerator, RmatParams};
use asyncgt_graph::weights::{weighted_copy, WeightKind};
use asyncgt_graph::Graph;
use asyncgt_integration_tests::scratch;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn sem_bfs_equals_in_memory_across_block_sizes() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 5).directed();
    let path = scratch("sem_bfs.agt");
    write_sem_graph(&path, &g).unwrap();
    let expect = try_bfs(&g, 0, &Config::with_threads(4)).unwrap();

    for block_size in [64, 4096, 1 << 20] {
        for cache_blocks in [0usize, 16, 1024] {
            let sem = SemGraph::open_with(
                &path,
                SemConfig {
                    block_size,
                    cache_blocks,
                    device: None,
                    metrics: None,
                    ..SemConfig::default()
                },
            )
            .unwrap();
            let out = try_bfs(&sem, 0, &Config::with_threads(16)).unwrap();
            assert_eq!(
                out.dist, expect.dist,
                "block_size={block_size} cache={cache_blocks}"
            );
        }
    }
}

#[test]
fn sem_sssp_weighted_round_trip() {
    let g = weighted_copy(
        &RmatGenerator::new(RmatParams::RMAT_B, 10, 8, 6).directed(),
        WeightKind::Uniform,
        11,
    );
    let path = scratch("sem_sssp.agt");
    write_sem_graph(&path, &g).unwrap();
    let sem = SemGraph::open(&path).unwrap();
    assert!(sem.is_weighted());

    let expect = try_sssp(&g, 0, &Config::with_threads(4)).unwrap();
    let out = try_sssp(&sem, 0, &Config::with_threads(32)).unwrap();
    assert_eq!(out.dist, expect.dist);
    // Parents may differ on shortest-path ties; validate them structurally.
    asyncgt::validate::check_shortest_paths(&sem, 0, &out, false).unwrap();
}

#[test]
fn sem_cc_equals_in_memory() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 4, 7).undirected();
    let path = scratch("sem_cc.agt");
    write_sem_graph(&path, &g).unwrap();
    let sem = SemGraph::open(&path).unwrap();

    let expect = try_connected_components(&g, &Config::with_threads(4)).unwrap();
    let out = try_connected_components(&sem, &Config::with_threads(32)).unwrap();
    assert_eq!(out.ccid, expect.ccid);
    assert_eq!(out.component_count(), expect.component_count());
}

#[test]
fn sem_through_simulated_devices_matches() {
    // Fast-forwarded device (tiny service time) so the test stays quick
    // while still exercising the channel-bounded concurrency path.
    let g = RmatGenerator::new(RmatParams::RMAT_B, 9, 8, 8).directed();
    let path = scratch("sem_dev.agt");
    write_sem_graph(&path, &g).unwrap();
    let expect = try_bfs(&g, 0, &Config::with_threads(4)).unwrap();

    for channels in [1u32, 4, 32] {
        let device = Arc::new(SimulatedFlash::new(DeviceModel {
            name: "test",
            channels,
            service_time: Duration::from_micros(20),
        }));
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 8192,
                cache_blocks: 64,
                device: Some(device.clone()),
                metrics: None,
                ..SemConfig::default()
            },
        )
        .unwrap();
        let out = try_bfs(&sem, 0, &Config::with_threads(64)).unwrap();
        assert_eq!(out.dist, expect.dist, "channels={channels}");
        assert!(device.total_reads() > 0, "device must have been exercised");
    }
}

#[test]
fn sem_u64_index_width_traverses() {
    let g: asyncgt::CsrGraph<u64> = {
        use asyncgt_graph::GraphBuilder;
        let mut b = GraphBuilder::new(100);
        for v in 0..99 {
            b = b.add_edge(v, v + 1);
        }
        b.add_edge(99, 0).build()
    };
    let path = scratch("sem_u64.agt");
    write_sem_graph(&path, &g).unwrap();
    let sem = SemGraph::open(&path).unwrap();
    assert_eq!(sem.header().index_width, 8);
    let out = try_bfs(&sem, 0, &Config::with_threads(4)).unwrap();
    for v in 0..100u64 {
        assert_eq!(out.dist[v as usize], v);
    }
}

#[test]
fn io_stats_reflect_traversal() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 13).directed();
    let path = scratch("sem_stats.agt");
    write_sem_graph(&path, &g).unwrap();
    let sem = SemGraph::open(&path).unwrap();

    let out = try_bfs(&sem, 0, &Config::with_threads(8)).unwrap();
    let io = sem.io_stats();
    // Every relaxed vertex with out-edges triggers exactly one adjacency
    // read per relaxation; label correcting may add more, never fewer.
    assert!(io.adjacency_reads >= out.reached_count() / 2);
    assert!(io.bytes_read > 0);
}
