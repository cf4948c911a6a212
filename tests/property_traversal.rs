//! Property-based tests (proptest): on arbitrary random graphs the
//! asynchronous traversals must match the serial references and satisfy
//! their structural invariants, for arbitrary thread counts and sources.

use asyncgt::obs::NoopRecorder;
use asyncgt::validate::{check_components, check_shortest_paths};
use asyncgt::{
    try_bfs, try_connected_components, try_sssp, with_engine, Config, EngineOpts, TraversalStats,
};
use asyncgt_baselines::{serial, union_find};
use asyncgt_graph::traits::WeightedEdgeList;
use asyncgt_graph::{CsrGraph, Graph, GraphBuilder};
use proptest::prelude::*;

/// Strategy: a directed weighted graph with 2–120 vertices and 0–500 edges.
fn arb_graph() -> impl Strategy<Value = CsrGraph<u32>> {
    (
        2u64..120,
        proptest::collection::vec((0u64..120, 0u64..120, 0u32..64), 0..500),
    )
        .prop_map(|(n, raw)| {
            let edges: WeightedEdgeList =
                raw.into_iter().map(|(s, t, w)| (s % n, t % n, w)).collect();
            GraphBuilder::from_edges(n, edges, true).dedup().build()
        })
}

/// Strategy: an undirected graph (symmetrized), 2–120 vertices.
fn arb_undirected() -> impl Strategy<Value = CsrGraph<u32>> {
    (
        2u64..120,
        proptest::collection::vec((0u64..120, 0u64..120), 0..300),
    )
        .prop_map(|(n, raw)| {
            let edges: WeightedEdgeList = raw.into_iter().map(|(s, t)| (s % n, t % n, 1)).collect();
            GraphBuilder::from_edges(n, edges, false)
                .remove_self_loops()
                .symmetrize()
                .dedup()
                .build()
        })
}

/// A visitor expands only if it carries its vertex's label, so a run
/// never relaxes more than it executes, and every labeled vertex expands
/// at least once (the visitor of its final label).
fn expands_once(stats: &TraversalStats, labeled: u64) -> Result<(), String> {
    prop_assert!(stats.relaxations <= stats.visitors_executed);
    prop_assert!(labeled <= stats.relaxations);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn async_sssp_equals_dijkstra(g in arb_graph(), threads in 1usize..12, src in 0u64..120) {
        let src = src % g.num_vertices();
        let expect = serial::dijkstra(&g, src);
        let out = try_sssp(&g, src, &Config::with_threads(threads)).unwrap();
        prop_assert_eq!(&out.dist, &expect.dist);
        prop_assert!(check_shortest_paths(&g, src, &out, false).is_ok());
        expands_once(&out.stats, out.reached_count())?;
    }

    #[test]
    fn async_bfs_equals_serial(g in arb_graph(), threads in 1usize..12, src in 0u64..120) {
        let src = src % g.num_vertices();
        let expect = serial::bfs(&g, src);
        let out = try_bfs(&g, src, &Config::with_threads(threads)).unwrap();
        prop_assert_eq!(&out.dist, &expect.dist);
        prop_assert!(check_shortest_paths(&g, src, &out, true).is_ok());
        expands_once(&out.stats, out.reached_count())?;
    }

    #[test]
    fn async_cc_equals_union_find(g in arb_undirected(), threads in 1usize..12) {
        let expect = union_find::connected_components(&g);
        let out = try_connected_components(&g, &Config::with_threads(threads)).unwrap();
        prop_assert_eq!(&out.ccid, &expect);
        prop_assert!(check_components(&g, &out.ccid).is_ok());
        expands_once(&out.stats, g.num_vertices())?;
        // The engine runs the same relax over the 16-byte path visitor.
        let opts = EngineOpts::with_threads(threads);
        let (engine, _) = with_engine(&g, &opts, &NoopRecorder, |eng| {
            eng.submit_cc().unwrap().wait().unwrap()
        });
        prop_assert_eq!(&engine.ccid, &expect);
        expands_once(&engine.stats, g.num_vertices())?;
    }

    #[test]
    fn bfs_distance_is_hop_count_of_returned_path(g in arb_graph(), src in 0u64..120) {
        let src = src % g.num_vertices();
        let out = try_bfs(&g, src, &Config::with_threads(4)).unwrap();
        for v in 0..g.num_vertices() {
            if let Some(path) = out.path_to(v) {
                prop_assert_eq!(path.len() as u64 - 1, out.dist[v as usize]);
                prop_assert_eq!(*path.first().unwrap(), src);
                prop_assert_eq!(*path.last().unwrap(), v);
                // Every hop must be a real edge.
                for pair in path.windows(2) {
                    prop_assert!(g.neighbors(pair[0]).contains(&pair[1]));
                }
            }
        }
    }

    #[test]
    fn sem_round_trip_preserves_graph(g in arb_graph()) {
        use asyncgt::storage::{write_sem_graph, SemGraph};
        let path = std::env::temp_dir()
            .join(format!("asyncgt_prop_{}_{:x}.agt", std::process::id(),
                          g.num_vertices() * 31 + g.num_edges()));
        write_sem_graph(&path, &g).unwrap();
        let sem = SemGraph::open(&path).unwrap();
        prop_assert_eq!(sem.num_vertices(), g.num_vertices());
        prop_assert_eq!(sem.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() {
            let mut mem = Vec::new();
            g.for_each_neighbor(v, |t, w| mem.push((t, w)));
            let mut dsk = Vec::new();
            sem.for_each_neighbor(v, |t, w| dsk.push((t, w)));
            prop_assert_eq!(&mem, &dsk);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_source_bfs_is_min_of_singles(
        g in arb_graph(),
        raw_sources in proptest::collection::vec(0u64..120, 1..4),
    ) {
        let n = g.num_vertices();
        let mut sources: Vec<u64> = raw_sources.into_iter().map(|s| s % n).collect();
        sources.sort_unstable();
        sources.dedup();
        let opts = EngineOpts::with_threads(4);
        let (multi, _) = with_engine(&g, &opts, &NoopRecorder, |eng| {
            eng.submit_bfs(&sources).unwrap().wait().unwrap()
        });
        for v in 0..n as usize {
            let want = sources
                .iter()
                .map(|&s| serial::bfs(&g, s).dist[v])
                .min()
                .unwrap();
            prop_assert_eq!(multi.dist[v], want);
        }
    }

    #[test]
    fn cc_labels_partition_the_graph(g in arb_undirected()) {
        let out = try_connected_components(&g, &Config::with_threads(6)).unwrap();
        // Labels are attained minima: ccid[label] == label and label <= v.
        for v in 0..g.num_vertices() {
            let c = out.ccid[v as usize];
            prop_assert!(c <= v);
            prop_assert_eq!(out.ccid[c as usize], c);
        }
        // Component count equals the number of distinct labels.
        let mut labels = out.ccid.clone();
        labels.sort_unstable();
        labels.dedup();
        prop_assert_eq!(labels.len() as u64, out.component_count());
    }
}
