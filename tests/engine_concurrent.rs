//! Concurrent multi-query execution on one persistent traversal engine.
//!
//! One [`asyncgt::TraversalEngine`] must serve many interleaved BFS /
//! SSSP / CC queries — over in-memory CSR and fault-injected SEM graphs
//! alike — with results identical to serial one-shot runs, workers
//! spawned exactly once, one aborting query leaving its siblings exact,
//! a clean drain on shutdown, and near-zero CPU while idle.

use asyncgt::obs::{NoopRecorder, ShardedRecorder};
use asyncgt::storage::reader::SemConfig;
use asyncgt::storage::{write_sem_graph, FaultPlan, FaultyDevice, RetryPolicy, SemGraph};
use asyncgt::{
    try_bfs, try_connected_components, try_sssp, with_engine, Config, EngineOpts, TraversalError,
};
use asyncgt_integration_tests::{random_graph, random_undirected, scratch};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Duration;

/// Every test here starts worker threads named `vq-worker-*`. The idle-CPU
/// test reads those threads' CPU time from `/proc`, so it holds this lock
/// exclusively and the other tests share it.
static WORKERS: RwLock<()> = RwLock::new(());

fn shared_workers() -> RwLockReadGuard<'static, ()> {
    // A sibling's failure poisons the lock; its `()` holds no state.
    WORKERS.read().unwrap_or_else(|e| e.into_inner())
}

fn opts(threads: usize, max_concurrent: usize) -> EngineOpts {
    EngineOpts {
        cfg: Config::with_threads(threads),
        max_concurrent,
    }
}

#[test]
fn mixed_queries_on_one_engine_match_serial() {
    let _workers = shared_workers();
    let g = random_undirected(600, 2_400, 7);
    let cfg = Config::with_threads(4);
    let sources = [0u64, 17, 99, 300, 599];
    let serial_bfs: Vec<_> = sources
        .iter()
        .map(|&s| try_bfs(&g, s, &cfg).unwrap())
        .collect();
    let serial_sssp: Vec<_> = sources
        .iter()
        .map(|&s| try_sssp(&g, s, &cfg).unwrap())
        .collect();
    let serial_cc = try_connected_components(&g, &cfg).unwrap();

    let ((bfs_out, sssp_out, cc_out), stats) = with_engine(&g, &opts(4, 8), &NoopRecorder, |eng| {
        // Submit the full mixed batch before waiting on anything, so
        // the three algorithm families genuinely interleave.
        let tb: Vec<_> = sources
            .iter()
            .map(|&s| eng.submit_bfs(&[s]).unwrap())
            .collect();
        let ts: Vec<_> = sources
            .iter()
            .map(|&s| eng.submit_sssp(&[s]).unwrap())
            .collect();
        let tc = eng.submit_cc().unwrap();
        (
            tb.into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>(),
            ts.into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>(),
            tc.wait().unwrap(),
        )
    });
    for (got, want) in bfs_out.iter().zip(&serial_bfs) {
        assert_eq!(got.dist, want.dist, "BFS levels must match serial");
    }
    for (got, want) in sssp_out.iter().zip(&serial_sssp) {
        assert_eq!(got.dist, want.dist, "SSSP distances must match serial");
    }
    assert_eq!(cc_out.ccid, serial_cc.ccid, "CC labels must match serial");
    assert_eq!(stats.queries, 2 * sources.len() as u64 + 1);
}

#[test]
fn sixty_four_concurrent_queries_are_byte_identical() {
    let _workers = shared_workers();
    let g = random_graph(400, 3_000, 50, 11);
    let cfg = Config::with_threads(4);
    let sources: Vec<u64> = (0..64).map(|i| (i * 13) % 400).collect();
    let serial: Vec<_> = sources
        .iter()
        .map(|&s| try_sssp(&g, s, &cfg).unwrap())
        .collect();

    let (engine_out, stats) = with_engine(&g, &opts(4, 64), &NoopRecorder, |eng| {
        let tickets: Vec<_> = sources
            .iter()
            .map(|&s| {
                eng.submit_sssp(&[s])
                    .expect("64 submits fit the admission window")
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().unwrap())
            .collect::<Vec<_>>()
    });
    for (i, (got, want)) in engine_out.iter().zip(&serial).enumerate() {
        assert_eq!(
            got.dist, want.dist,
            "query {i} diverged from its serial run"
        );
    }
    assert_eq!(stats.queries, 64);
    assert_eq!(stats.num_threads, 4, "64 queries share 4 workers");
}

#[test]
fn workers_spawn_exactly_once_across_many_queries() {
    let _workers = shared_workers();
    let g = random_graph(300, 1_500, 20, 3);
    let rec = ShardedRecorder::new(4);
    let (_, stats) = with_engine(&g, &opts(4, 4), &rec, |eng| {
        // Several waves with full drains between them: a naive engine
        // would re-spawn its pool per wave.
        for wave in 0..5 {
            let tickets: Vec<_> = (0..8)
                .map(|i| eng.submit_bfs(&[(wave * 8 + i) % 300]).unwrap())
                .collect();
            for t in tickets {
                t.wait().unwrap();
            }
        }
    });
    assert_eq!(stats.queries, 40);
    let starts = rec
        .snapshot()
        .timeline
        .iter()
        .filter(|e| e.label == "worker_start")
        .count();
    assert_eq!(
        starts, 4,
        "40 queries must not spawn more than the initial pool"
    );
}

fn faulty_config(plan: FaultPlan, cache_blocks: usize) -> SemConfig {
    SemConfig {
        block_size: 4096,
        cache_blocks,
        faults: Some(Arc::new(FaultyDevice::new(plan))),
        retry: RetryPolicy {
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(50),
            ..RetryPolicy::default()
        },
        ..SemConfig::default()
    }
}

#[test]
fn sem_engine_with_absorbed_faults_matches_in_memory() {
    let _workers = shared_workers();
    let g = random_undirected(500, 2_000, 23);
    let path = scratch("engine_sem_transient.agt");
    write_sem_graph(&path, &g).unwrap();
    let cfg = Config::with_threads(4);
    let sources = [0u64, 50, 250, 499];
    let serial: Vec<_> = sources
        .iter()
        .map(|&s| try_bfs(&g, s, &cfg).unwrap())
        .collect();
    let serial_cc = try_connected_components(&g, &cfg).unwrap();

    let sem = SemGraph::open_with(&path, faulty_config(FaultPlan::transient(2, 0.4), 64)).unwrap();
    let ((bfs_out, cc_out), _) = with_engine(&sem, &opts(4, 8), &NoopRecorder, |eng| {
        let tb: Vec<_> = sources
            .iter()
            .map(|&s| eng.submit_bfs(&[s]).unwrap())
            .collect();
        let tc = eng.submit_cc().unwrap();
        (
            tb.into_iter()
                .map(|t| t.wait().expect("transient faults must be absorbed"))
                .collect::<Vec<_>>(),
            tc.wait().expect("transient faults must be absorbed"),
        )
    });
    for (got, want) in bfs_out.iter().zip(&serial) {
        assert_eq!(
            got.dist, want.dist,
            "SEM engine BFS must match in-memory serial"
        );
    }
    assert_eq!(cc_out.ccid, serial_cc.ccid);
}

#[test]
fn aborted_query_leaves_sibling_queries_exact() {
    let _workers = shared_workers();
    // Permanent faults hit a schedule-chosen subset of blocks, so queries
    // whose reachable adjacency avoids them succeed while the rest abort.
    // The fault schedule is a pure function of (seed, block) and faulty
    // blocks are never cached, so the serial classification below is the
    // ground truth for the concurrent run.
    // Sparse, so per-source reachable block sets differ enough for a
    // schedule that splits the batch to exist among the swept seeds.
    let g = random_graph(2_000, 2_600, 30, 41);
    let path = scratch("engine_sem_permanent.agt");
    write_sem_graph(&path, &g).unwrap();
    let cfg = Config::with_threads(4);
    let sources: Vec<u64> = (0..16).map(|i| i * 125).collect();

    let (sem, serial) = (1..=16)
        .find_map(|seed| {
            let sem =
                SemGraph::open_with(&path, faulty_config(FaultPlan::permanent(seed, 0.25), 64))
                    .unwrap();
            let serial: Vec<Result<Vec<u64>, ()>> = sources
                .iter()
                .map(|&s| {
                    asyncgt::try_bfs(&sem, s, &cfg)
                        .map(|out| out.dist)
                        .map_err(|_| ())
                })
                .collect();
            let aborted = serial.iter().filter(|r| r.is_err()).count();
            (aborted > 0 && aborted < sources.len()).then_some((sem, serial))
        })
        .expect("no swept fault seed split the batch into aborts and successes");

    let (engine_out, stats) = with_engine(&sem, &opts(4, 16), &NoopRecorder, |eng| {
        let tickets: Vec<_> = sources
            .iter()
            .map(|&s| eng.submit_bfs(&[s]).unwrap())
            .collect();
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    });
    assert_eq!(stats.queries, sources.len() as u64);
    for (i, (got, want)) in engine_out.iter().zip(&serial).enumerate() {
        match (got, want) {
            (Ok(out), Ok(dist)) => {
                assert_eq!(
                    &out.dist, dist,
                    "sibling of an aborted query diverged (query {i})"
                )
            }
            (Err(TraversalError::Storage(..)), Err(())) => {}
            (got, want) => panic!(
                "query {i}: engine outcome {} but serial outcome {}",
                if got.is_ok() { "succeeded" } else { "failed" },
                if want.is_ok() { "succeeded" } else { "failed" },
            ),
        }
    }
}

/// Summed utime+stime (clock ticks) of the named engine workers, from
/// `/proc/self/task/*/`.
#[cfg(target_os = "linux")]
fn worker_cpu_ticks() -> u64 {
    let mut ticks = 0;
    for entry in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = entry.unwrap().path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("vq-worker") {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).unwrap_or_default();
        // utime and stime are fields 14 and 15; the comm field (2) may
        // contain spaces, so index from the closing paren.
        if let Some((_, rest)) = stat.rsplit_once(')') {
            let f: Vec<&str> = rest.split_whitespace().collect();
            ticks += f[11].parse::<u64>().unwrap_or(0) + f[12].parse::<u64>().unwrap_or(0);
        }
    }
    ticks
}

/// Regression test for the idle-spin burn: parked workers awaiting work
/// must not consume CPU. Measures only the named `vq-worker-*` threads,
/// and holds `WORKERS` exclusively so no sibling test's workers (same
/// names) run during the reading.
#[cfg(target_os = "linux")]
#[test]
fn idle_engine_burns_near_zero_cpu() {
    let _alone = WORKERS.write().unwrap_or_else(|e| e.into_inner());
    let g = random_graph(200, 800, 10, 13);
    with_engine(&g, &opts(8, 8), &NoopRecorder, |eng| {
        // Settle: one tiny query, then let every worker park.
        eng.submit_bfs(&[0]).unwrap().wait().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let before = worker_cpu_ticks();
        std::thread::sleep(Duration::from_millis(400));
        let burned = worker_cpu_ticks() - before;
        // 8 idle workers over 400ms: spinning would burn ~hundreds of
        // ticks (at the usual 100 Hz); parked workers burn ~none. Allow
        // a little slack for wakeup jitter on a loaded CI host.
        assert!(
            burned <= 8,
            "idle engine burned {burned} cpu ticks across its workers"
        );
    });
}
