//! Fault-injection suite for the semi-external storage path.
//!
//! Transient-only fault schedules must be *invisible* to the algorithms:
//! the retry loop absorbs every injected fault and the traversal results
//! stay bit-identical to the in-memory reference. Permanent faults must
//! abort the run promptly with a typed [`TraversalError::Storage`] — no
//! panic, no hang, partial statistics preserved.
//!
//! The fault schedule seed defaults to a sweep over `1..=3`; set
//! `ASYNCGT_FAULT_SEED` to pin a single seed (as the CI matrix does).

use asyncgt::obs::ShardedRecorder;
use asyncgt::storage::reader::SemConfig;
use asyncgt::storage::{write_sem_graph, FaultPlan, FaultyDevice, RetryPolicy, SemGraph};
use asyncgt::{bfs_bounded, try_bfs, try_connected_components, try_sssp, Config, TraversalError};
use asyncgt_graph::generators::{RmatGenerator, RmatParams};
use asyncgt_graph::weights::{weighted_copy, WeightKind};
use asyncgt_graph::Graph;
use asyncgt_integration_tests::scratch;
use std::sync::Arc;
use std::time::Duration;

/// Fault seeds to sweep: `ASYNCGT_FAULT_SEED` pins one, default is 1..=3.
fn fault_seeds() -> Vec<u64> {
    match std::env::var("ASYNCGT_FAULT_SEED") {
        Ok(s) => vec![s.parse().expect("ASYNCGT_FAULT_SEED must be an integer")],
        Err(_) => vec![1, 2, 3],
    }
}

/// Batch-drain size for the SEM traversal configs: `ASYNCGT_IO_BATCH`
/// (the CI fault matrix sweeps 1/16/64 so the I/O scheduler's coalesced
/// and demand read paths both run under injected faults) or the classic
/// single-visitor drain.
fn io_batch() -> usize {
    std::env::var("ASYNCGT_IO_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Traversal config for the fault-injected SEM runs.
fn sem_traversal_config(threads: usize) -> Config {
    Config::with_threads(threads).with_io_batch(io_batch())
}

/// SEM open configuration with fault injection: small blocks so a
/// traversal touches many distinct blocks, tight backoff so retries do
/// not dominate test wall-clock.
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
fn transient_faults_preserve_bfs_results() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 31).directed();
    let path = scratch("fault_bfs.agt");
    write_sem_graph(&path, &g).unwrap();
    let expect = try_bfs(&g, 0, &Config::with_threads(4)).unwrap();

    for seed in fault_seeds() {
        let sem =
            SemGraph::open_with(&path, faulty_config(FaultPlan::transient(seed, 0.5), 64)).unwrap();
        let out = try_bfs(&sem, 0, &sem_traversal_config(16))
            .unwrap_or_else(|e| panic!("seed {seed}: transient faults must be absorbed: {e}"));
        assert_eq!(out.dist, expect.dist, "seed={seed}");
        // Parents may differ on shortest-path ties (async label-correcting
        // traversal); validate them structurally instead of bit-wise.
        asyncgt::validate::check_shortest_paths(&sem, 0, &out, true)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let io = sem.io_stats();
        assert!(io.retries > 0, "seed {seed}: schedule injected no faults");
        assert_eq!(io.retries, io.faults_absorbed, "seed={seed}");
        assert_eq!(io.faults_fatal, 0, "seed={seed}");
    }
}

#[test]
fn transient_faults_preserve_sssp_results() {
    let g = weighted_copy(
        &RmatGenerator::new(RmatParams::RMAT_B, 10, 8, 32).directed(),
        WeightKind::Uniform,
        13,
    );
    let path = scratch("fault_sssp.agt");
    write_sem_graph(&path, &g).unwrap();
    let expect = try_sssp(&g, 0, &Config::with_threads(4)).unwrap();

    for seed in fault_seeds() {
        let sem =
            SemGraph::open_with(&path, faulty_config(FaultPlan::transient(seed, 0.3), 32)).unwrap();
        let out = try_sssp(&sem, 0, &sem_traversal_config(16))
            .unwrap_or_else(|e| panic!("seed {seed}: transient faults must be absorbed: {e}"));
        assert_eq!(out.dist, expect.dist, "seed={seed}");
        assert_eq!(sem.io_stats().faults_fatal, 0, "seed={seed}");
    }
}

#[test]
fn transient_faults_preserve_cc_results() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 4, 33).undirected();
    let path = scratch("fault_cc.agt");
    write_sem_graph(&path, &g).unwrap();
    let expect = try_connected_components(&g, &Config::with_threads(4)).unwrap();

    for seed in fault_seeds() {
        let sem =
            SemGraph::open_with(&path, faulty_config(FaultPlan::transient(seed, 0.5), 64)).unwrap();
        let out = try_connected_components(&sem, &sem_traversal_config(16))
            .unwrap_or_else(|e| panic!("seed {seed}: transient faults must be absorbed: {e}"));
        assert_eq!(out.ccid, expect.ccid, "seed={seed}");
        assert_eq!(sem.io_stats().faults_fatal, 0, "seed={seed}");
    }
}

#[test]
fn every_read_faulting_once_is_still_absorbed() {
    // rate = 1.0: every block read fails at least once; a burst of up to 2
    // consecutive failures still fits inside the 4-attempt budget.
    let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 34).directed();
    let path = scratch("fault_all.agt");
    write_sem_graph(&path, &g).unwrap();
    let expect = try_bfs(&g, 0, &Config::with_threads(4)).unwrap();

    let sem = SemGraph::open_with(&path, faulty_config(FaultPlan::transient(5, 1.0), 0)).unwrap();
    let out = try_bfs(&sem, 0, &sem_traversal_config(8)).unwrap();
    assert_eq!(out.dist, expect.dist);
    let io = sem.io_stats();
    if io_batch() == 1 {
        // Unbatched, cache disabled: every device read is a single-block
        // demand fetch that faulted at least once before succeeding. (With
        // the I/O scheduler engaged, coalesced run reads also count as
        // device reads but absorb their faults silently on the demand
        // retry, so the inequality only holds for io_batch == 1.)
        assert!(io.faults_absorbed >= io.block_fetches);
    }
    assert!(io.faults_absorbed > 0);
    assert_eq!(io.faults_fatal, 0);
}

#[test]
fn permanent_faults_abort_with_typed_error() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 35).directed();
    let path = scratch("fault_perm.agt");
    write_sem_graph(&path, &g).unwrap();

    for seed in fault_seeds() {
        for threads in [1usize, 8, 64] {
            let sem =
                SemGraph::open_with(&path, faulty_config(FaultPlan::permanent(seed, 1.0), 64))
                    .unwrap();
            let err = try_bfs(&sem, 0, &sem_traversal_config(threads))
                .expect_err("permanent faults must surface");
            match err {
                TraversalError::Storage(e, stats) => {
                    assert!(!e.is_retryable(), "permanent error must not be retryable");
                    // The run dies on its first adjacency fetch: the abort
                    // must be prompt, not a full traversal's worth of work.
                    assert!(
                        stats.visitors_executed <= threads as u64,
                        "seed {seed} threads {threads}: \
                         {} visitors ran after a permanent fault",
                        stats.visitors_executed
                    );
                }
                other => panic!("expected Storage error, got: {other}"),
            }
            let io = sem.io_stats();
            assert_eq!(io.retries, 0, "permanent faults must not be retried");
            assert!(io.faults_fatal >= 1);
        }
    }
}

#[test]
fn sparse_permanent_faults_abort_mid_run() {
    // Fault only ~5% of blocks: the traversal makes real progress before
    // hitting a poisoned block, so partial statistics are non-trivial and
    // parked workers must be woken for the abort to terminate.
    let g = RmatGenerator::new(RmatParams::RMAT_B, 11, 8, 36).directed();
    let path = scratch("fault_sparse.agt");
    write_sem_graph(&path, &g).unwrap();

    let sem =
        SemGraph::open_with(&path, faulty_config(FaultPlan::permanent(2, 0.05), 1024)).unwrap();
    match try_bfs(&sem, 0, &sem_traversal_config(32)) {
        Err(TraversalError::Storage(_, stats)) => {
            assert!(stats.visitors_executed > 0, "some work happened first")
        }
        Err(other) => panic!("expected Storage error, got: {other}"),
        // A 5% schedule can in principle miss every touched block; the
        // result must then match the reference exactly.
        Ok(out) => assert_eq!(
            out.dist,
            try_bfs(&g, 0, &Config::with_threads(4)).unwrap().dist
        ),
    }
}

#[test]
fn bounded_bfs_surfaces_permanent_faults_as_storage_errors() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 39).directed();
    let path = scratch("fault_khop.agt");
    write_sem_graph(&path, &g).unwrap();
    assert!(g.out_degree(0) > 0, "the source must read adjacency");

    // Every block fails on every attempt: the first read aborts the run.
    let sem = SemGraph::open_with(&path, faulty_config(FaultPlan::permanent(4, 1.0), 0)).unwrap();
    match bfs_bounded(&sem, 0, 2, &sem_traversal_config(4)) {
        Err(TraversalError::Storage(e, _)) => assert!(!e.is_retryable()),
        other => panic!("expected a Storage error, got {other:?}"),
    }
}

#[test]
fn recorder_sees_retry_and_fault_counters() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 37).directed();
    let path = scratch("fault_obs.agt");
    write_sem_graph(&path, &g).unwrap();

    let rec = Arc::new(ShardedRecorder::new(8));
    let cfg = SemConfig {
        metrics: Some(rec.clone() as _),
        ..faulty_config(FaultPlan::transient(1, 1.0), 64)
    };
    let sem = SemGraph::open_with(&path, cfg).unwrap();
    asyncgt::try_bfs_recorded(&sem, 0, &sem_traversal_config(8), rec.as_ref()).unwrap();

    // Storage's IoStats counts the faults; the recorder holds only the
    // retry latencies.
    let io = sem.io_stats();
    assert!(io.retries > 0);
    assert_eq!(io.retries, io.faults_absorbed);
    assert_eq!(io.faults_fatal, 0);
    let snap = rec.snapshot();
    let lat = snap.histograms.get(asyncgt::obs::HistKind::RetryLatencyNs);
    assert!(!lat.is_empty(), "retry latency histogram populated");
}

#[test]
fn disabled_fault_injection_changes_nothing() {
    // `faults: None` is the production configuration: results and I/O
    // accounting must look exactly like a fault-free run.
    let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 38).directed();
    let path = scratch("fault_off.agt");
    write_sem_graph(&path, &g).unwrap();

    let sem = SemGraph::open(&path).unwrap();
    let out = try_bfs(&sem, 0, &Config::with_threads(8)).unwrap();
    assert_eq!(
        out.dist,
        try_bfs(&g, 0, &Config::with_threads(4)).unwrap().dist
    );
    let io = sem.io_stats();
    assert_eq!(io.retries, 0);
    assert_eq!(io.faults_absorbed, 0);
    assert_eq!(io.faults_fatal, 0);
}
