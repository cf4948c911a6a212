//! I/O scheduler suite: batched visitor service rounds must change *how*
//! adjacency bytes reach the traversal — coalesced device reads, optional
//! readahead, optional prefetch pool — without changing *what* the
//! traversal computes.
//!
//! Three invariant families:
//!
//! 1. **Coalescing pays.** With the block cache disabled every adjacency
//!    block is a device read; batching the semi-sorted service round must
//!    measurably reduce `block_fetches` versus the one-visitor drain, with
//!    byte-identical results (the paper's §IV-C locality argument, turned
//!    into fewer-but-larger requests instead of cache hits).
//! 2. **Equivalence.** BFS/SSSP/CC outputs are identical to the in-memory
//!    reference across thread counts, `io_batch` sizes, readahead depths,
//!    and prefetch-pool sizes — including under injected transient faults.
//! 3. **Accounting.** `cache_hits`/`cache_misses` are only ever counted at
//!    adjacency-serving lookups: with the cache disabled both stay zero no
//!    matter how the bytes were fetched, and with the cache enabled (and
//!    no scheduler in play) every miss is exactly one device read.

use asyncgt::storage::reader::SemConfig;
use asyncgt::storage::{write_sem_graph, FaultPlan, FaultyDevice, RetryPolicy, SemGraph};
use asyncgt::{try_bfs, try_connected_components, try_sssp, Config};
use asyncgt_graph::generators::{RmatGenerator, RmatParams};
use asyncgt_graph::weights::{weighted_copy, WeightKind};
use asyncgt_integration_tests::scratch;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Fresh SEM view of `path` — per-open counters start at zero, so each
/// (config, traversal) pair gets its own clean `io_stats` window.
fn open(path: &Path, cfg: SemConfig) -> SemGraph {
    SemGraph::open_with(path, cfg).expect("open SEM graph")
}

#[test]
fn batched_drain_coalesces_device_reads_with_identical_results() {
    // Cache disabled + small blocks: every adjacency-serving block is a
    // device read, so `block_fetches` isolates exactly what the scheduler
    // saves. The semi-sorted service round hands each worker a run of
    // nearby vertex ids whose adjacency ranges sit in adjacent blocks.
    let g = RmatGenerator::new(RmatParams::RMAT_A, 12, 16, 41).directed();
    let path = scratch("iosched_coalesce.agt");
    write_sem_graph(&path, &g).unwrap();
    let expect = try_bfs(&g, 0, &Config::with_threads(4)).unwrap();

    let cfg = || SemConfig {
        block_size: 512,
        cache_blocks: 0,
        ..SemConfig::default()
    };

    let sem = open(&path, cfg());
    let unbatched = try_bfs(&sem, 0, &Config::with_threads(8).with_io_batch(1)).unwrap();
    assert_eq!(unbatched.dist, expect.dist);
    let io1 = sem.io_stats();
    assert_eq!(io1.blocks_coalesced, 0, "io_batch=1 must not schedule");
    assert_eq!(io1.reads_merged, 0);

    let sem = open(&path, cfg());
    let batched = try_bfs(&sem, 0, &Config::with_threads(8).with_io_batch(64)).unwrap();
    assert_eq!(batched.dist, expect.dist);
    let io64 = sem.io_stats();

    assert!(
        io64.block_fetches < io1.block_fetches,
        "batched drain must issue fewer device reads: {} vs {}",
        io64.block_fetches,
        io1.block_fetches
    );
    assert!(io64.blocks_coalesced > 0, "no blocks were coalesced");
    assert!(io64.reads_merged > 0, "no merged reads were issued");
    // `blocks_coalesced` counts reads *saved* (demand - 1 per run), so
    // every merged read saves at least one device read.
    assert!(io64.blocks_coalesced >= io64.reads_merged);
}

#[test]
fn scheduler_is_equivalent_across_knobs() {
    let gd = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 42).directed();
    let gw = weighted_copy(&gd, WeightKind::Uniform, 17);
    let gu = RmatGenerator::new(RmatParams::RMAT_B, 10, 8, 43).undirected();

    let pd = scratch("iosched_eq_bfs.agt");
    let pw = scratch("iosched_eq_sssp.agt");
    let pu = scratch("iosched_eq_cc.agt");
    write_sem_graph(&pd, &gd).unwrap();
    write_sem_graph(&pw, &gw).unwrap();
    write_sem_graph(&pu, &gu).unwrap();

    let ref_bfs = try_bfs(&gd, 0, &Config::with_threads(4)).unwrap();
    let ref_sssp = try_sssp(&gw, 0, &Config::with_threads(4)).unwrap();
    let ref_cc = try_connected_components(&gu, &Config::with_threads(4)).unwrap();

    for (readahead, prefetch_threads) in [(0usize, 0usize), (4, 2)] {
        let cfg = || SemConfig {
            block_size: 2048,
            cache_blocks: 64,
            readahead,
            prefetch_threads,
            ..SemConfig::default()
        };
        for threads in [1usize, 8, 32] {
            for io_batch in [1usize, 4, 64] {
                let tc = Config::with_threads(threads).with_io_batch(io_batch);
                let tag = format!(
                    "threads={threads} io_batch={io_batch} \
                     readahead={readahead} prefetch={prefetch_threads}"
                );
                let out = try_bfs(&open(&pd, cfg()), 0, &tc).unwrap();
                assert_eq!(out.dist, ref_bfs.dist, "BFS {tag}");
                let out = try_sssp(&open(&pw, cfg()), 0, &tc).unwrap();
                assert_eq!(out.dist, ref_sssp.dist, "SSSP {tag}");
                let out = try_connected_components(&open(&pu, cfg()), &tc).unwrap();
                assert_eq!(out.ccid, ref_cc.ccid, "CC {tag}");
            }
        }
    }
}

#[test]
fn scheduler_is_equivalent_under_transient_faults() {
    // Faults hit the *demand* path with full retry accounting while the
    // prefetch path drops failing blocks silently; both together must
    // still be invisible to the algorithms.
    let gd = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 44).directed();
    let gw = weighted_copy(&gd, WeightKind::Uniform, 19);
    let pd = scratch("iosched_fault_bfs.agt");
    let pw = scratch("iosched_fault_sssp.agt");
    write_sem_graph(&pd, &gd).unwrap();
    write_sem_graph(&pw, &gw).unwrap();
    let ref_bfs = try_bfs(&gd, 0, &Config::with_threads(4)).unwrap();
    let ref_sssp = try_sssp(&gw, 0, &Config::with_threads(4)).unwrap();

    let cfg = |seed| SemConfig {
        block_size: 4096,
        cache_blocks: 32,
        readahead: 2,
        prefetch_threads: 2,
        faults: Some(Arc::new(FaultyDevice::new(FaultPlan::transient(seed, 0.5)))),
        retry: RetryPolicy {
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(50),
            ..RetryPolicy::default()
        },
        ..SemConfig::default()
    };
    let tc = Config::with_threads(16).with_io_batch(16);

    for seed in [1u64, 2, 3] {
        let sem = open(&pd, cfg(seed));
        let out = try_bfs(&sem, 0, &tc)
            .unwrap_or_else(|e| panic!("seed {seed}: transient faults must be absorbed: {e}"));
        assert_eq!(out.dist, ref_bfs.dist, "seed={seed}");
        let io = sem.io_stats();
        assert_eq!(io.faults_fatal, 0, "seed={seed}");
        assert_eq!(io.retries, io.faults_absorbed, "seed={seed}");

        let sem = open(&pw, cfg(seed));
        let out = try_sssp(&sem, 0, &tc)
            .unwrap_or_else(|e| panic!("seed {seed}: transient faults must be absorbed: {e}"));
        assert_eq!(out.dist, ref_sssp.dist, "seed={seed}");
        assert_eq!(sem.io_stats().faults_fatal, 0, "seed={seed}");
    }
}

#[test]
fn cache_counters_only_count_adjacency_serving_lookups() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 11, 8, 45).directed();
    let path = scratch("iosched_stats.agt");
    write_sem_graph(&path, &g).unwrap();
    let expect = try_bfs(&g, 0, &Config::with_threads(4)).unwrap();

    // Cache enabled, no scheduler: every adjacency-serving lookup is a hit
    // or a miss, and every miss is exactly one device read.
    let sem = open(
        &path,
        SemConfig {
            block_size: 4096,
            cache_blocks: 256,
            ..SemConfig::default()
        },
    );
    let out = try_bfs(&sem, 0, &Config::with_threads(8).with_io_batch(1)).unwrap();
    assert_eq!(out.dist, expect.dist);
    let io = sem.io_stats();
    assert!(io.cache_hits + io.cache_misses > 0);
    assert_eq!(
        io.block_fetches, io.cache_misses,
        "without the scheduler every miss is one device read"
    );
    assert!(io.adjacency_reads > 0);

    // Cache disabled: hit/miss counters must never be fabricated, whether
    // the bytes came from demand fetches or from the scheduler's staging.
    for io_batch in [1usize, 16] {
        let sem = open(
            &path,
            SemConfig {
                block_size: 4096,
                cache_blocks: 0,
                ..SemConfig::default()
            },
        );
        let out = try_bfs(&sem, 0, &Config::with_threads(8).with_io_batch(io_batch)).unwrap();
        assert_eq!(out.dist, expect.dist, "io_batch={io_batch}");
        let io = sem.io_stats();
        assert_eq!(io.cache_hits, 0, "io_batch={io_batch}");
        assert_eq!(io.cache_misses, 0, "io_batch={io_batch}");
        assert!(io.block_fetches > 0, "io_batch={io_batch}");
        assert!(io.bytes_read > 0, "io_batch={io_batch}");
    }
}
