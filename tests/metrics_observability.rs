//! Observability must be a pure read-side channel: instrumented runs
//! return byte-identical results, snapshots write the versioned JSON
//! schema that a generic JSON parser reads back, and the counters obey
//! the runtime's own conservation laws (every pushed visitor executes,
//! every histogram sample corresponds to one recorded event).

use asyncgt::graph::generators::{RmatGenerator, RmatParams};
use asyncgt::graph::weights::{weighted_copy, WeightKind};
use asyncgt::storage::reader::SemConfig;
use asyncgt::storage::{write_sem_graph, SemGraph};
use asyncgt::{
    try_bfs, try_bfs_recorded, try_connected_components, try_connected_components_recorded,
    try_sssp, try_sssp_recorded, Config,
};
use asyncgt_integration_tests::scratch;
use asyncgt_obs::json::{self, Value};
use asyncgt_obs::{HistKind, ShardedRecorder};
use std::sync::Arc;

const THREADS: usize = 8;

#[test]
fn recording_does_not_change_results() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 11, 8, 42).directed();
    let und = RmatGenerator::new(RmatParams::RMAT_A, 11, 8, 42).undirected();
    let wg = weighted_copy(&g, WeightKind::Uniform, 42);
    let cfg = Config::with_threads(THREADS);

    let rec = ShardedRecorder::new(THREADS);
    assert_eq!(
        try_bfs(&g, 0, &cfg).unwrap().dist,
        try_bfs_recorded(&g, 0, &cfg, &rec).unwrap().dist,
        "BFS distances must not depend on instrumentation"
    );

    let rec = ShardedRecorder::new(THREADS);
    assert_eq!(
        try_sssp(&wg, 0, &cfg).unwrap().dist,
        try_sssp_recorded(&wg, 0, &cfg, &rec).unwrap().dist,
        "SSSP distances must not depend on instrumentation"
    );

    let rec = ShardedRecorder::new(THREADS);
    assert_eq!(
        try_connected_components(&und, &cfg).unwrap().ccid,
        try_connected_components_recorded(&und, &cfg, &rec)
            .unwrap()
            .ccid,
        "CC labels must not depend on instrumentation"
    );
}

#[test]
fn counters_balance_and_match_run_stats() {
    let g = RmatGenerator::new(RmatParams::RMAT_B, 11, 8, 7).directed();
    let rec = ShardedRecorder::new(THREADS);
    let out = try_bfs_recorded(&g, 0, &Config::with_threads(THREADS), &rec).unwrap();
    let snap = rec.snapshot();

    // Termination detection guarantees the queue drained completely.
    let pushed = snap.counter("visitors_pushed");
    let executed = snap.counter("visitors_executed");
    assert_eq!(pushed, executed, "queue must drain at termination");
    assert_eq!(executed, out.stats.visitors_executed);
    assert_eq!(pushed, out.stats.visitors_pushed);
    assert_eq!(snap.counter("parks"), out.stats.parks);
    assert_eq!(snap.counter("inbox_batches"), out.stats.inbox_batches);
    assert_eq!(snap.counter("local_pushes"), out.stats.local_pushes);
    assert_eq!(
        snap.counter("local_pushes") + snap.counter("remote_pushes"),
        pushed - 1,
        "every push except the driver-side seed is local or remote"
    );
    assert_eq!(snap.counter("relaxations"), out.stats.relaxations);
    assert_eq!(
        snap.counter("relaxations") + snap.counter("revisits"),
        executed,
        "every execution either relaxes its vertex or is a revisit"
    );

    // One histogram sample per recorded event.
    let service = snap.histograms.get(HistKind::ServiceTimeNs);
    assert_eq!(service.count, executed);
    let batches = snap.histograms.get(HistKind::InboxBatchSize);
    assert_eq!(batches.count, snap.counter("inbox_batches"));
    assert_eq!(
        batches.sum,
        pushed - snap.counter("local_pushes"),
        "every non-local push (seeds + remote) is delivered in exactly one inbox batch"
    );

    // Executions happen only on registered workers, so the per-worker
    // rows (which exclude the overflow shard) must account for all of
    // them; the driver's seed push lands in the overflow shard.
    let per_worker_exec: u64 = snap
        .per_worker
        .iter()
        .map(|w| w.counter("visitors_executed"))
        .sum();
    assert_eq!(per_worker_exec, executed);
    assert_eq!(snap.per_worker.len(), THREADS);

    // Phase spans cover the whole traversal pipeline.
    let names: Vec<&str> = snap.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["init_state", "traversal", "extract_state"]);
    let exits = snap
        .timeline
        .iter()
        .filter(|e| e.label == "worker_exit")
        .count();
    assert_eq!(exits, THREADS, "every worker posts its exit time");
}

#[test]
fn snapshot_round_trips_through_json() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 3).directed();
    let rec = ShardedRecorder::new(4);
    let _ = try_bfs_recorded(&g, 0, &Config::with_threads(4), &rec).unwrap();
    let snap = rec.snapshot();

    let text = snap.to_json_string();
    let doc = json::parse(&text).expect("parse own JSON");
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_u64),
        Some(asyncgt_obs::SCHEMA_VERSION)
    );
    let counters: Vec<(String, u64)> = doc
        .get("counters")
        .and_then(Value::as_obj)
        .expect("counters object")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("integer counter")))
        .collect();
    assert_eq!(counters, snap.counters);
    let per_worker = doc.get("per_worker").and_then(Value::as_arr).unwrap();
    assert_eq!(per_worker.len(), snap.per_worker.len());
    for (row, w) in per_worker.iter().zip(&snap.per_worker) {
        let executed = row
            .get("counters")
            .and_then(|c| c.get("visitors_executed"))
            .and_then(Value::as_u64);
        assert_eq!(executed, Some(w.counter("visitors_executed")));
    }
    let phases: Vec<&str> = doc
        .get("phases")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|p| p.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(phases, ["init_state", "traversal", "extract_state"]);
    let service = doc
        .get("histograms")
        .and_then(|h| h.get(HistKind::ServiceTimeNs.name()))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64);
    assert_eq!(
        service,
        Some(snap.histograms.get(HistKind::ServiceTimeNs).count)
    );
    assert!(
        doc.get("io").is_none(),
        "an in-memory run has no io section"
    );
    // Serialization is stable: re-rendering the parsed text is
    // byte-identical.
    assert_eq!(doc.to_pretty_string(), text);
}

#[test]
fn sem_run_captures_io_metrics() {
    let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 5).directed();
    let path = scratch("metrics_sem.agt");
    write_sem_graph(&path, &g).unwrap();

    let rec = Arc::new(ShardedRecorder::new(THREADS));
    let sem = SemGraph::open_with(
        &path,
        SemConfig {
            block_size: 4096,
            cache_blocks: 64,
            device: None,
            metrics: Some(rec.clone() as _),
            ..SemConfig::default()
        },
    )
    .unwrap();

    let out = try_bfs_recorded(&sem, 0, &Config::with_threads(THREADS), rec.as_ref()).unwrap();
    assert!(out.reached_count() > 0);

    let io = sem.io_stats();
    let mut snap = rec.snapshot();
    snap.io = Some(io);

    assert!(io.cache_hits > 0 && io.bytes_read > 0);
    // Without the I/O scheduler in play (io_batch = 1) every cache miss is
    // exactly one device read.
    assert_eq!(io.block_fetches, io.cache_misses);
    let lat = snap.histograms.get(HistKind::ReadLatencyNs);
    assert_eq!(
        lat.count, io.block_fetches,
        "one latency sample per device read"
    );
    assert!(lat.sum > 0);

    // The io section is storage's own IoStats, written whole.
    let doc = json::parse(&snap.to_json_string()).unwrap();
    let written = |f: &str| doc.get("io").and_then(|s| s.get(f)).and_then(Value::as_u64);
    assert_eq!(written("block_fetches"), Some(io.block_fetches));
    assert_eq!(written("bytes_read"), Some(io.bytes_read));
    assert_eq!(written("cache_hits"), Some(io.cache_hits));
}
