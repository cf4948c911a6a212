//! Query throughput: persistent engine vs spawn-per-query.
//!
//! Serves the same batch of BFS queries two ways — multiplexed onto one
//! persistent [`asyncgt::TraversalEngine`] (workers spawned once, queries
//! admitted `c` at a time) and via the one-shot API from `c` driver
//! threads (each query spawns and joins its own worker pool) — at
//! concurrency 1, 8, and 64, and writes a schema-versioned
//! `results/BENCH_engine.json`.
//!
//! Run: `cargo run -p asyncgt-bench --release --bin bench_engine -- [OUT.json]`

use asyncgt::graph::generators::{RmatGenerator, RmatParams};
use asyncgt::obs::json::Value;
use asyncgt::obs::NoopRecorder;
use asyncgt::{try_bfs, with_engine, Config, CsrGraph, EngineOpts, Graph};
use asyncgt_bench::{banner, median_iqr, table::Table};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Bump when the JSON layout changes shape (fields, units, meanings).
const SCHEMA_VERSION: u64 = 2;

const SCALE: u32 = 8;
const EDGE_FACTOR: u64 = 16;
const QUERIES: usize = 64;
const CONCURRENCY: [usize; 3] = [1, 8, 64];
/// Worker threads per engine / per one-shot query. Spawn-per-query mode
/// runs `concurrency * THREADS` OS threads at peak; the engine always
/// runs exactly `THREADS`.
const THREADS: usize = 4;
/// Runs per (mode, concurrency) cell; each cell reports the median and
/// interquartile range over them.
const RUNS: usize = 11;

fn source(i: usize, n: u64) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n
}

/// One batch on the persistent engine: submit all queries from one thread
/// (a submit blocks while `concurrency` queries run), wait in order.
fn run_engine(g: &CsrGraph, concurrency: usize) -> u64 {
    let opts = EngineOpts {
        cfg: Config::with_threads(THREADS),
        max_concurrent: concurrency,
    };
    let n = g.num_vertices();
    let (reached, _stats) = with_engine(g, &opts, &NoopRecorder, |eng| {
        let tickets: Vec<_> = (0..QUERIES)
            .map(|i| eng.submit_bfs(&[source(i, n)]).expect("submit"))
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().expect("query").reached_count())
            .sum::<u64>()
    });
    reached
}

/// One batch via the one-shot API: `concurrency` driver threads pull
/// query indices from a shared counter; every query spawns (and joins)
/// its own `THREADS`-worker pool.
fn run_spawn(g: &CsrGraph, concurrency: usize) -> u64 {
    let cfg = Config::with_threads(THREADS);
    let n = g.num_vertices();
    let next = AtomicUsize::new(0);
    let total = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                s.spawn(|| {
                    let mut reached = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= QUERIES {
                            return reached;
                        }
                        reached += try_bfs(g, source(i, n), &cfg).unwrap().reached_count();
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    total
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_engine.json".to_string());
    banner("bench_engine: persistent engine vs spawn-per-query (64 BFS queries)");

    let g = RmatGenerator::new(RmatParams::RMAT_A, SCALE, EDGE_FACTOR, 42).directed();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut t = Table::new(vec!["concurrency", "engine q/s", "spawn q/s", "speedup"]);
    let mut rows: Vec<Value> = Vec::new();
    let mut summary: Vec<(String, Value)> = Vec::new();
    for c in CONCURRENCY {
        // Each cell also returns its summed reached-count, so the two
        // modes can be cross-checked.
        let (reached_e, med_e, iqr_e) = median_iqr(RUNS, || run_engine(&g, c));
        let (reached_s, med_s, iqr_s) = median_iqr(RUNS, || run_spawn(&g, c));
        assert_eq!(
            reached_e, reached_s,
            "engine and spawn-per-query must reach identical vertex sets"
        );
        let qps = |d: Duration| QUERIES as f64 / d.as_secs_f64();
        let speedup = qps(med_e) / qps(med_s);
        for (mode, med, iqr) in [("engine", med_e, iqr_e), ("spawn", med_s, iqr_s)] {
            rows.push(Value::Obj(vec![
                ("mode".into(), Value::Str(mode.into())),
                ("concurrency".into(), Value::Int(c as u64)),
                ("queries".into(), Value::Int(QUERIES as u64)),
                ("median_elapsed_s".into(), Value::Float(med.as_secs_f64())),
                ("iqr_elapsed_s".into(), Value::Float(iqr.as_secs_f64())),
                ("queries_per_sec".into(), Value::Float(qps(med))),
                ("runs".into(), Value::Int(RUNS as u64)),
            ]));
        }
        summary.push((format!("reuse_speedup_at_{c}"), Value::Float(speedup)));
        let cell =
            |med, iqr: Duration| format!("{:.1} (IQR {:.2} ms)", qps(med), iqr.as_secs_f64() * 1e3);
        t.row(vec![
            c.to_string(),
            cell(med_e, iqr_e),
            cell(med_s, iqr_s),
            format!("{speedup:.2}x"),
        ]);
    }
    t.print();

    let doc = Value::Obj(vec![
        ("schema_version".into(), Value::Int(SCHEMA_VERSION)),
        ("bench".into(), Value::Str("bench_engine".into())),
        (
            "workload".into(),
            Value::Obj(vec![
                ("kind".into(), Value::Str("bfs_batch_rmat_a".into())),
                ("scale".into(), Value::Int(SCALE as u64)),
                ("edge_factor".into(), Value::Int(EDGE_FACTOR)),
                ("queries".into(), Value::Int(QUERIES as u64)),
                ("threads".into(), Value::Int(THREADS as u64)),
            ]),
        ),
        (
            "host".into(),
            Value::Obj(vec![
                ("cores".into(), Value::Int(cores as u64)),
                (
                    "note".into(),
                    Value::Str(
                        "engine mode runs a fixed worker pool whose queued \
                         visitors carry a 4-byte query id (24 B items) and whose \
                         workers resolve each query through a one-entry cache; \
                         one thread submits all queries and each submit blocks \
                         while concurrency queries run. Spawn mode runs each \
                         query one-shot (bare 16 B visitors) but pays thread \
                         spawn/join per query and runs concurrency x threads OS \
                         threads at peak. Both call a monomorphized handler. \
                         Each cell is the median of its runs; iqr_elapsed_s is \
                         the spread between its quartiles"
                            .into(),
                    ),
                ),
            ]),
        ),
        ("results".into(), Value::Arr(rows)),
        ("summary".into(), Value::Obj(summary)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, doc.to_pretty_string() + "\n").expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
