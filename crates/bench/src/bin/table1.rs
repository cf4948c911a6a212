//! Table I — "Performance comparison of In-Memory Breadth First Search".
//!
//! Paper columns: graph type, #verts, #edges, #levs, %vis, BGL time,
//! MTGL time/speedup/scaling, SNAP time/speedup/scaling, asynchronous BFS
//! at 1/16/512 threads with scaling and speedup-vs-BGL, and PBGL (cluster).
//!
//! Our stand-ins: BGL → serial queue BFS; MTGL/SNAP → level-synchronous
//! parallel BFS (16 threads); PBGL → omitted (distributed cluster out of
//! scope, printed as n/a). See DESIGN.md §3.
//!
//! Run: `cargo run -p asyncgt-bench --release --bin table1`
//! Env: `ASYNCGT_SCALES`, `ASYNCGT_THREADS`.

use asyncgt::validate::check_shortest_paths;
use asyncgt::{try_bfs, try_bfs_recorded, Config};
use asyncgt_baselines::{level_sync, serial};
use asyncgt_bench::table::{ratio, secs, Table};
use asyncgt_bench::workloads::{rmat_directed, rmat_families, EDGE_FACTOR};
use asyncgt_bench::{banner, metrics_json_path, scales, thread_counts, time};

fn main() {
    banner("Table I: In-Memory Breadth First Search");
    let threads = thread_counts();
    let source = 0u64;

    let mut header = vec![
        "graph".into(),
        "verts".into(),
        "edges".into(),
        "levs".into(),
        "%vis".into(),
        "BGL(s)".into(),
        "sync16(s)".into(),
        "sync/BGL".into(),
    ];
    for t in &threads {
        header.push(format!("async{t}(s)"));
    }
    header.push("scaling".into());
    header.push("speedupBGL".into());
    header.push("PBGL".into());
    let mut table = Table::new(header);

    for (name, params) in rmat_families() {
        for scale in scales() {
            let g = rmat_directed(params, scale);

            let (bgl, t_bgl) = time(|| serial::bfs(&g, source));
            let (sync, t_sync) = time(|| level_sync::bfs(&g, source, 16));
            assert_eq!(sync.dist, bgl.dist, "level-sync BFS mismatch");

            let mut async_times = Vec::new();
            let mut best = f64::INFINITY;
            let mut first = 0.0;
            for (i, &t) in threads.iter().enumerate() {
                let (out, dt) = time(|| try_bfs(&g, source, &Config::with_threads(t)).unwrap());
                check_shortest_paths(&g, source, &out, true).expect("async BFS invalid");
                assert_eq!(out.dist, bgl.dist, "async BFS mismatch at {t} threads");
                let s = dt.as_secs_f64();
                if i == 0 {
                    first = s;
                }
                best = best.min(s);
                async_times.push(secs(dt));
            }

            let (levs, vis) = {
                let out = try_bfs(&g, source, &Config::with_threads(threads[0])).unwrap();
                (out.level_count(), out.visited_fraction())
            };

            let mut row = vec![
                name.to_string(),
                format!("2^{scale}"),
                format!("2^{}", scale + EDGE_FACTOR.ilog2()),
                levs.to_string(),
                format!("{:.1}%", vis * 100.0),
                secs(t_bgl),
                secs(t_sync),
                ratio(t_bgl.as_secs_f64(), t_sync.as_secs_f64()),
            ];
            row.extend(async_times);
            row.push(ratio(first, best));
            row.push(ratio(t_bgl.as_secs_f64(), best));
            row.push("n/a".into());
            table.row(row);

            drop(g);
        }
    }

    table.print();
    println!();
    println!("paper shape (Table I): async BFS ≈ 1.1-1.2x MTGL, 1.5-3x SNAP, 4-12x BGL at");
    println!("512 threads on 16 cores; 512 threads beats 16 threads in every case.");
    println!(
        "note: this host has {} core(s) — parallel *scaling* is flat here; the",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!("async-vs-sync algorithmic comparison and validation still hold.");

    if let Some(out_path) = metrics_json_path() {
        let (name, params) = rmat_families()[0];
        let scale = scales()[0];
        let t = *threads.last().unwrap();
        let g = rmat_directed(params, scale);
        let rec = asyncgt::obs::ShardedRecorder::new(t);
        let _ = try_bfs_recorded(&g, source, &Config::with_threads(t), &rec).unwrap();
        std::fs::write(&out_path, rec.snapshot().to_json_string())
            .expect("write ASYNCGT_METRICS_JSON");
        println!();
        println!("metrics snapshot ({name}/2^{scale}, {t} threads) -> {out_path}");
    }
}
