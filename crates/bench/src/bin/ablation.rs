//! Ablations for the design choices the paper calls out.
//!
//! Subcommands (run all when none given):
//!
//! * `chain`   — Fig. 2's worst case: a directed path serializes the
//!   asynchronous traversal; extra threads must not help (and must not
//!   break correctness).
//! * `oversub` — §IV-A thread oversubscription: sweep thread counts far
//!   past the core count on a fixed RMAT graph.
//! * `semisort` — the SEM secondary sort key (§IV-C): block-cache hit rate
//!   with a large vs tiny cache, quantifying how much the semi-sorted
//!   visit order is worth to the storage layer.
//! * `iobatch` — §IV-C I/O scheduling: device reads and coalesced runs as
//!   the service-round drain grows from 1 to 64 visitors.
//! * `relabel` — degree- and BFS-order relabelings against the original
//!   ids, with a tiny block cache.
//!
//! Run: `cargo run -p asyncgt-bench --release --bin ablation -- [cmd]`

use asyncgt::{try_bfs, Config};
use asyncgt_baselines::serial;
use asyncgt_bench::table::{ratio, secs, Table};
use asyncgt_bench::workloads::{as_sem, rmat_directed};
use asyncgt_bench::{banner, time};
use asyncgt_graph::generators::path_graph;
use asyncgt_graph::generators::RmatParams;
use asyncgt_storage::reader::SemConfig;

fn chain() {
    banner("Ablation: Fig. 2 worst-case chain (no path parallelism)");
    let n = std::env::var("ASYNCGT_CHAIN_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let g = path_graph(n);
    let (ser, t_ser) = time(|| serial::bfs(&g, 0));

    let mut t = Table::new(vec!["threads", "time(s)", "vs serial", "visitors"]);
    for threads in [1usize, 4, 16, 64] {
        let (out, dt) = time(|| try_bfs(&g, 0, &Config::with_threads(threads)).unwrap());
        assert_eq!(out.dist, ser.dist);
        t.row(vec![
            threads.to_string(),
            secs(dt),
            ratio(dt.as_secs_f64(), t_ser.as_secs_f64()),
            out.stats.visitors_executed.to_string(),
        ]);
    }
    t.print();
    println!(
        "serial BFS: {}s — on a chain the asynchronous traversal is serialized",
        secs(t_ser)
    );
    println!("(paper §III-B1: worst case bounded by Dijkstra's O(|E| log |V|)); threads");
    println!("only add queue-handoff overhead, exactly one visitor per vertex executes.\n");
}

fn oversub() {
    banner("Ablation: §IV-A thread oversubscription");
    let scale = std::env::var("ASYNCGT_OVERSUB_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let g = rmat_directed(RmatParams::RMAT_A, scale);
    let (ser, t_ser) = time(|| serial::bfs(&g, 0));

    let mut t = Table::new(vec![
        "threads",
        "BFS time(s)",
        "speedup BGL",
        "local push%",
        "mail/batch",
        "parks",
    ]);
    for threads in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        let (out, dt) = time(|| try_bfs(&g, 0, &Config::with_threads(threads)).unwrap());
        assert_eq!(out.dist, ser.dist);
        let s = &out.stats;
        let localpct = 100.0 * s.local_pushes as f64 / s.visitors_pushed as f64;
        let remote = s.visitors_pushed - s.local_pushes;
        t.row(vec![
            threads.to_string(),
            secs(dt),
            ratio(t_ser.as_secs_f64(), dt.as_secs_f64()),
            format!("{localpct:.0}%"),
            format!("{:.0}", remote as f64 / s.inbox_batches.max(1) as f64),
            s.parks.to_string(),
        ]);
    }
    t.print();
    println!("paper: on 16 cores every workload was fastest at 512 threads. On this");
    println!("host extra threads mainly demonstrate that oversubscription is *safe*;");
    println!("the win appears with real cores or latency-bound (SEM) workloads.\n");
}

fn semisort() {
    banner("Ablation: §IV-C semi-sorted SEM access locality (block-cache effectiveness)");
    let scale = 14;
    let g = rmat_directed(RmatParams::RMAT_A, scale);
    let mut t = Table::new(vec![
        "cache blocks",
        "hit rate",
        "blocks fetched",
        "time(s)",
    ]);
    for cache_blocks in [0usize, 8, 64, 512, 4096] {
        let sem = as_sem(
            &g,
            "ablation_semisort",
            SemConfig {
                block_size: 16 * 1024,
                cache_blocks,
                device: None,
                metrics: None,
                ..SemConfig::default()
            },
        );
        let (out, dt) = time(|| try_bfs(&sem, 0, &Config::with_threads(64)).unwrap());
        assert!(out.reached_count() > 0);
        let io = sem.io_stats();
        let total = io.cache_hits + io.cache_misses;
        let hit = if total > 0 {
            100.0 * io.cache_hits as f64 / total as f64
        } else {
            0.0
        };
        t.row(vec![
            cache_blocks.to_string(),
            format!("{hit:.1}%"),
            io.block_fetches.to_string(),
            secs(dt),
        ]);
    }
    t.print();
    println!("the priority queues' secondary vertex-id key semi-sorts visits, so even a");
    println!("small cache captures most re-reads; cache_blocks=0 shows the raw one-");
    println!("fetch-per-visit cost the paper's semi-sort exists to avoid.\n");
}

fn iobatch() {
    banner("Ablation: I/O scheduler batch drain (coalesced device reads)");
    let scale = 14;
    let g = rmat_directed(RmatParams::RMAT_A, scale);
    let mut t = Table::new(vec![
        "io batch",
        "device reads",
        "coalesced",
        "merged reads",
        "time(s)",
    ]);
    for io_batch in [1usize, 4, 16, 64] {
        // Cache disabled: every adjacency-serving block comes from the
        // device, so the device-read column isolates what coalescing
        // saves over the one-fetch-per-block baseline.
        let sem = as_sem(
            &g,
            "ablation_iobatch",
            SemConfig {
                block_size: 16 * 1024,
                cache_blocks: 0,
                device: None,
                metrics: None,
                ..SemConfig::default()
            },
        );
        let (out, dt) =
            time(|| try_bfs(&sem, 0, &Config::with_threads(64).with_io_batch(io_batch)).unwrap());
        assert!(out.reached_count() > 0);
        let io = sem.io_stats();
        t.row(vec![
            io_batch.to_string(),
            io.block_fetches.to_string(),
            io.blocks_coalesced.to_string(),
            io.reads_merged.to_string(),
            secs(dt),
        ]);
    }
    t.print();
    println!("larger service-round drains expose more of the semi-sorted batch to the");
    println!("I/O scheduler, which merges adjacent blocks into single larger reads;");
    println!("results are byte-identical at every setting.\n");
}

fn relabel() {
    banner("Ablation: vertex relabeling vs SEM block-cache locality");
    use asyncgt_graph::relabel::{by_bfs, by_degree, relabel as apply};
    let scale = 14;
    let g = rmat_directed(RmatParams::RMAT_A, scale);
    let variants: Vec<(&str, asyncgt_graph::CsrGraph<u32>)> = vec![
        ("original", g.clone()),
        ("degree-sorted", apply(&g, &by_degree(&g))),
        ("bfs-order", apply(&g, &by_bfs(&g, 0))),
    ];
    let mut t = Table::new(vec!["labeling", "hit rate", "blocks fetched", "time(s)"]);
    for (name, graph) in &variants {
        let sem = as_sem(
            graph,
            &format!("ablation_relabel_{name}"),
            SemConfig {
                block_size: 16 * 1024,
                cache_blocks: 16, // tiny cache: locality has to earn hits
                device: None,
                metrics: None,
                ..SemConfig::default()
            },
        );
        let (out, dt) = time(|| try_bfs(&sem, 0, &Config::with_threads(64)).unwrap());
        assert!(out.reached_count() > 0);
        let io = sem.io_stats();
        let total = io.cache_hits + io.cache_misses;
        t.row(vec![
            name.to_string(),
            format!("{:.1}%", 100.0 * io.cache_hits as f64 / total.max(1) as f64),
            io.block_fetches.to_string(),
            secs(dt),
        ]);
    }
    t.print();
    println!("with a deliberately tiny cache, the labeling decides how many distinct");
    println!("blocks the semi-sorted visit order touches: hub-first (degree) and BFS");
    println!("orders pack hot adjacency lists together (paper §VI-B cites the");
    println!("Mehlhorn-Meyer layout idea this approximates).\n");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_all = args.is_empty();
    let want = |name: &str| run_all || args.iter().any(|a| a == name);
    if want("chain") {
        chain();
    }
    if want("oversub") {
        oversub();
    }
    if want("semisort") {
        semisort();
    }
    if want("iobatch") {
        iobatch();
    }
    if want("relabel") {
        relabel();
    }
}
