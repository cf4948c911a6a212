//! Semi-external-memory walkthrough: serialize a graph to the on-disk CSR
//! format, reopen it with only the vertex index in RAM, and traverse it
//! through a simulated NAND-flash device — the paper's SEM pipeline
//! end to end.
//!
//! ```sh
//! cargo run -p asyncgt-examples --release --example sem_traversal -- --scale 14 --threads 128
//! ```

use asyncgt::graph::generators::{RmatGenerator, RmatParams};
use asyncgt::obs::{render_summary, ShardedRecorder};
use asyncgt::storage::reader::SemConfig;
use asyncgt::storage::{write_sem_graph, DeviceModel, SemGraph, SimulatedFlash};
use asyncgt::{try_bfs, try_bfs_recorded, Config};
use asyncgt_baselines::serial;
use asyncgt_examples::arg;
use std::sync::Arc;

fn main() {
    let scale: u32 = arg("--scale", 13);
    let threads: usize = arg("--threads", 128);

    println!("generating RMAT-B graph at scale {scale} …");
    let g = RmatGenerator::new(RmatParams::RMAT_B, scale, 16, 7).directed();

    let path = std::env::temp_dir().join("asyncgt_example_sem.agt");
    let header = write_sem_graph(&path, &g).expect("write SEM file");
    println!(
        "wrote {} ({} vertices, {} edges, {} B/record) -> {}",
        path.display(),
        header.num_vertices,
        header.num_edges,
        header.record_size(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
    );

    // In-memory serial baseline for comparison (the paper's Table IV frame).
    let (im, t_im) = {
        let t = std::time::Instant::now();
        let r = serial::bfs(&g, 0);
        (r, t.elapsed())
    };
    println!("\nin-memory serial BFS (BGL baseline): {t_im:?}");

    for (i, model) in DeviceModel::paper_configs().into_iter().enumerate() {
        // Instrument the first device end-to-end: the recorder doubles as
        // the storage layer's MetricSink, so one snapshot holds traversal
        // counters AND the SEM read-latency histogram.
        let recorder = (i == 0).then(|| Arc::new(ShardedRecorder::new(threads)));
        let device = Arc::new(SimulatedFlash::new(model));
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 64 * 1024,
                cache_blocks: 512,
                device: Some(device.clone()),
                metrics: recorder.clone().map(|r| r as _),
                ..SemConfig::default()
            },
        )
        .expect("open SEM graph");

        // io_batch > 1 engages the I/O scheduler: each worker drains a
        // semi-sorted batch of visitors per round and adjacent block reads
        // coalesce into single larger requests. Results are identical at
        // any setting (the assert below holds for every io_batch).
        let cfg = Config::with_threads(threads).with_io_batch(16);
        let out = match &recorder {
            Some(r) => try_bfs_recorded(&sem, 0, &cfg, r.as_ref()),
            None => try_bfs(&sem, 0, &cfg),
        }
        .expect("SEM BFS");
        assert_eq!(out.dist, im.dist, "SEM result must match in-memory");
        let io = sem.io_stats();
        println!(
            "\nSEM async BFS on {:<8} ({:>6.0} IOPS rated), {threads} threads: {:?}",
            model.name,
            model.peak_iops(),
            out.stats.elapsed
        );
        println!(
            "  adjacency fetches: {}, device reads: {}, cache hits: {} ({:.0}%)",
            io.adjacency_reads,
            device.total_reads(),
            io.cache_hits,
            100.0 * io.cache_hits as f64 / (io.cache_hits + io.cache_misses).max(1) as f64
        );
        if io.blocks_coalesced > 0 {
            println!(
                "  scheduler: {} blocks coalesced in {} merged reads",
                io.blocks_coalesced, io.reads_merged
            );
        }
        println!(
            "  speedup vs in-memory serial BGL: {:.2}x",
            t_im.as_secs_f64() / out.stats.elapsed.as_secs_f64()
        );

        if let Some(r) = &recorder {
            let mut snap = r.snapshot();
            snap.io = Some(io);
            println!("\n{}", render_summary(&snap));
        }
    }

    std::fs::remove_file(&path).ok();
    println!("\n(semi-sorted visit order + block cache are what keep the effective read");
    println!("rate above the raw device IOPS — paper §IV-C.)");
}
