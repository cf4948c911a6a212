//! Table V — "Performance comparison of Semi-External Memory Connected
//! Components on three FLASH memory configurations": undirected RMAT-A/B
//! plus the sk-2005 and uk-union stand-ins, uncached-device regime (the
//! paper's graphs are far larger than RAM), with the same columns as
//! `table4`: serial-SEM vs async-SEM per device (latency hiding) and the
//! in-memory serial BGL reference.
//!
//! Run: `cargo run -p asyncgt-bench --release --bin table5`
//! Env: `ASYNCGT_SEM_SCALES`, `ASYNCGT_SEM_THREADS` (default 256),
//!      `ASYNCGT_BLOCK_KB` (default 8), `ASYNCGT_CACHE_BLOCKS` (default 0),
//!      `ASYNCGT_WEB_N` (default 16384).

use asyncgt::validate::check_components;
use asyncgt::{try_connected_components, Config};
use asyncgt_baselines::serial;
use asyncgt_bench::table::{ratio, secs, Table};
use asyncgt_bench::workloads::{as_sem, rmat_families, rmat_undirected, web_graphs};
use asyncgt_bench::{banner, sem_scales, time};
use asyncgt_graph::{CsrGraph, Graph};
use asyncgt_storage::reader::SemConfig;
use asyncgt_storage::{DeviceModel, SimulatedFlash};
use std::sync::Arc;

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    table: &mut Table,
    name: &str,
    g: &CsrGraph<u32>,
    sem_threads: usize,
    block_kb: usize,
    cache_blocks: usize,
) {
    let (bgl, t_bgl) = time(|| serial::connected_components(g));

    let mut row = vec![
        name.to_string(),
        g.num_vertices().to_string(),
        g.num_edges().to_string(),
        String::new(),
        secs(t_bgl),
    ];

    let file_tag = format!("t5_{}", name.replace(['/', '*'], "_"));
    let mut em_size = 0u64;
    for model in DeviceModel::paper_configs() {
        let sem_cfg = |dev: Arc<SimulatedFlash>| SemConfig {
            block_size: block_kb * 1024,
            cache_blocks,
            device: Some(dev),
            metrics: None,
            ..SemConfig::default()
        };

        let dev = Arc::new(SimulatedFlash::new(model));
        let sem = as_sem(g, &file_tag, sem_cfg(dev));
        em_size = sem.edge_region_bytes();
        let (ser_cc, t_serial) = time(|| serial::connected_components(&sem));
        assert_eq!(ser_cc, bgl);

        let dev = Arc::new(SimulatedFlash::new(model));
        let sem = as_sem(g, &file_tag, sem_cfg(dev));
        let (out, t_async) =
            time(|| try_connected_components(&sem, &Config::with_threads(sem_threads)).unwrap());
        check_components(&sem, &out.ccid).expect("SEM CC invalid");
        assert_eq!(out.ccid, bgl, "SEM CC mismatch on {}", model.name);

        row.push(secs(t_serial));
        row.push(secs(t_async));
        row.push(ratio(t_serial.as_secs_f64(), t_async.as_secs_f64()));
        row.push(ratio(t_bgl.as_secs_f64(), t_async.as_secs_f64()));
    }
    row[3] = format!("{:.1} MB", em_size as f64 / 1e6);
    table.row(row);
}

fn main() {
    banner("Table V: Semi-External Memory Connected Components");
    let sem_threads = env_usize("ASYNCGT_SEM_THREADS", 256);
    let block_kb = env_usize("ASYNCGT_BLOCK_KB", 8);
    let cache_blocks = env_usize("ASYNCGT_CACHE_BLOCKS", 0);
    let web_n = env_usize("ASYNCGT_WEB_N", 16384) as u64;

    let mut header = vec![
        "graph".into(),
        "verts".into(),
        "edges".into(),
        "EM size".into(),
        "IM BGL(s)".into(),
    ];
    for m in DeviceModel::paper_configs() {
        header.push(format!("{} serial(s)", m.name));
        header.push(format!("{} async(s)", m.name));
        header.push("overlap".into());
        header.push("vs BGL".into());
    }
    let mut table = Table::new(header);

    for (name, params) in rmat_families() {
        for scale in sem_scales() {
            let g = rmat_undirected(params, scale);
            run_one(
                &mut table,
                &format!("{name}/2^{scale}"),
                &g,
                sem_threads,
                block_kb,
                cache_blocks,
            );
        }
    }
    // Table V's real graphs are sk-2005 and uk-union.
    for (name, g) in web_graphs(web_n)
        .into_iter()
        .filter(|(n, _)| n.starts_with("sk-2005") || n.starts_with("uk-union"))
    {
        run_one(&mut table, name, &g, sem_threads, block_kb, cache_blocks);
    }

    table.print();
    println!();
    println!("paper shape (Table V, 256 threads): device ordering FusionIO > Intel >");
    println!("Corsair; FusionIO 1.3-3.9x over in-memory serial BGL. 'overlap' isolates");
    println!("the latency hiding (bounded by device channels); 'vs BGL' additionally");
    println!("pays this host's serialized visitor compute. '*' marks synthetic web-");
    println!("crawl stand-ins (DESIGN.md §3).");
}
