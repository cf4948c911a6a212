//! Table III — "Performance comparison of In-Memory Connected Components":
//! BGL (serial BFS-based CC) and MTGL (synchronous parallel, stood in by
//! label propagation) vs asynchronous CC, over undirected RMAT-A/RMAT-B
//! and the five web-crawl stand-ins; reports the `# CCs` column.
//!
//! Run: `cargo run -p asyncgt-bench --release --bin table3`
//! Env: `ASYNCGT_SCALES`, `ASYNCGT_THREADS`,
//!      `ASYNCGT_WEB_N` vertices per web-graph stand-in (default 65536).

use asyncgt::validate::check_components;
use asyncgt::{try_connected_components, Config};
use asyncgt_baselines::{level_sync, serial, union_find};
use asyncgt_bench::table::{ratio, secs, Table};
use asyncgt_bench::workloads::{rmat_families, rmat_undirected, web_graphs};
use asyncgt_bench::{banner, scales, thread_counts, time};
use asyncgt_graph::{CsrGraph, Graph};

fn run_one(table: &mut Table, name: &str, g: &CsrGraph<u32>, threads: &[usize]) {
    let (bgl, t_bgl) = time(|| serial::connected_components(g));
    let (uf, t_uf) = time(|| union_find::connected_components(g));
    assert_eq!(uf, bgl, "union-find CC mismatch");
    let (sync, t_sync) = time(|| level_sync::connected_components(g, 16));
    assert_eq!(sync, bgl, "label-prop CC mismatch");

    let mut async_times = Vec::new();
    let mut best = f64::INFINITY;
    let mut first = 0.0;
    let mut num_ccs = 0;
    for (i, &t) in threads.iter().enumerate() {
        let (out, dt) = time(|| try_connected_components(g, &Config::with_threads(t)).unwrap());
        check_components(g, &out.ccid).expect("async CC invalid");
        assert_eq!(out.ccid, bgl, "async CC mismatch at {t} threads");
        num_ccs = out.component_count();
        let s = dt.as_secs_f64();
        if i == 0 {
            first = s;
        }
        best = best.min(s);
        async_times.push(secs(dt));
    }

    let mut row = vec![
        name.to_string(),
        g.num_vertices().to_string(),
        g.num_edges().to_string(),
        num_ccs.to_string(),
        secs(t_bgl),
        secs(t_uf),
        secs(t_sync),
        ratio(t_bgl.as_secs_f64(), t_sync.as_secs_f64()),
    ];
    row.extend(async_times);
    row.push(ratio(first, best));
    row.push(ratio(t_bgl.as_secs_f64(), best));
    table.row(row);
}

fn main() {
    banner("Table III: In-Memory Connected Components");
    let threads = thread_counts();
    let web_n: u64 = std::env::var("ASYNCGT_WEB_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(65536);

    let mut header = vec![
        "graph".into(),
        "verts".into(),
        "edges".into(),
        "#CCs".into(),
        "BGL(s)".into(),
        "UF(s)".into(),
        "sync16(s)".into(),
        "sync/BGL".into(),
    ];
    for t in &threads {
        header.push(format!("async{t}(s)"));
    }
    header.push("scaling".into());
    header.push("speedupBGL".into());
    let mut table = Table::new(header);

    for (name, params) in rmat_families() {
        for scale in scales() {
            let g = rmat_undirected(params, scale);
            run_one(&mut table, &format!("{name}/2^{scale}"), &g, &threads);
        }
    }
    for (name, g) in web_graphs(web_n) {
        run_one(&mut table, name, &g, &threads);
    }

    table.print();
    println!();
    println!("paper shape (Table III): async CC ~2x MTGL on RMAT, 4-13x MTGL on web");
    println!("graphs, 4-29x BGL at 512 threads; #CCs is large for web crawls (isolated");
    println!("pages) and small for RMAT. '*' marks synthetic web-crawl stand-ins");
    println!("(DESIGN.md §3); 'UF' is our extra union-find serial baseline.");
}
