//! Web-graph component analysis: generate a web-crawl-like graph (the
//! paper's Table III workload class), compute connected components
//! asynchronously, and print the component-size distribution — the
//! "how many islands does the crawl have?" question analysts ask of
//! real WWW graphs.
//!
//! ```sh
//! cargo run -p asyncgt-examples --release --example web_components -- --pages 200000
//! ```

use asyncgt::graph::generators::{webgraph_like, WebGraphParams};
use asyncgt::graph::{stats, Graph};
use asyncgt::{try_connected_components, Config};
use asyncgt_examples::{arg, bar};
use std::collections::HashMap;

fn main() {
    let pages: u64 = arg("--pages", 100_000);
    let threads: usize = arg("--threads", 32);

    println!("generating sk-2005-like web graph with {pages} pages …");
    let g = webgraph_like(&WebGraphParams::sk2005_like(pages, 2005));
    println!(
        "  {} pages, {} undirected link arcs",
        g.num_vertices(),
        g.num_edges()
    );

    let deg = stats::degree_stats(&g);
    println!(
        "  degree: mean {:.1}, max {} (hub), {} isolated pages",
        deg.mean, deg.max, deg.zeros
    );

    let out = try_connected_components(&g, &Config::with_threads(threads))
        .expect("in-memory CC cannot fail");
    println!(
        "\nasync CC ({threads} threads): {} components in {:?}",
        out.component_count(),
        out.stats.elapsed
    );

    // Component-size histogram (bucketed by powers of ten).
    let mut sizes: HashMap<u64, u64> = HashMap::new();
    for &c in &out.ccid {
        *sizes.entry(c).or_insert(0) += 1;
    }
    let mut buckets: HashMap<u32, u64> = HashMap::new();
    for &size in sizes.values() {
        *buckets.entry(size.ilog10()).or_insert(0) += 1;
    }
    let mut keys: Vec<u32> = buckets.keys().copied().collect();
    keys.sort_unstable();
    println!("\ncomponent-size distribution:");
    let max_count = *buckets.values().max().unwrap() as f64;
    for k in keys {
        let count = buckets[&k];
        println!(
            "  10^{k}..10^{}: {:>8} components  {}",
            k + 1,
            count,
            bar(count as f64, max_count, 40)
        );
    }
    println!(
        "\ngiant component: {} pages ({:.1}% of the crawl)",
        out.largest_component_size(),
        100.0 * out.largest_component_size() as f64 / pages as f64
    );
}
