//! Domain example: shortest routes on a synthetic road network.
//!
//! Builds a grid-with-highways road network (grid = city streets with
//! per-edge travel times; random long-range edges = highways), runs the
//! asynchronous SSSP from a depot, and prints routes to a few destinations
//! — the classic "weights may represent distances between locations" use
//! case from the paper's §III-B2.
//!
//! ```sh
//! cargo run -p asyncgt-examples --release --example road_network_sssp -- --rows 200 --cols 200
//! ```

use asyncgt::graph::{CsrGraph, Graph, GraphBuilder};
use asyncgt::{try_sssp, Config};
use asyncgt_baselines::serial;
use asyncgt_examples::arg;

/// Deterministic pseudo-random travel time in minutes (1–30).
fn travel_time(a: u64, b: u64) -> u32 {
    let mut x = a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.rotate_left(17);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    (x % 30 + 1) as u32
}

fn build_road_network(rows: u64, cols: u64, highways: u64) -> CsrGraph<u32> {
    let n = rows * cols;
    let id = |r: u64, c: u64| r * cols + c;
    let mut b = GraphBuilder::new(n);
    // City streets: 4-neighbor grid, symmetric, weighted by travel time.
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                let (u, v) = (id(r, c), id(r, c + 1));
                let w = travel_time(u, v);
                b = b.add_weighted_edge(u, v, w).add_weighted_edge(v, u, w);
            }
            if r + 1 < rows {
                let (u, v) = (id(r, c), id(r + 1, c));
                let w = travel_time(u, v);
                b = b.add_weighted_edge(u, v, w).add_weighted_edge(v, u, w);
            }
        }
    }
    // Highways: long-range shortcuts, cheaper per unit of distance.
    for h in 0..highways {
        let u = travel_time(h, 1) as u64 * travel_time(h, 2) as u64 % n;
        let v = travel_time(h, 3) as u64 * travel_time(h, 4) as u64 % n;
        if u != v {
            let w = 5;
            b = b.add_weighted_edge(u, v, w).add_weighted_edge(v, u, w);
        }
    }
    b.dedup().build()
}

fn main() {
    let rows: u64 = arg("--rows", 150);
    let cols: u64 = arg("--cols", 150);
    let threads: usize = arg("--threads", 16);

    println!("building {rows}x{cols} road network with highways …");
    let g = build_road_network(rows, cols, rows.max(cols));
    println!(
        "  {} intersections, {} road segments",
        g.num_vertices(),
        g.num_edges()
    );

    let depot = 0;
    let out = try_sssp(&g, depot, &Config::with_threads(threads))
        .expect("depot is vertex 0 of a non-empty in-memory graph");
    println!(
        "\nasync SSSP from depot (vertex {depot}), {threads} threads: {:?}",
        out.stats.elapsed
    );

    // Cross-check against serial Dijkstra.
    let reference = serial::dijkstra(&g, depot);
    assert_eq!(out.dist, reference.dist, "async SSSP must equal Dijkstra");
    println!("verified against serial Dijkstra ✓");

    println!("\nsample routes:");
    for dest in [
        cols - 1,                     // far corner of first street
        (rows - 1) * cols,            // bottom-left
        rows * cols - 1,              // opposite corner
        (rows / 2) * cols + cols / 2, // city center
    ] {
        match out.path_to(dest) {
            Some(path) => println!(
                "  depot -> {dest}: {} min via {} intersections",
                out.dist[dest as usize],
                path.len()
            ),
            None => println!("  depot -> {dest}: unreachable"),
        }
    }

    println!(
        "\nvisitors executed: {} ({:.2} per relaxed vertex — the label-correcting \
         revisit cost)",
        out.stats.visitors_executed,
        out.revisit_factor()
    );
}
