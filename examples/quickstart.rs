//! Quickstart: generate a scale-free graph, run all three asynchronous
//! traversals, and print summary statistics.
//!
//! ```sh
//! cargo run -p asyncgt-examples --release --example quickstart -- --scale 16 --threads 64
//! ```

use asyncgt::graph::generators::{RmatGenerator, RmatParams};
use asyncgt::graph::Graph;
use asyncgt::{try_bfs, try_connected_components, try_sssp, Config, TraversalError};
use asyncgt_examples::arg;

fn main() -> Result<(), TraversalError> {
    let scale: u32 = arg("--scale", 14);
    let threads: usize = arg("--threads", 32);

    println!("generating RMAT-A graph: 2^{scale} vertices, average out-degree 16 …");
    let gen = RmatGenerator::new(RmatParams::RMAT_A, scale, 16, 42);
    let g = gen.directed();
    println!(
        "  {} vertices, {} directed edges",
        g.num_vertices(),
        g.num_edges()
    );

    let cfg = Config::with_threads(threads);

    // --- BFS ---------------------------------------------------------
    let out = try_bfs(&g, 0, &cfg)?;
    println!("\nasynchronous BFS from vertex 0 ({threads} threads):");
    println!(
        "  reached      : {} ({:.1}%)",
        out.reached_count(),
        out.visited_fraction() * 100.0
    );
    println!("  levels       : {}", out.level_count());
    println!(
        "  visitors     : {} executed / {} vertices relaxed",
        out.stats.visitors_executed, out.stats.relaxations
    );
    println!("  elapsed      : {:?}", out.stats.elapsed);

    // --- SSSP --------------------------------------------------------
    use asyncgt::graph::weights::{weighted_copy, WeightKind};
    let wg = weighted_copy(&g, WeightKind::Uniform, 7);
    let out = try_sssp(&wg, 0, &cfg)?;
    println!("\nasynchronous SSSP (uniform weights):");
    println!("  reached      : {}", out.reached_count());
    println!(
        "  revisit cost : {:.2} visits per relaxation",
        out.revisit_factor()
    );
    println!("  elapsed      : {:?}", out.stats.elapsed);
    if let Some(path) = out.path_to(g.num_vertices() - 1) {
        println!(
            "  sample path to last vertex: {} hops, length {}",
            path.len() - 1,
            out.dist[path.last().copied().unwrap() as usize]
        );
    }

    // --- CC ----------------------------------------------------------
    let und = gen.undirected();
    let out = try_connected_components(&und, &cfg)?;
    println!("\nasynchronous connected components (undirected copy):");
    println!("  components   : {}", out.component_count());
    println!("  largest      : {} vertices", out.largest_component_size());
    println!("  elapsed      : {:?}", out.stats.elapsed);
    Ok(())
}
