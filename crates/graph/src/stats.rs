//! Graph and traversal-output statistics used by the experiment tables.
//!
//! Table I reports `# levs` (BFS level count) and `% vis` (fraction of
//! vertices reached); Table III reports `# CCs`. These helpers compute those
//! columns from traversal outputs and provide a degree summary used to
//! sanity-check generator skew.

use crate::traits::Graph;
use crate::{Vertex, INF_DIST};

/// Summary of a degree distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Smallest out-degree.
    pub min: u64,
    /// Largest out-degree (the "hub" size in power-law graphs).
    pub max: u64,
    /// Mean out-degree.
    pub mean: f64,
    /// Number of zero-out-degree vertices.
    pub zeros: u64,
}

/// Compute out-degree statistics in one pass.
pub fn degree_stats<G: Graph>(g: &G) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            zeros: 0,
        };
    }
    let mut min = u64::MAX;
    let mut max = 0;
    let mut zeros = 0;
    let mut total = 0u64;
    for v in 0..n {
        let d = g.out_degree(v);
        min = min.min(d);
        max = max.max(d);
        total += d;
        if d == 0 {
            zeros += 1;
        }
    }
    DegreeStats {
        min,
        max,
        mean: total as f64 / n as f64,
        zeros,
    }
}

/// Number of distinct BFS levels in a distance array (unreached excluded).
/// For a BFS from a single source this is the paper's `# levs` column.
pub fn level_count(dist: &[u64]) -> u64 {
    let mut levels: Vec<u64> = dist.iter().copied().filter(|&d| d != INF_DIST).collect();
    levels.sort_unstable();
    levels.dedup();
    levels.len() as u64
}

/// Fraction of vertices reached (`% vis` in Table I), in `[0, 1]`.
pub fn visited_fraction(dist: &[u64]) -> f64 {
    if dist.is_empty() {
        return 0.0;
    }
    let vis = dist.iter().filter(|&&d| d != INF_DIST).count();
    vis as f64 / dist.len() as f64
}

/// Number of distinct component labels (`# CCs` in Table III).
pub fn component_count(ccid: &[Vertex]) -> u64 {
    let mut ids: Vec<Vertex> = ccid.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.len() as u64
}

/// Size of the largest component, given a component-label array.
pub fn largest_component_size(ccid: &[Vertex]) -> u64 {
    use std::collections::HashMap;
    let mut counts: HashMap<Vertex, u64> = HashMap::new();
    for &c in ccid {
        *counts.entry(c).or_insert(0) += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{path_graph, star_graph, RmatGenerator, RmatParams};
    use crate::INF_DIST;

    #[test]
    fn degree_stats_star() {
        let g = star_graph(10);
        let s = degree_stats(&g);
        assert_eq!(s.max, 9);
        assert_eq!(s.min, 1);
        assert_eq!(s.zeros, 0);
        assert!((s.mean - 1.8).abs() < 1e-9);
    }

    #[test]
    fn degree_stats_path_has_zero_sink() {
        let s = degree_stats(&path_graph(4));
        assert_eq!(s.zeros, 1);
        assert_eq!(s.max, 1);
    }

    #[test]
    fn level_and_visited() {
        let dist = vec![0, 1, 1, 2, INF_DIST];
        assert_eq!(level_count(&dist), 3);
        assert!((visited_fraction(&dist) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn component_counting() {
        let ccid = vec![0, 0, 2, 2, 4];
        assert_eq!(component_count(&ccid), 3);
        assert_eq!(largest_component_size(&ccid), 2);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = RmatGenerator::new(RmatParams::RMAT_B, 10, 16, 5).directed();
        let s = degree_stats(&g);
        // Heavy-skew RMAT: hub far above the mean of ~16.
        assert!(s.max as f64 > s.mean * 8.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(level_count(&[]), 0);
        assert_eq!(visited_fraction(&[]), 0.0);
        assert_eq!(component_count(&[]), 0);
        assert_eq!(largest_component_size(&[]), 0);
    }
}
