//! Traversal outputs, run statistics, and the one-shot driver that
//! produces them.

use crate::error::{check_input, settle, TraversalError};
use asyncgt_graph::{stats, Vertex, INF_DIST, NO_VERTEX};
use asyncgt_obs::Recorder;
use asyncgt_vq::{AbortedRun, AtomicStateArray, RunStats};

/// Runtime statistics for one asynchronous traversal: the runtime's own
/// [`RunStats`], whose `relaxations` count the visits that expanded and
/// whose `visitors_executed - relaxations` quantifies the label-correcting
/// redundancy (see [`TraversalOutput::revisit_factor`]).
pub use asyncgt_vq::RunStats as TraversalStats;

/// Result of an asynchronous BFS or SSSP (the paper's `dist_array` and
/// `parent_array` after `pri_q_visit.wait()` returns).
#[derive(Clone, Debug)]
pub struct TraversalOutput {
    /// Shortest path length from the source (`INF_DIST` if unreached).
    /// For BFS this is the level number.
    pub dist: Vec<u64>,
    /// Shortest-path predecessor (`NO_VERTEX` for source/unreached).
    pub parent: Vec<Vertex>,
    /// Run statistics.
    pub stats: TraversalStats,
}

impl TraversalOutput {
    /// Number of vertices reached from the source.
    pub fn reached_count(&self) -> u64 {
        self.dist.iter().filter(|&&d| d != INF_DIST).count() as u64
    }

    /// Fraction of vertices reached — Table I's `% vis` column.
    pub fn visited_fraction(&self) -> f64 {
        stats::visited_fraction(&self.dist)
    }

    /// Number of distinct levels/distances — Table I's `# levs` column
    /// (meaningful for BFS).
    pub fn level_count(&self) -> u64 {
        stats::level_count(&self.dist)
    }

    /// Mean visits per *relaxed* vertex: `visitors_executed / relaxations`
    /// is ≥ 1; the excess is the redundancy the asynchronous approach
    /// trades for synchronization freedom (paper §III-B).
    pub fn revisit_factor(&self) -> f64 {
        if self.stats.relaxations == 0 {
            return 0.0;
        }
        self.stats.visitors_executed as f64 / self.stats.relaxations as f64
    }

    /// Reconstruct the source→`v` path, or `None` if unreached.
    pub fn path_to(&self, v: Vertex) -> Option<Vec<Vertex>> {
        if self.dist[v as usize] == INF_DIST {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while self.parent[cur as usize] != NO_VERTEX {
            cur = self.parent[cur as usize];
            path.push(cur);
            if path.len() > self.dist.len() {
                // Defensive: a corrupt parent array would cycle forever.
                return None;
            }
        }
        path.reverse();
        Some(path)
    }
}

/// The driver behind every one-shot traversal: check the input, allocate
/// one label array per entry of `init` (filled with that value), run
/// `traverse` over them, and extract the labels and statistics. `traverse`
/// builds the algorithm's handler over the arrays, runs it through
/// `VisitorQueue::try_run_recorded`, and returns the outcome.
pub(crate) fn one_shot<const K: usize, R: Recorder>(
    num_vertices: u64,
    sources: &[Vertex],
    init: [u64; K],
    recorder: &R,
    traverse: impl FnOnce(&[AtomicStateArray; K]) -> Result<RunStats, AbortedRun>,
) -> Result<([Vec<u64>; K], TraversalStats), TraversalError> {
    check_input(num_vertices, sources)?;
    recorder.phase_start("init_state");
    let labels = init.map(|x| AtomicStateArray::new(num_vertices as usize, x));
    recorder.phase_end("init_state");

    recorder.phase_start("traversal");
    let outcome = traverse(&labels);
    recorder.phase_end("traversal");
    let stats = settle(outcome)?;

    recorder.phase_start("extract_state");
    let labels = labels.map(AtomicStateArray::into_vec);
    recorder.phase_end("extract_state");
    Ok((labels, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraversalOutput {
        TraversalOutput {
            dist: vec![0, 1, 1, 2, INF_DIST],
            parent: vec![NO_VERTEX, 0, 0, 1, NO_VERTEX],
            stats: TraversalStats {
                visitors_executed: 6,
                relaxations: 4,
                ..Default::default()
            },
        }
    }

    #[test]
    fn reached_and_levels() {
        let o = sample();
        assert_eq!(o.reached_count(), 4);
        assert_eq!(o.level_count(), 3);
        assert!((o.visited_fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn revisit_factor() {
        let o = sample();
        assert!((o.revisit_factor() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn path_reconstruction() {
        let o = sample();
        assert_eq!(o.path_to(3), Some(vec![0, 1, 3]));
        assert_eq!(o.path_to(0), Some(vec![0]));
        assert_eq!(o.path_to(4), None);
    }

    #[test]
    fn cyclic_parent_array_detected() {
        let mut o = sample();
        o.parent[1] = 3; // 1 -> 3 -> 1 cycle
        assert_eq!(o.path_to(3), None);
    }
}
