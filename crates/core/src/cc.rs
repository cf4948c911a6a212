//! Asynchronous Connected Components — paper Algorithms 3 & 4.
//!
//! "Each vertex is labeled by the smallest vertex descriptor that is
//! connectable … Our approach to CC can be viewed as performing parallel
//! BFS starting from every vertex. When two BFSs that started from
//! different vertices merge, the BFS that started from the lowest vertex
//! identifier takes over the remainder of both traversals."

use crate::config::Config;
use crate::error::TraversalError;
use crate::result::{one_shot, TraversalStats};
use crate::sssp::{LabelHandler, SsspVisitor, NO_PARENT};
use asyncgt_graph::{stats, Graph, Vertex, INF_DIST};
use asyncgt_obs::{NoopRecorder, Recorder};
use asyncgt_vq::{
    AbortReason, AtomicStateArray, FallibleVisitHandler, PushCtx, Visitor, VisitorQueue,
};
use std::ops::Deref;

/// The paper's `UCCVertexVisitor`: a candidate component id for `vertex`.
///
/// Ids are stored as `u32` (an 8-byte visitor — CC floods one visitor per
/// edge per label improvement, so queue compactness matters most here);
/// traversals reject graphs with ≥ 2^32 − 1 vertices
/// ([`TraversalError::GraphTooLarge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CcVisitor {
    pub ccid: u32,
    pub vertex: u32,
}

impl CcVisitor {
    /// Algorithm 3's seeds: every vertex carries its own descriptor as
    /// the starting component id.
    pub(crate) fn seeds(n: u64) -> impl Iterator<Item = CcVisitor> {
        (0..n as u32).map(|v| CcVisitor { ccid: v, vertex: v })
    }
}

/// A CC candidate rides in the path visitor as `dist = ccid` with no
/// parent: the one relax step takes it so, and an engine query queues it
/// so. Both orders are (priority, vertex), so the encoding keeps CC's
/// queue order.
impl From<CcVisitor> for SsspVisitor {
    fn from(v: CcVisitor) -> Self {
        SsspVisitor {
            dist: v.ccid as u64,
            vertex: v.vertex,
            parent: NO_PARENT,
        }
    }
}

impl From<SsspVisitor> for CcVisitor {
    fn from(v: SsspVisitor) -> Self {
        CcVisitor {
            ccid: v.dist as u32,
            vertex: v.vertex,
        }
    }
}

impl Ord for CcVisitor {
    /// "Prioritized by UCCVertexVisitor's cur_ccid" (Algorithm 3 line 3),
    /// with the vertex id as the SEM semi-sort secondary key.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ccid, self.vertex).cmp(&(other.ccid, other.vertex))
    }
}

impl PartialOrd for CcVisitor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Visitor for CcVisitor {
    fn target(&self) -> u64 {
        self.vertex as u64
    }
    fn priority(&self) -> u64 {
        self.ccid as u64
    }
}

/// One-shot CC queues this 8-byte visitor, not the 16-byte path visitor,
/// and runs the one relax step through the `From` encodings above.
impl<G: Graph, A: Deref<Target = AtomicStateArray> + Sync> FallibleVisitHandler<CcVisitor>
    for LabelHandler<'_, G, A>
{
    fn try_visit(
        &self,
        v: CcVisitor,
        ctx: &mut PushCtx<'_, CcVisitor>,
    ) -> Result<bool, AbortReason> {
        self.relax(v.into(), |nv| ctx.push(nv.into()))
    }

    fn prepare_batch(&self, batch: &[CcVisitor]) {
        self.prefetch(batch.iter().map(|&v| v.into()));
    }
}

/// Result of an asynchronous connected-components run.
#[derive(Clone, Debug)]
pub struct CcOutput {
    /// Component label per vertex: the smallest vertex id reachable from
    /// it. Isolated vertices label themselves.
    pub ccid: Vec<Vertex>,
    /// Run statistics.
    pub stats: TraversalStats,
}

impl CcOutput {
    /// Number of connected components — Table III's `# CCs` column.
    pub fn component_count(&self) -> u64 {
        stats::component_count(&self.ccid)
    }

    /// Size of the largest ("giant") component.
    pub fn largest_component_size(&self) -> u64 {
        stats::largest_component_size(&self.ccid)
    }
}

/// Asynchronous connected components of an *undirected* graph (every edge
/// stored in both directions, as produced by
/// [`GraphBuilder::symmetrize`](asyncgt_graph::GraphBuilder::symmetrize)).
///
/// A storage failure that exhausts its retry budget (or any other handler
/// abort) returns `Err` with the classified [`TraversalError`] and partial
/// statistics; an oversized graph is rejected before the run.
///
/// ```
/// use asyncgt::{try_connected_components, Config};
/// use asyncgt::graph::GraphBuilder;
///
/// // Two components: {0, 1} and {2}.
/// let g: asyncgt::CsrGraph = GraphBuilder::new(3)
///     .add_edge(0, 1)
///     .symmetrize()
///     .build();
/// let out = try_connected_components(&g, &Config::with_threads(2))?;
/// assert_eq!(out.ccid, vec![0, 0, 2]);
/// assert_eq!(out.component_count(), 2);
/// # Ok::<(), asyncgt::TraversalError>(())
/// ```
pub fn try_connected_components<G: Graph>(g: &G, cfg: &Config) -> Result<CcOutput, TraversalError> {
    try_connected_components_recorded(g, cfg, &NoopRecorder)
}

/// [`try_connected_components`] with a metrics [`Recorder`] (e.g.
/// [`ShardedRecorder`](asyncgt_obs::ShardedRecorder)) collecting phase
/// spans, per-worker counters, and service-time histograms.
pub fn try_connected_components_recorded<G: Graph, R: Recorder>(
    g: &G,
    cfg: &Config,
    recorder: &R,
) -> Result<CcOutput, TraversalError> {
    let n = g.num_vertices();
    // Component-id priorities span the whole vertex-id space (every vertex
    // seeds itself), so lg(n) − 10 classes fit the queue's bucket ring.
    let vq = Config {
        priority_shift: crate::config::lg2(n).saturating_sub(10),
        ..cfg.clone()
    };
    // Algorithm 3 seeds one visitor per vertex; the handler starts each
    // label at the id its seed carries.
    let ([ccid], stats) = one_shot(n, &[], [INF_DIST], recorder, |[ccid]| {
        let h = LabelHandler::cc(g, ccid);
        VisitorQueue::try_run_recorded(&vq, &h, CcVisitor::seeds(n), recorder)
    })?;
    Ok(CcOutput { ccid, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncgt_baselines::{serial, union_find};
    use asyncgt_graph::generators::{cycle_graph, grid_graph, RmatGenerator, RmatParams};
    use asyncgt_graph::generators::{webgraph_like, WebGraphParams};
    use asyncgt_graph::{CsrGraph, GraphBuilder};

    #[test]
    fn empty_graph_components() {
        let g: CsrGraph<u32> = CsrGraph::empty(5);
        let out = try_connected_components(&g, &Config::with_threads(2)).unwrap();
        assert_eq!(out.ccid, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.component_count(), 5);
    }

    #[test]
    fn matches_serial_on_rmat() {
        for (params, seed) in [(RmatParams::RMAT_A, 3u64), (RmatParams::RMAT_B, 4)] {
            let g = RmatGenerator::new(params, 10, 4, seed).undirected();
            let expect = serial::connected_components(&g);
            for threads in [1, 8, 64] {
                let out = try_connected_components(&g, &Config::with_threads(threads)).unwrap();
                assert_eq!(out.ccid, expect, "threads={threads}");
            }
        }
    }

    #[test]
    fn matches_union_find_on_webgraph() {
        let g = webgraph_like(&WebGraphParams {
            num_vertices: 2048,
            avg_degree: 6,
            host_size: 64,
            intra_host_prob: 0.8,
            copy_prob: 0.5,
            isolated_frac: 0.05,
            seed: 12,
        });
        let out = try_connected_components(&g, &Config::with_threads(16)).unwrap();
        assert_eq!(out.ccid, union_find::connected_components(&g));
        assert!(out.component_count() > 1, "isolated pages exist");
    }

    #[test]
    fn single_component_labels_zero() {
        let out = try_connected_components(&cycle_graph(64), &Config::with_threads(4)).unwrap();
        assert!(out.ccid.iter().all(|&c| c == 0));
        assert_eq!(out.component_count(), 1);
        assert_eq!(out.largest_component_size(), 64);
    }

    #[test]
    fn grid_is_one_component() {
        let out = try_connected_components(&grid_graph(16, 16), &Config::with_threads(8)).unwrap();
        assert_eq!(out.component_count(), 1);
    }

    #[test]
    fn two_components_with_gap() {
        // {0,2,4} and {1,3}: labels are the minima 0 and 1.
        let mut b = GraphBuilder::new(5);
        for (s, t) in [(0, 2), (2, 4), (1, 3)] {
            b = b.add_edge(s, t);
        }
        let g: CsrGraph<u32> = b.symmetrize().build();
        let out = try_connected_components(&g, &Config::with_threads(4)).unwrap();
        assert_eq!(out.ccid, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn stats_account_initial_seeds() {
        let g = cycle_graph(32);
        let out = try_connected_components(&g, &Config::with_threads(2)).unwrap();
        // Every vertex seeds one visitor; all must execute.
        assert!(out.stats.visitors_executed >= 32);
        assert!(
            out.stats.relaxations >= 32,
            "every vertex relaxes at least once"
        );
    }
}
