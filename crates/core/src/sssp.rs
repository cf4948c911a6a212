//! Asynchronous Single-Source Shortest Paths — paper Algorithms 1 & 2.
//!
//! "Like Bellman-Ford, our approach relies on label-correcting to compute
//! the traversal … Like Dijkstra's SSSP, our approach traverses paths in a
//! prioritized manner, visiting the shortest path possible at each visit.
//! Our approach does not introduce synchronizations between steps;
//! therefore, we cannot guarantee that the absolute shortest-path vertex is
//! visited at each step, possibly requiring multiple visits per vertex."
//!
//! BFS, CC and k-hop BFS are this algorithm with another edge cost (1, or
//! 0 for CC) and other seeds, so the relax step here serves all of them.

use crate::config::Config;
use crate::error::TraversalError;
use crate::result::{one_shot, TraversalOutput};
use asyncgt_graph::{Graph, NeighborError, Vertex, Weight, INF_DIST, NO_VERTEX};
use asyncgt_obs::{NoopRecorder, Recorder};
use asyncgt_vq::{
    AbortReason, AtomicStateArray, FallibleVisitHandler, PushCtx, Visitor, VisitorQueue,
};
use std::ops::Deref;

/// The paper's `SSSPVertexVisitor`: a candidate path of length `dist`
/// reaching `vertex` via `parent`.
///
/// Vertex ids are stored as `u32` (16-byte visitor, halving queue memory
/// traffic); traversals reject graphs with ≥ 2^32 − 1 vertices
/// ([`TraversalError::GraphTooLarge`]) — above every scale the paper
/// evaluates (max 2^30). `u32::MAX` encodes "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SsspVisitor {
    pub dist: u64,
    pub vertex: u32,
    pub parent: u32,
}

/// In-visitor encoding of [`NO_VERTEX`].
pub(crate) const NO_PARENT: u32 = u32::MAX;

impl SsspVisitor {
    /// Algorithm 1 line 6: a path of length 0 with no parent.
    pub(crate) fn source(v: Vertex) -> Self {
        SsspVisitor {
            dist: 0,
            vertex: v as u32,
            parent: NO_PARENT,
        }
    }
}

impl Ord for SsspVisitor {
    /// Primary key: path length ("prioritized based on the visitors' path
    /// length"). Secondary key: vertex id — the semi-sort that "increases
    /// access locality to the storage devices" for SEM graphs and is
    /// harmless in memory.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.dist, self.vertex).cmp(&(other.dist, other.vertex))
    }
}

impl PartialOrd for SsspVisitor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Visitor for SsspVisitor {
    fn target(&self) -> u64 {
        self.vertex as u64
    }
    fn priority(&self) -> u64 {
        self.dist
    }
}

/// What crossing an edge adds to the label a visitor carries: the one
/// rule in which the three traversals differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cost {
    /// BFS: every edge costs 1 (paper §III-B: "we compute a Breadth First
    /// Search by applying our asynchronous SSSP algorithm with all edge
    /// weights equal to 1").
    Hop,
    /// SSSP: an edge costs its weight.
    Weight,
    /// CC: a component id crosses an edge unchanged (paper Algorithm 4).
    Zero,
}

/// State of one BFS, SSSP or CC run: the label array (`dist`, or the
/// component ids for CC), the optional `parent` array, and the edge-cost
/// rule. The arrays are borrowed (`&AtomicStateArray`) by a one-shot run
/// and leased from the engine's pool (`OwnedStateLease`) by an engine
/// query; the same relax step serves every traversal in both.
pub(crate) struct LabelHandler<'g, G, A> {
    g: &'g G,
    pub(crate) dist: A,
    /// Shortest-path predecessors; `None` for CC, which keeps no tree.
    pub(crate) parent: Option<A>,
    cost: Cost,
    /// Label at which a visitor stops expanding: `INF_DIST` for a full
    /// traversal, the depth bound for a k-hop BFS ([`crate::bfs_bounded`]).
    horizon: u64,
}

impl<'g, G: Graph, A: Deref<Target = AtomicStateArray>> LabelHandler<'g, G, A> {
    /// A BFS ([`Cost::Hop`]) or SSSP ([`Cost::Weight`]) run over `dist`
    /// and `parent`, which start at `INF_DIST` and `NO_VERTEX`. A visitor
    /// that reaches label `horizon` is relaxed (and writes `parent`) but
    /// pushes nothing.
    pub(crate) fn path(g: &'g G, dist: A, parent: A, cost: Cost, horizon: u64) -> Self {
        LabelHandler {
            g,
            dist,
            parent: Some(parent),
            cost,
            horizon,
        }
    }

    /// A CC run over `ccid`, which it sets to the identity (`ccid[v] =
    /// v`): every vertex starts labeled by the id its seed carries, so a
    /// seed expands only if no neighbor claimed a lower id first.
    pub(crate) fn cc(g: &'g G, ccid: A) -> Self {
        for v in 0..ccid.len() as u64 {
            ccid.set(v, v);
        }
        LabelHandler {
            g,
            dist: ccid,
            parent: None,
            cost: Cost::Zero,
            horizon: INF_DIST,
        }
    }

    /// Claim every source's label at 0, as a push claims its target's, and
    /// return one seed per claim: a source listed twice seeds once. Call
    /// before the run starts.
    pub(crate) fn claim_sources(&self, sources: &[Vertex]) -> Vec<SsspVisitor> {
        sources
            .iter()
            .filter(|&&s| self.dist.fetch_min(s, 0))
            .map(|&s| SsspVisitor::source(s))
            .collect()
    }

    /// The relax step of every traversal (paper Algorithm 2 lines 8-10,
    /// Algorithm 4), split between pusher and owner (DESIGN.md §10): the
    /// visitor's candidate was installed in `dist` by its pusher, so the
    /// owner expands it only if it is still the label, then claims each
    /// out-neighbor's label with a strict `fetch_min` and pushes a visitor
    /// for every claim that lowered it.
    ///
    /// Each label value is installed by exactly one strict lowering, so
    /// each improvement expands exactly once. `parent` is written only
    /// here, by the vertex's owner (hash routing), from the visitor that
    /// carries the current label. Returns whether the visitor expanded
    /// (the runtime counts those as relaxations); a storage error from the
    /// fallible adjacency read (retry budget exhausted, corruption) aborts
    /// the run cleanly instead of unwinding a panic through the workers.
    pub(crate) fn relax(
        &self,
        v: SsspVisitor,
        push: impl FnMut(SsspVisitor),
    ) -> Result<bool, AbortReason> {
        let vertex = v.vertex as u64;
        let label = self.dist.get(vertex);
        // The claim that queued `v` happened before this load: on this
        // thread for a local push, or before the mailbox lock that
        // delivered it. Labels only decrease, so the load sees `v`'s
        // candidate or a lower one. A stale read here would drop work
        // rather than duplicate it, so check the ordering in debug builds.
        debug_assert!(label <= v.dist, "visitor outran its claim");
        if v.dist != label {
            return Ok(false);
        }
        if let Some(parent) = &self.parent {
            let p = if v.parent == NO_PARENT {
                NO_VERTEX
            } else {
                v.parent as u64
            };
            parent.set(vertex, p);
        }
        if v.dist >= self.horizon {
            return Ok(true);
        }
        // The edge loop: claim each out-neighbor's label at `v.dist + cost`
        // and push a visitor for every claim that lowered it. It is
        // compiled once per cost rule, so the rule is matched once per
        // visit, not once per edge.
        #[inline(always)]
        fn claim_neighbors<G: Graph>(
            g: &G,
            dist: &AtomicStateArray,
            v: SsspVisitor,
            mut push: impl FnMut(SsspVisitor),
            cost: impl Fn(Weight) -> u64,
        ) -> Result<(), NeighborError> {
            g.try_for_each_neighbor(v.vertex as u64, |t, w| {
                let nd = v.dist + cost(w);
                if dist.fetch_min(t, nd) {
                    push(SsspVisitor {
                        dist: nd,
                        vertex: t as u32,
                        parent: v.vertex,
                    });
                }
            })
        }
        let (g, dist) = (self.g, &*self.dist);
        match self.cost {
            Cost::Hop => claim_neighbors(g, dist, v, push, |_| 1),
            Cost::Weight => claim_neighbors(g, dist, v, push, |w| w as u64),
            Cost::Zero => claim_neighbors(g, dist, v, push, |_| 0),
        }?;
        Ok(true)
    }

    /// The batch I/O hint: announce the adjacency lists this service round
    /// will read so a semi-external backend can coalesce them into fewer
    /// device requests. Only visitors that will expand are announced:
    /// those that still carry their vertex's label, below the horizon.
    pub(crate) fn prefetch(&self, batch: impl Iterator<Item = SsspVisitor>) {
        let targets: Vec<u64> = batch
            .filter(|v| v.dist < self.horizon && v.dist == self.dist.get(v.vertex as u64))
            .map(|v| v.vertex as u64)
            .collect();
        if !targets.is_empty() {
            self.g.prefetch_adjacency(&targets);
        }
    }
}

impl<G: Graph, A: Deref<Target = AtomicStateArray> + Sync> FallibleVisitHandler<SsspVisitor>
    for LabelHandler<'_, G, A>
{
    fn try_visit(
        &self,
        v: SsspVisitor,
        ctx: &mut PushCtx<'_, SsspVisitor>,
    ) -> Result<bool, AbortReason> {
        self.relax(v, |nv| ctx.push(nv))
    }

    fn prepare_batch(&self, batch: &[SsspVisitor]) {
        self.prefetch(batch.iter().copied());
    }
}

/// One BFS ([`Cost::Hop`]) or SSSP ([`Cost::Weight`]) run from `source`
/// that stops expanding at label `horizon` (`INF_DIST`: never).
pub(crate) fn run_path<G: Graph, R: Recorder>(
    g: &G,
    source: Vertex,
    cfg: &Config,
    cost: Cost,
    horizon: u64,
    recorder: &R,
) -> Result<TraversalOutput, TraversalError> {
    let n = g.num_vertices();
    // Priority classes: exact levels for BFS; for weighted SSSP the
    // tentative-distance span of a frontier is about one max edge weight
    // (~n under the paper's UW distribution), so lg(n) − 9 buckets it into
    // ~512 live classes.
    let default_shift = if cost == Cost::Weight {
        crate::config::lg2(n).saturating_sub(9)
    } else {
        0
    };
    let vq = Config {
        priority_shift: default_shift,
        ..cfg.clone()
    };
    // Paper Algorithm 1: dist/parent arrays initialized to ∞; one visitor
    // at the source (whose label is claimed at 0), then wait for all
    // queued work to finish.
    let ([dist, parent], stats) = one_shot(
        n,
        &[source],
        [INF_DIST, NO_VERTEX],
        recorder,
        |[dist, parent]| {
            let h = LabelHandler::path(g, dist, parent, cost, horizon);
            let seeds = h.claim_sources(&[source]);
            VisitorQueue::try_run_recorded(&vq, &h, seeds, recorder)
        },
    )?;
    Ok(TraversalOutput {
        dist,
        parent,
        stats,
    })
}

/// Asynchronous Single-Source Shortest Paths from `source`.
///
/// Edge weights must be non-negative (they are unsigned by construction);
/// unweighted graphs behave as if every weight were 1. A storage failure
/// that exhausts its retry budget (or any other handler abort) returns
/// `Err` with the classified [`TraversalError`] and partial statistics; an
/// out-of-range source or an oversized graph is rejected before the run.
///
/// ```
/// use asyncgt::{try_sssp, Config};
/// use asyncgt::graph::GraphBuilder;
///
/// let g: asyncgt::CsrGraph = GraphBuilder::new(3)
///     .add_weighted_edge(0, 1, 5)
///     .add_weighted_edge(0, 2, 1)
///     .add_weighted_edge(2, 1, 2)
///     .build();
/// let out = try_sssp(&g, 0, &Config::with_threads(2))?;
/// assert_eq!(out.dist, vec![0, 3, 1]);
/// assert_eq!(out.path_to(1), Some(vec![0, 2, 1]));
/// # Ok::<(), asyncgt::TraversalError>(())
/// ```
pub fn try_sssp<G: Graph>(
    g: &G,
    source: Vertex,
    cfg: &Config,
) -> Result<TraversalOutput, TraversalError> {
    run_path(g, source, cfg, Cost::Weight, INF_DIST, &NoopRecorder)
}

/// [`try_sssp`] with a metrics [`Recorder`] (e.g.
/// [`ShardedRecorder`](asyncgt_obs::ShardedRecorder)) collecting phase
/// spans, per-worker counters, and service-time histograms. `try_sssp`
/// itself is this with [`NoopRecorder`], which compiles the
/// instrumentation out.
pub fn try_sssp_recorded<G: Graph, R: Recorder>(
    g: &G,
    source: Vertex,
    cfg: &Config,
    recorder: &R,
) -> Result<TraversalOutput, TraversalError> {
    run_path(g, source, cfg, Cost::Weight, INF_DIST, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncgt_baselines::serial;
    use asyncgt_graph::generators::{path_graph, RmatGenerator, RmatParams};
    use asyncgt_graph::weights::{weighted_copy, WeightKind};
    use asyncgt_graph::{CsrGraph, GraphBuilder};

    fn figure3_graph() -> CsrGraph<u32> {
        GraphBuilder::new(5)
            .add_weighted_edge(0, 1, 2)
            .add_weighted_edge(0, 2, 5)
            .add_weighted_edge(1, 2, 4)
            .add_weighted_edge(1, 3, 7)
            .add_weighted_edge(2, 3, 1)
            .add_weighted_edge(3, 0, 1)
            .add_weighted_edge(3, 4, 2)
            .add_weighted_edge(4, 0, 3)
            .build()
    }

    #[test]
    fn path_visitor_stays_sixteen_bytes() {
        // One-shot queues store this visitor bare (vq's
        // `one_shot_queues_store_bare_visitors` guards that side), so its
        // size is the bytes every BFS/SSSP push moves.
        assert_eq!(std::mem::size_of::<SsspVisitor>(), 16);
    }

    #[test]
    fn paper_figure3_example() {
        // The worked example of paper §III-B2 / Fig. 3. Weights "were
        // purposefully selected to require multiple visits per vertex";
        // final distances are 0, 2, 5, 6, 8.
        for threads in [1, 2, 8] {
            let out = try_sssp(&figure3_graph(), 0, &Config::with_threads(threads)).unwrap();
            assert_eq!(out.dist, vec![0, 2, 5, 6, 8], "threads={threads}");
            assert_eq!(out.path_to(4), Some(vec![0, 2, 3, 4]));
        }
    }

    #[test]
    fn matches_dijkstra_on_weighted_rmat() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 10, 8, 77).directed();
        for kind in [WeightKind::Uniform, WeightKind::LogUniform] {
            let wg = weighted_copy(&g, kind, 5);
            let expect = serial::dijkstra(&wg, 0);
            for threads in [1, 4, 32] {
                let out = try_sssp(&wg, 0, &Config::with_threads(threads)).unwrap();
                assert_eq!(out.dist, expect.dist, "{kind:?} threads={threads}");
            }
        }
    }

    #[test]
    fn parent_array_reconstructs_optimal_paths() {
        let g = weighted_copy(
            &RmatGenerator::new(RmatParams::RMAT_A, 8, 8, 1).directed(),
            WeightKind::Uniform,
            2,
        );
        let out = try_sssp(&g, 0, &Config::with_threads(8)).unwrap();
        let expect = serial::dijkstra(&g, 0);
        for v in 0..g.num_vertices() {
            if let Some(path) = out.path_to(v) {
                // Path length computed by summing edge weights must equal
                // the claimed distance.
                let mut len = 0u64;
                for pair in path.windows(2) {
                    let mut w_found = None;
                    g.for_each_neighbor(pair[0], |t, w| {
                        if t == pair[1] && w_found.is_none_or(|x| w < x) {
                            w_found = Some(w);
                        }
                    });
                    len += w_found.expect("parent edge must exist") as u64;
                }
                assert_eq!(len, out.dist[v as usize]);
                assert_eq!(out.dist[v as usize], expect.dist[v as usize]);
            } else {
                assert_eq!(expect.dist[v as usize], INF_DIST);
            }
        }
    }

    #[test]
    fn serialized_chain_worst_case() {
        // Paper Fig. 2: a path graph serializes the traversal but must
        // still complete and be exact.
        let g = path_graph(500);
        let out = try_sssp(&g, 0, &Config::with_threads(16)).unwrap();
        for v in 0..500 {
            assert_eq!(out.dist[v as usize], v);
        }
        // One visitor per vertex: no redundant work on a chain.
        assert_eq!(out.stats.visitors_executed, 500);
    }

    #[test]
    fn stats_relaxations_at_least_reached() {
        let g = weighted_copy(
            &RmatGenerator::new(RmatParams::RMAT_B, 9, 8, 11).directed(),
            WeightKind::LogUniform,
            4,
        );
        let out = try_sssp(&g, 0, &Config::with_threads(8)).unwrap();
        assert!(out.stats.relaxations >= out.reached_count());
        assert!(out.stats.visitors_executed >= out.stats.relaxations);
        assert!(out.revisit_factor() >= 1.0);
    }

    #[test]
    fn out_of_range_source_is_a_typed_error() {
        let g = path_graph(4);
        let err = try_sssp(&g, 99, &Config::default()).unwrap_err();
        assert!(matches!(
            err,
            TraversalError::InvalidSource {
                source: 99,
                num_vertices: 4
            }
        ));
        assert_eq!(err.stats().visitors_executed, 0);
        assert_eq!(
            err.to_string(),
            "source vertex 99 out of range (4 vertices)"
        );
        // `n` itself is the first id out of range.
        assert!(crate::try_bfs(&g, 4, &Config::default()).is_err());
    }
}
