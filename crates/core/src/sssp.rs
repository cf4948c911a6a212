//! Asynchronous Single-Source Shortest Paths — paper Algorithms 1 & 2.
//!
//! "Like Bellman-Ford, our approach relies on label-correcting to compute
//! the traversal … Like Dijkstra's SSSP, our approach traverses paths in a
//! prioritized manner, visiting the shortest path possible at each visit.
//! Our approach does not introduce synchronizations between steps;
//! therefore, we cannot guarantee that the absolute shortest-path vertex is
//! visited at each step, possibly requiring multiple visits per vertex."

use crate::config::Config;
use crate::error::TraversalError;
use crate::result::{TraversalOutput, TraversalStats};
use asyncgt_graph::{Graph, Vertex, INF_DIST, NO_VERTEX};
use asyncgt_obs::{Counter, NoopRecorder, Recorder};
use asyncgt_vq::{
    AbortReason, AtomicStateArray, FallibleVisitHandler, PushCtx, RunStats, Visitor, VisitorQueue,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// The paper's `SSSPVertexVisitor`: a candidate path of length `dist`
/// reaching `vertex` via `parent`.
///
/// Vertex ids are stored as `u32` (16-byte visitor, halving queue memory
/// traffic); [`run_sssp`] rejects graphs with ≥ 2^32 − 1 vertices — above
/// every scale the paper evaluates (max 2^30). `u32::MAX` encodes "no
/// parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SsspVisitor {
    pub dist: u64,
    pub vertex: u32,
    pub parent: u32,
}

/// In-visitor encoding of [`NO_VERTEX`].
pub(crate) const NO_PARENT: u32 = u32::MAX;

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

/// Shared state of one SSSP run (paper Algorithm 2's inputs).
pub(crate) struct SsspHandler<'a, G> {
    pub g: &'a G,
    pub dist: &'a AtomicStateArray,
    pub parent: &'a AtomicStateArray,
    pub relaxations: &'a AtomicU64,
    /// `Config::prune_pushes`: skip pushes that cannot improve the target.
    pub prune: bool,
    /// BFS mode: treat every edge weight as 1 (paper §III-B: "we compute a
    /// Breadth First Search by applying our asynchronous SSSP algorithm
    /// with all edge weights equal to 1").
    pub unit_weights: bool,
}

/// The SSSP relax step (paper Algorithm 2 lines 8-10), shared by the
/// one-shot [`SsspHandler`] and the persistent engine's path jobs
/// ([`crate::engine`]): relax `v.vertex`'s labels if the candidate
/// improves them, then emit a visitor per out-edge through `push`.
///
/// Exclusive access to `v.vertex`'s labels is guaranteed by hash routing,
/// so the check-then-store needs no atomicity beyond the relaxed cells
/// themselves.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sssp_relax<G: Graph>(
    g: &G,
    dist: &AtomicStateArray,
    parent: &AtomicStateArray,
    relaxations: &AtomicU64,
    prune: bool,
    unit_weights: bool,
    v: SsspVisitor,
    mut push: impl FnMut(SsspVisitor),
) -> Result<(), AbortReason> {
    let vertex = v.vertex as u64;
    if v.dist < dist.get(vertex) {
        dist.set(vertex, v.dist);
        parent.set(
            vertex,
            if v.parent == NO_PARENT {
                NO_VERTEX
            } else {
                v.parent as u64
            },
        );
        relaxations.fetch_add(1, Ordering::Relaxed);
        // Fallible adjacency iteration: a storage error (retry budget
        // exhausted, corruption) aborts the whole run cleanly instead
        // of unwinding a panic through the worker pool. Note the label
        // was already relaxed; label-correcting algorithms tolerate
        // that — a retried/restarted run re-relaxes from scratch.
        g.try_for_each_neighbor(vertex, |t, w| {
            let nd = v.dist + if unit_weights { 1 } else { w as u64 };
            // Pruning reads the target's label from a non-owning
            // thread. Labels only decrease, so a stale value can only
            // make us push a visitor that will fail its visit-time
            // check — never skip a necessary one.
            if prune && nd >= dist.get(t) {
                return;
            }
            push(SsspVisitor {
                dist: nd,
                vertex: t as u32,
                parent: v.vertex,
            });
        })?;
    }
    Ok(())
}

/// The SSSP half of the batch I/O hint: announce the adjacency lists this
/// service round will read so a semi-external backend can coalesce them
/// into fewer device requests. Visitors whose candidate no longer improves
/// the label are filtered: their visit relaxes nothing and reads no
/// adjacency. The label check uses the same stale-tolerant read as
/// pruning — labels only decrease, so a stale value can only keep a
/// vertex in the hint, never drop a needed one.
pub(crate) fn sssp_prefetch<'v, G: Graph>(
    g: &G,
    dist: &AtomicStateArray,
    batch: impl Iterator<Item = &'v SsspVisitor>,
) {
    let targets: Vec<u64> = batch
        .filter(|v| v.dist < dist.get(v.vertex as u64))
        .map(|v| v.vertex as u64)
        .collect();
    if !targets.is_empty() {
        g.prefetch_adjacency(&targets);
    }
}

impl<'a, G: Graph> FallibleVisitHandler<SsspVisitor> for SsspHandler<'a, G> {
    fn try_visit(
        &self,
        v: SsspVisitor,
        ctx: &mut PushCtx<'_, SsspVisitor>,
    ) -> Result<(), AbortReason> {
        sssp_relax(
            self.g,
            self.dist,
            self.parent,
            self.relaxations,
            self.prune,
            self.unit_weights,
            v,
            |nv| ctx.push(nv),
        )
    }

    fn prepare_batch(&self, batch: &[SsspVisitor]) {
        sssp_prefetch(self.g, self.dist, batch.iter());
    }
}

/// Build a [`TraversalStats`] from engine [`RunStats`] plus the handler's
/// relaxation count (also used for the partial stats of an aborted run).
pub(crate) fn make_stats(run: &RunStats, relaxed: u64) -> TraversalStats {
    TraversalStats {
        visitors_executed: run.visitors_executed,
        visitors_pushed: run.visitors_pushed,
        local_pushes: run.local_pushes,
        parks: run.parks,
        inbox_batches: run.inbox_batches,
        relaxations: relaxed,
        elapsed: run.elapsed,
        num_threads: run.num_threads,
    }
}

pub(crate) fn run_sssp<G: Graph>(
    g: &G,
    source: Vertex,
    cfg: &Config,
    unit_weights: bool,
) -> TraversalOutput {
    run_sssp_multi_recorded(g, &[source], cfg, unit_weights, &NoopRecorder)
}

pub(crate) fn run_sssp_multi<G: Graph>(
    g: &G,
    sources: &[Vertex],
    cfg: &Config,
    unit_weights: bool,
) -> TraversalOutput {
    run_sssp_multi_recorded(g, sources, cfg, unit_weights, &NoopRecorder)
}

/// Infallible wrapper: the historical API contract is that a storage
/// failure panics, so callers that cannot abort keep working unchanged.
pub(crate) fn run_sssp_multi_recorded<G: Graph, R: Recorder>(
    g: &G,
    sources: &[Vertex],
    cfg: &Config,
    unit_weights: bool,
    recorder: &R,
) -> TraversalOutput {
    try_run_sssp_multi_recorded(g, sources, cfg, unit_weights, recorder)
        .unwrap_or_else(|e| panic!("{e}"))
}

pub(crate) fn try_run_sssp_multi_recorded<G: Graph, R: Recorder>(
    g: &G,
    sources: &[Vertex],
    cfg: &Config,
    unit_weights: bool,
    recorder: &R,
) -> Result<TraversalOutput, TraversalError> {
    let n = g.num_vertices();
    assert!(!sources.is_empty(), "at least one source vertex required");
    for &source in sources {
        assert!(
            source < n,
            "source vertex {source} out of range ({n} vertices)"
        );
    }
    assert!(
        n < u32::MAX as u64,
        "async traversal stores vertex ids as u32 (paper max scale is 2^30); \
         got {n} vertices"
    );

    // Paper Algorithm 1: dist/parent arrays initialized to ∞.
    recorder.phase_start("init_state");
    let dist = AtomicStateArray::new(n as usize, INF_DIST);
    let parent = AtomicStateArray::new(n as usize, NO_VERTEX);
    let relaxations = AtomicU64::new(0);
    recorder.phase_end("init_state");

    let handler = SsspHandler {
        g,
        dist: &dist,
        parent: &parent,
        relaxations: &relaxations,
        prune: cfg.prune_pushes,
        unit_weights,
    };

    // Algorithm 1 line 6: queue a visitor per source with path length 0 and
    // no parent, then wait for all queued work to finish.
    let init: Vec<SsspVisitor> = sources
        .iter()
        .map(|&source| SsspVisitor {
            dist: 0,
            vertex: source as u32,
            parent: NO_PARENT,
        })
        .collect();
    // Priority classes: exact levels for BFS; for weighted SSSP the
    // tentative-distance span of a frontier is about one max edge weight
    // (~n under the paper's UW distribution), so lg(n) − 9 buckets it into
    // ~512 live classes.
    let default_shift = if unit_weights {
        0
    } else {
        crate::config::lg2(n).saturating_sub(9)
    };
    recorder.phase_start("traversal");
    let result = VisitorQueue::try_run_recorded(&cfg.vq(default_shift), &handler, init, recorder);
    recorder.phase_end("traversal");
    let run = match result {
        Ok(run) => run,
        Err(aborted) => {
            let stats = make_stats(&aborted.stats, relaxations.load(Ordering::Relaxed));
            return Err(TraversalError::from_abort(aborted, stats));
        }
    };

    let relaxed = relaxations.load(Ordering::Relaxed);
    if R::ENABLED {
        recorder.counter(Counter::Relaxations, relaxed);
        // Executions that failed the label check: the redundant work behind
        // the paper's revisit factor (§III-B "possibly requiring multiple
        // visits per vertex").
        recorder.counter(
            Counter::Revisits,
            run.visitors_executed.saturating_sub(relaxed),
        );
    }

    recorder.phase_start("extract_state");
    let out = TraversalOutput {
        dist: dist.to_vec(),
        parent: parent.to_vec(),
        stats: make_stats(&run, relaxed),
    };
    recorder.phase_end("extract_state");
    Ok(out)
}

/// Asynchronous Single-Source Shortest Paths from `source`.
///
/// Edge weights must be non-negative (they are unsigned by construction);
/// unweighted graphs behave as if every weight were 1.
///
/// ```
/// use asyncgt::{sssp, Config};
/// use asyncgt::graph::GraphBuilder;
///
/// let g: asyncgt::CsrGraph = GraphBuilder::new(3)
///     .add_weighted_edge(0, 1, 5)
///     .add_weighted_edge(0, 2, 1)
///     .add_weighted_edge(2, 1, 2)
///     .build();
/// let out = sssp(&g, 0, &Config::with_threads(2));
/// assert_eq!(out.dist, vec![0, 3, 1]);
/// assert_eq!(out.path_to(1), Some(vec![0, 2, 1]));
/// ```
pub fn sssp<G: Graph>(g: &G, source: Vertex, cfg: &Config) -> TraversalOutput {
    run_sssp(g, source, cfg, false)
}

/// [`sssp`] with a metrics [`Recorder`] (e.g.
/// [`ShardedRecorder`](asyncgt_obs::ShardedRecorder)) collecting phase
/// spans, per-worker counters, and service-time histograms. `sssp` itself
/// is this with [`NoopRecorder`], which compiles the instrumentation out.
pub fn sssp_recorded<G: Graph, R: Recorder>(
    g: &G,
    source: Vertex,
    cfg: &Config,
    recorder: &R,
) -> TraversalOutput {
    run_sssp_multi_recorded(g, &[source], cfg, false, recorder)
}

/// Multi-source asynchronous SSSP: `dist[v]` is the weighted distance to
/// the nearest of `sources` (a "Voronoi" assignment over the sources, via
/// the parent pointers). Seeding several visitors instead of one is the
/// same generalization the paper's CC algorithm uses.
pub fn sssp_multi_source<G: Graph>(g: &G, sources: &[Vertex], cfg: &Config) -> TraversalOutput {
    run_sssp_multi(g, sources, cfg, false)
}

/// Fallible [`sssp`]: a storage failure that exhausts its retry budget (or
/// any other handler abort) returns `Err` with the classified
/// [`TraversalError`] and partial statistics, instead of panicking. This is
/// the API to use for semi-external graphs on storage that can fail.
pub fn try_sssp<G: Graph>(
    g: &G,
    source: Vertex,
    cfg: &Config,
) -> Result<TraversalOutput, TraversalError> {
    try_run_sssp_multi_recorded(g, &[source], cfg, false, &NoopRecorder)
}

/// [`try_sssp`] with a metrics [`Recorder`].
pub fn try_sssp_recorded<G: Graph, R: Recorder>(
    g: &G,
    source: Vertex,
    cfg: &Config,
    recorder: &R,
) -> Result<TraversalOutput, TraversalError> {
    try_run_sssp_multi_recorded(g, &[source], cfg, false, recorder)
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
            let out = sssp(&figure3_graph(), 0, &Config::with_threads(threads));
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
                let out = sssp(&wg, 0, &Config::with_threads(threads));
                assert_eq!(out.dist, expect.dist, "{kind:?} threads={threads}");
            }
        }
    }

    #[test]
    fn pruning_preserves_results() {
        let g = RmatGenerator::new(RmatParams::RMAT_B, 10, 8, 3).directed();
        let wg = weighted_copy(&g, WeightKind::Uniform, 9);
        let base = sssp(&wg, 0, &Config::with_threads(4));
        let pruned = sssp(&wg, 0, &Config::with_threads(4).with_pruning());
        assert_eq!(base.dist, pruned.dist);
        assert!(
            pruned.stats.visitors_pushed <= base.stats.visitors_pushed,
            "pruning must not push more"
        );
    }

    #[test]
    fn parent_array_reconstructs_optimal_paths() {
        let g = weighted_copy(
            &RmatGenerator::new(RmatParams::RMAT_A, 8, 8, 1).directed(),
            WeightKind::Uniform,
            2,
        );
        let out = sssp(&g, 0, &Config::with_threads(8));
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
        let out = sssp(&g, 0, &Config::with_threads(16));
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
        let out = sssp(&g, 0, &Config::with_threads(8));
        assert!(out.stats.relaxations >= out.reached_count());
        assert!(out.stats.visitors_executed >= out.stats.relaxations);
        assert!(out.revisit_factor() >= 1.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_source_panics() {
        let g = path_graph(4);
        let _ = sssp(&g, 99, &Config::default());
    }
}
