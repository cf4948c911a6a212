//! Persistent traversal engine: one worker pool serving a stream of
//! concurrent BFS / SSSP / CC queries over a shared graph.
//!
//! The one-shot entry points ([`try_bfs`](crate::try_bfs),
//! [`try_sssp`](crate::try_sssp),
//! [`try_connected_components`](crate::try_connected_components)) spawn
//! and join a worker pool per call — the right shape for a single big
//! traversal, and pure overhead for a serving workload that answers many
//! small queries over one graph. This module keeps the pool alive:
//!
//! * **Workers spawn once** per [`with_engine`] call and park on their
//!   mailbox's condvar when idle.
//! * **Queries multiplex**: visitors are tagged with a compact query id,
//!   each query terminates on its own in-flight counter, and admission
//!   control ([`EngineOpts::max_concurrent`]) bounds how many run at once.
//! * **Label arrays are pooled**: each query leases its `dist`/`parent`/
//!   `ccid` arrays from a [`StatePool`], so a
//!   steady-state engine stops allocating per query.
//! * **Failures are isolated**: a query whose semi-external read exhausts
//!   its retry budget aborts alone — sibling queries and the worker pool
//!   are untouched.
//!
//! ```
//! use asyncgt::engine::{with_engine, EngineOpts};
//! use asyncgt::graph::generators::grid_graph;
//! use asyncgt::obs::NoopRecorder;
//!
//! let g = grid_graph(8, 8);
//! let (sum, stats) = with_engine(&g, &EngineOpts::default(), &NoopRecorder, |eng| {
//!     // Two concurrent BFS queries on one worker pool.
//!     let a = eng.submit_bfs(&[0]).unwrap();
//!     let b = eng.submit_bfs(&[63]).unwrap();
//!     let a = a.wait().unwrap();
//!     let b = b.wait().unwrap();
//!     a.dist[63] + b.dist[0]
//! });
//! assert_eq!(sum, 28); // 14 grid hops each way
//! assert_eq!(stats.queries, 2);
//! ```

use crate::cc::{CcOutput, CcVisitor};
use crate::config::{lg2, Config};
use crate::error::{check_input, settle, TraversalError};
use crate::result::{TraversalOutput, TraversalStats};
use crate::sssp::{Cost, LabelHandler, SsspVisitor};
use asyncgt_graph::{Graph, Vertex, INF_DIST, NO_VERTEX};
use asyncgt_obs::Recorder;
use asyncgt_vq::{
    AtomicStateArray, EngineStats, OwnedStateLease, QueryError, QueryTicket, StatePool, SubmitError,
};
use std::sync::Arc;

/// Configuration of a persistent traversal engine: the worker pool and
/// `max_concurrent`, how many queries run at once (a further `submit_*`
/// waits for one to finish). [`with_engine`] sets the engine-wide bucket
/// class width from the graph: the CC-style coarse `lg(n) − 10`, widened
/// on a weighted graph to delta-stepping's `2·lg(n) − lg(m)`.
pub use asyncgt_vq::EngineConfig as EngineOpts;

/// The engine-wide bucket class width for a graph of `n` vertices and `m`
/// edges. It is at least the CC-style coarse `lg n − 10`, which keeps every
/// algorithm's priority span (CC's vertex ids at worst) inside the bucket
/// ring and merely coarsens BFS levels. A weighted graph widens it to
/// delta-stepping's Δ = max weight / mean degree, with the max weight
/// taken as `n` as in one-shot SSSP: `2·lg n − lg m`. Narrower classes
/// would spread an SSSP frontier over ~1,000 sparse buckets, each growing
/// its own buffer.
fn class_shift(n: u64, m: u64, weighted: bool) -> u32 {
    let coarse = lg2(n).saturating_sub(10);
    if weighted {
        coarse.max((2 * lg2(n)).saturating_sub(lg2(m)))
    } else {
        coarse
    }
}

/// The one handler type an engine runs: the one-shot relax step over
/// label arrays leased from the engine's pool. Every query queues the
/// bare [`SsspVisitor`]; a CC query carries its candidate component id in
/// `dist` (with no parent), so the item order — (priority, vertex), then
/// query id — is the paper's semi-sort for every algorithm.
type Job<'env, G> = LabelHandler<'env, G, OwnedStateLease>;

type Ticket<'env, G> = QueryTicket<Job<'env, G>>;

/// A submitted query's job and ticket, or the input error that kept it
/// from running (its ticket is done at once and no label array was leased).
type Submitted<'env, G> = Result<(Arc<Job<'env, G>>, Ticket<'env, G>), TraversalError>;

/// Wait for a submitted query and settle its outcome through the one-shot
/// [`settle`], so an abort classifies exactly as in the `try_*` API.
///
/// # Panics
/// If a worker panicked (engine poisoned).
fn wait_job<G: Graph>(
    submitted: Submitted<'_, G>,
) -> Result<(Arc<Job<'_, G>>, TraversalStats), TraversalError> {
    let (job, ticket) = submitted?;
    let outcome = ticket.wait().map_err(|e| match e {
        QueryError::Aborted(run) => run,
        QueryError::EnginePoisoned => panic!("traversal engine poisoned by a worker panic"),
    });
    let stats = settle(outcome)?;
    Ok((job, stats))
}

fn is_done<G: Graph>(submitted: &Submitted<'_, G>) -> bool {
    submitted.as_ref().map_or(true, |(_, t)| t.is_done())
}

/// Pending result of a BFS/SSSP query submitted to a [`TraversalEngine`].
pub struct PathTicket<'env, G: Graph>(Submitted<'env, G>);

impl<'env, G: Graph> PathTicket<'env, G> {
    /// Block until the query finalizes, extracting its `dist`/`parent`
    /// labels. An aborted query returns the same classified
    /// [`TraversalError`] the one-shot `try_*` API produces, and so does a
    /// query rejected at submit (out-of-range source, oversized graph).
    ///
    /// # Panics
    /// If a worker panicked (engine poisoned); [`with_engine`] re-raises
    /// the original panic when it unwinds.
    pub fn wait(self) -> Result<TraversalOutput, TraversalError> {
        let (h, stats) = wait_job(self.0)?;
        Ok(TraversalOutput {
            dist: h.dist.to_vec(),
            // A path query always holds a parent array.
            parent: h
                .parent
                .as_deref()
                .map_or_else(Vec::new, AtomicStateArray::to_vec),
            stats,
        })
    }

    /// Whether the query has already finalized (non-blocking).
    pub fn is_done(&self) -> bool {
        is_done(&self.0)
    }
}

/// Pending result of a connected-components query submitted to a
/// [`TraversalEngine`].
pub struct CcTicket<'env, G: Graph>(Submitted<'env, G>);

impl<'env, G: Graph> CcTicket<'env, G> {
    /// Block until the query finalizes, extracting its component labels.
    ///
    /// # Panics
    /// If a worker panicked (engine poisoned); [`with_engine`] re-raises
    /// the original panic when it unwinds.
    pub fn wait(self) -> Result<CcOutput, TraversalError> {
        let (h, stats) = wait_job(self.0)?;
        Ok(CcOutput {
            ccid: h.dist.to_vec(),
            stats,
        })
    }

    /// Whether the query has already finalized (non-blocking).
    pub fn is_done(&self) -> bool {
        is_done(&self.0)
    }
}

/// Handle to a live traversal engine inside a [`with_engine`] call.
///
/// Submit queries from the closure (or from threads it spawns — the handle
/// is `Sync`); every accepted query runs to completion before
/// [`with_engine`] returns.
pub struct TraversalEngine<'s, 'env, G: Graph, R: Recorder> {
    eng: &'s asyncgt_vq::Engine<'s, SsspVisitor, Job<'env, G>, R>,
    g: &'env G,
    pool: Arc<StatePool>,
}

impl<'s, 'env, G: Graph, R: Recorder> TraversalEngine<'s, 'env, G, R> {
    /// Number of worker threads serving queries.
    pub fn num_workers(&self) -> usize {
        self.eng.num_workers()
    }

    /// Queries currently executing (an instantaneous snapshot).
    pub fn active_queries(&self) -> u64 {
        self.eng.active_queries()
    }

    /// Label arrays allocated so far — stays at the concurrency high-water
    /// mark (×2 for path queries) thanks to pooling.
    pub fn state_arrays_allocated(&self) -> usize {
        self.pool.allocated()
    }

    /// Check the input, then submit the job and seeds `job` builds (only
    /// if the input is valid, so a rejected query leases no label array).
    fn submit<I: IntoIterator<Item = SsspVisitor>>(
        &self,
        sources: &[Vertex],
        job: impl FnOnce() -> (Job<'env, G>, I),
    ) -> Result<Submitted<'env, G>, SubmitError> {
        if let Err(e) = check_input(self.g.num_vertices(), sources) {
            return Ok(Err(e));
        }
        let (job, seeds) = job();
        let job = Arc::new(job);
        let ticket = self.eng.submit(Arc::clone(&job), seeds)?;
        Ok(Ok((job, ticket)))
    }

    fn submit_path(
        &self,
        sources: &[Vertex],
        cost: Cost,
    ) -> Result<PathTicket<'env, G>, SubmitError> {
        let job = || {
            let h = LabelHandler::path(
                self.g,
                self.pool.lease_arc(INF_DIST),
                self.pool.lease_arc(NO_VERTEX),
                cost,
                INF_DIST,
            );
            // Claims each source on the leased array; a repeated source
            // seeds (and so expands) once.
            let seeds = h.claim_sources(sources);
            (h, seeds)
        };
        self.submit(sources, job).map(PathTicket)
    }

    /// Submit a multi-source BFS (unit edge weights): `dist[v]` is the hop
    /// count to the *nearest* source and `parent[v]` a predecessor on such
    /// a path. Seeding one visitor per source is the same generalization
    /// the paper's CC algorithm uses by seeding every vertex. With no
    /// sources every vertex is unreached; a source outside the graph makes
    /// the ticket's `wait` return [`TraversalError::InvalidSource`].
    pub fn submit_bfs(&self, sources: &[Vertex]) -> Result<PathTicket<'env, G>, SubmitError> {
        self.submit_path(sources, Cost::Hop)
    }

    /// Submit a multi-source weighted SSSP: `dist[v]` is the weighted
    /// distance to the nearest source. Sources are checked as for
    /// [`submit_bfs`](Self::submit_bfs).
    pub fn submit_sssp(&self, sources: &[Vertex]) -> Result<PathTicket<'env, G>, SubmitError> {
        self.submit_path(sources, Cost::Weight)
    }

    /// Submit a connected-components query (every vertex seeds its own id,
    /// exactly like the one-shot
    /// [`try_connected_components`](crate::try_connected_components)).
    pub fn submit_cc(&self) -> Result<CcTicket<'env, G>, SubmitError> {
        let job = || {
            // The handler sets the leased array to the identity.
            let h = LabelHandler::cc(self.g, self.pool.lease_arc(INF_DIST));
            let seeds = CcVisitor::seeds(self.g.num_vertices()).map(SsspVisitor::from);
            (h, seeds)
        };
        self.submit(&[], job).map(CcTicket)
    }
}

/// Run a persistent traversal engine over `g` for the duration of `f`.
///
/// Workers are spawned exactly once; `f` submits queries through the
/// [`TraversalEngine`] handle and waits on the returned tickets. When `f`
/// returns, the engine drains every accepted query, parks nothing, joins
/// its workers, and reports lifetime [`EngineStats`]. If `g` has 2^32 − 1
/// or more vertices, every query's `wait` returns
/// [`TraversalError::GraphTooLarge`].
///
/// # Panics
/// Re-raises any worker (handler) panic after teardown, like the one-shot
/// API.
pub fn with_engine<'env, G, R, T>(
    g: &'env G,
    opts: &EngineOpts,
    recorder: &R,
    f: impl FnOnce(&TraversalEngine<'_, 'env, G, R>) -> T,
) -> (T, EngineStats)
where
    G: Graph,
    R: Recorder,
{
    let n = g.num_vertices();
    let ecfg = EngineOpts {
        cfg: Config {
            priority_shift: class_shift(n, g.num_edges(), g.is_weighted()),
            ..opts.cfg.clone()
        },
        ..opts.clone()
    };
    let pool = Arc::new(StatePool::new(n as usize));
    asyncgt_vq::engine::scoped(&ecfg, recorder, |eng| {
        let engine = TraversalEngine {
            eng,
            g,
            pool: Arc::clone(&pool),
        };
        f(&engine)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_bfs, try_connected_components, try_sssp};
    use asyncgt_baselines::serial;
    use asyncgt_graph::generators::{path_graph, RmatGenerator, RmatParams};
    use asyncgt_graph::weights::{weighted_copy, WeightKind};
    use asyncgt_obs::NoopRecorder;

    fn test_graph() -> impl Graph {
        weighted_copy(
            &RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 21).undirected(),
            WeightKind::Uniform,
            5,
        )
    }

    #[test]
    fn class_shift_widens_only_weighted_graphs() {
        // Unweighted graphs keep lg n − 10.
        assert_eq!(class_shift(1 << 13, 1 << 17, false), 3);
        assert_eq!(class_shift(1 << 18, 1 << 22, false), 8);
        // engine-mix's weighted RMAT s13, degree 16: Δ = 2^13 / 16.
        assert_eq!(class_shift(1 << 13, 1 << 17, true), 9);
        // No graph goes below lg n − 10, however dense.
        for (n, m) in [(1u64 << 13, 1u64 << 30), (1 << 20, 1 << 40), (4, 0), (1, 1)] {
            for weighted in [false, true] {
                assert!(class_shift(n, m, weighted) >= lg2(n).saturating_sub(10));
            }
        }
    }

    #[test]
    fn mixed_concurrent_queries_match_one_shot_results() {
        let g = test_graph();
        let cfg = Config::with_threads(4);
        let bfs_expect = try_bfs(&g, 0, &cfg).unwrap();
        let sssp_expect = try_sssp(&g, 7, &cfg).unwrap();
        let cc_expect = try_connected_components(&g, &cfg).unwrap();

        let opts = EngineOpts {
            cfg: cfg.clone(),
            max_concurrent: 8,
        };
        let ((b, s, c), stats) = with_engine(&g, &opts, &NoopRecorder, |eng| {
            let b = eng.submit_bfs(&[0]).unwrap();
            let s = eng.submit_sssp(&[7]).unwrap();
            let c = eng.submit_cc().unwrap();
            (b.wait().unwrap(), s.wait().unwrap(), c.wait().unwrap())
        });
        assert_eq!(b.dist, bfs_expect.dist);
        assert_eq!(s.dist, sssp_expect.dist);
        assert_eq!(c.ccid, cc_expect.ccid);
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.num_threads, 4);
    }

    #[test]
    fn recorder_counts_relaxations_and_revisits_of_every_query() {
        let g = test_graph();
        let rec = asyncgt_obs::ShardedRecorder::new(4);
        let opts = EngineOpts::with_threads(4).with_max_concurrent(4);
        let (stats, _) = with_engine(&g, &opts, &rec, |eng| {
            let paths = [
                eng.submit_bfs(&[0]),
                eng.submit_sssp(&[7]),
                eng.submit_bfs(&[9]),
            ];
            let cc = eng.submit_cc().unwrap();
            let mut stats: Vec<TraversalStats> = paths
                .into_iter()
                .map(|t| t.unwrap().wait().unwrap().stats)
                .collect();
            stats.push(cc.wait().unwrap().stats);
            stats
        });
        let snap = rec.snapshot();
        let relaxations: u64 = stats.iter().map(|s| s.relaxations).sum();
        let revisits: u64 = stats
            .iter()
            .map(|s| s.visitors_executed - s.relaxations)
            .sum();
        assert!(relaxations > 0);
        assert_eq!(snap.counter("relaxations"), relaxations);
        assert_eq!(snap.counter("revisits"), revisits);
    }

    #[test]
    fn many_concurrent_path_queries_are_exact() {
        let g = test_graph();
        let sources: Vec<Vertex> = (0..16u64).map(|i| i * 3).collect();
        let expected: Vec<Vec<u64>> = sources.iter().map(|&s| serial::bfs(&g, s).dist).collect();
        let opts = EngineOpts {
            cfg: Config::with_threads(4),
            max_concurrent: 16,
        };
        let (outs, stats) = with_engine(&g, &opts, &NoopRecorder, |eng| {
            let tickets: Vec<_> = sources
                .iter()
                .map(|&s| eng.submit_bfs(&[s]).unwrap())
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>()
        });
        for (out, expect) in outs.iter().zip(&expected) {
            assert_eq!(&out.dist, expect);
        }
        assert_eq!(stats.queries, 16);
    }

    #[test]
    fn state_pool_amortizes_label_arrays_across_sequential_queries() {
        let g = path_graph(64);
        let opts = EngineOpts {
            cfg: Config::with_threads(2),
            max_concurrent: 2,
        };
        let (allocated, _) = with_engine(&g, &opts, &NoopRecorder, |eng| {
            for round in 0..10 {
                let t = eng.submit_bfs(&[0]).unwrap();
                let out = t.wait().unwrap();
                assert_eq!(out.dist[63], 63, "round {round}");
            }
            eng.state_arrays_allocated()
        });
        // Ten sequential path queries would need 20 arrays without
        // pooling. With pooling the steady state is 2, but a worker may
        // still hold the previous query's handler (and its leases) in its
        // one-entry cache when the next submit leases — it only lets go on
        // its next idle pass — so allow a small transient excess.
        assert!(
            allocated <= 6,
            "pool failed to amortize: {allocated} arrays"
        );
    }

    #[test]
    fn engine_sssp_matches_dijkstra() {
        let g = test_graph();
        let expect = serial::dijkstra(&g, 3);
        let opts = EngineOpts::with_threads(8);
        let (out, _) = with_engine(&g, &opts, &NoopRecorder, |eng| {
            eng.submit_sssp(&[3]).unwrap().wait().unwrap()
        });
        assert_eq!(out.dist, expect.dist);
        assert!(out.stats.relaxations >= out.reached_count());
    }

    #[test]
    fn out_of_range_source_is_a_typed_error() {
        let g = path_graph(4);
        let (allocated, _) = with_engine(&g, &EngineOpts::default(), &NoopRecorder, |eng| {
            let t = eng.submit_bfs(&[0, 99]).unwrap();
            assert!(t.is_done(), "a rejected query is done at once");
            let err = t.wait().unwrap_err();
            assert!(matches!(
                err,
                TraversalError::InvalidSource {
                    source: 99,
                    num_vertices: 4
                }
            ));
            assert_eq!(err.stats(), Default::default());
            let err = eng.submit_sssp(&[4]).unwrap().wait().unwrap_err();
            assert!(matches!(
                err,
                TraversalError::InvalidSource { source: 4, .. }
            ));
            eng.state_arrays_allocated()
        });
        assert_eq!(allocated, 0, "a rejected query leases no label array");
    }

    #[test]
    fn repeated_source_expands_once() {
        let g = path_graph(6);
        let (out, _) = with_engine(&g, &EngineOpts::with_threads(2), &NoopRecorder, |eng| {
            eng.submit_bfs(&[3, 3]).unwrap().wait().unwrap()
        });
        assert_eq!(out.dist[3..], [0, 1, 2]);
        // Vertices 3, 4 and 5 each queue and expand one visitor.
        assert_eq!(out.stats.visitors_executed, 3);
        assert_eq!(out.stats.relaxations, 3);
    }

    #[test]
    fn empty_source_list_reaches_nothing() {
        let g = path_graph(4);
        let (out, stats) = with_engine(&g, &EngineOpts::with_threads(2), &NoopRecorder, |eng| {
            eng.submit_bfs(&[]).unwrap().wait().unwrap()
        });
        assert_eq!(out.dist, [INF_DIST; 4]);
        assert_eq!(out.parent, [NO_VERTEX; 4]);
        assert_eq!(out.stats.visitors_executed, 0);
        assert_eq!(out.stats.relaxations, 0);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn oversized_graph_is_a_typed_error() {
        let g = crate::bfs::tests::Huge;
        let (allocated, stats) =
            with_engine(&g, &EngineOpts::with_threads(2), &NoopRecorder, |eng| {
                let err = eng.submit_bfs(&[0]).unwrap().wait().unwrap_err();
                assert!(matches!(
                    err,
                    TraversalError::GraphTooLarge {
                        num_vertices: 0xFFFF_FFFF
                    }
                ));
                let err = eng.submit_cc().unwrap().wait().unwrap_err();
                assert!(matches!(err, TraversalError::GraphTooLarge { .. }));
                eng.state_arrays_allocated()
            });
        assert_eq!(allocated, 0);
        assert_eq!(stats.queries, 0, "nothing reached the worker pool");
    }
}
