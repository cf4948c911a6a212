//! Asynchronous push-based PageRank on the visitor queue.
//!
//! The paper positions BFS/SSSP/CC as "important building blocks to many
//! graph analysis algorithms and applications"; this module demonstrates
//! the claim by expressing a fourth algorithm on the same runtime with no
//! engine changes. The formulation is residual push (Gauss–Southwell /
//! "push" PageRank): every vertex carries a committed `rank` and an
//! uncommitted `residual`; a visitor delivers a probability-mass delta to
//! its target, and when a vertex's residual exceeds the tolerance it
//! commits the residual to its rank and pushes `damping × residual /
//! out-degree` to each neighbor.
//!
//! This is label-correcting in spirit — state only grows, visit order
//! affects only work, not the fixed point — so it inherits the engine's
//! correctness story: hash routing gives exclusive vertex access (the
//! residual read-modify-write needs no CAS) and termination detection
//! fires exactly when no vertex holds pushable mass.
//!
//! Priorities favor larger residuals (more mass moved per visit), the
//! same work-efficiency heuristic the paper's SSSP gets from
//! shortest-first ordering.

use crate::config::Config;
use crate::result::TraversalStats;
use asyncgt_graph::{Graph, Vertex};
use asyncgt_vq::{
    AbortReason, AtomicStateArray, FallibleVisitHandler, PushCtx, Visitor, VisitorQueue,
};

/// Parameters for [`pagerank`].
#[derive(Clone, Copy, Debug)]
pub struct PageRankParams {
    /// Damping factor `d` (the classic value is 0.85).
    pub damping: f64,
    /// Per-vertex residual threshold below which mass is left uncommitted.
    /// The final ranks are within `n × tolerance` (L1) of the exact
    /// PageRank vector.
    pub tolerance: f64,
}

impl Default for PageRankParams {
    fn default() -> Self {
        PageRankParams {
            damping: 0.85,
            tolerance: 1e-9,
        }
    }
}

/// A visitor addressed to `vertex`: either a probability-mass delta
/// (`delta > 0`) or a *flush* activation (`delta == 0`).
///
/// Commit-per-delta would explode on hub vertices (a hub receiving `k`
/// super-tolerance deltas would fan out `k × degree` pushes per round —
/// combinatorial on a star). Instead deltas only *accumulate*, and the
/// first delta that lifts a residual past the tolerance enqueues a single
/// flush visitor (Andersen–Chung–Lang style activation); the flush commits
/// whatever has accumulated by the time it runs and fans out once.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MassVisitor {
    /// Residual delta (> 0), or exactly 0.0 for a flush activation.
    delta: f64,
    vertex: u32,
}

impl MassVisitor {
    fn is_flush(&self) -> bool {
        self.delta == 0.0
    }
}

impl Eq for MassVisitor {}

impl Ord for MassVisitor {
    /// Largest delta first (compare reversed), vertex id secondary;
    /// flushes order after deltas (so accumulation happens first when the
    /// queue gets the chance).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority()
            .cmp(&other.priority())
            .then(self.vertex.cmp(&other.vertex))
    }
}

impl PartialOrd for MassVisitor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Visitor for MassVisitor {
    fn target(&self) -> u64 {
        self.vertex as u64
    }
    /// Bucket by magnitude: big deltas (small exponent buckets) first.
    /// `-log2(delta)` is ≈ the IEEE-754 exponent, cheap and monotone.
    /// Flushes take the last bucket so pending deltas accumulate first.
    fn priority(&self) -> u64 {
        if self.is_flush() {
            1075
        } else {
            // delta ∈ (0, 1]; -log2 ∈ [0, ~1075). Saturate defensively.
            (-self.delta.log2()).clamp(0.0, 1074.0) as u64
        }
    }
}

struct PrHandler<'a, G> {
    g: &'a G,
    /// Committed rank per vertex (f64 bits in the u64 cells).
    rank: &'a AtomicStateArray,
    /// Uncommitted residual per vertex (f64 bits).
    residual: &'a AtomicStateArray,
    /// 1 while a flush visitor for the vertex is queued.
    active: &'a AtomicStateArray,
    damping: f64,
    tolerance: f64,
}

impl<'a, G: Graph> FallibleVisitHandler<MassVisitor> for PrHandler<'a, G> {
    /// Accumulate a delta, or commit a flush. Only a committing flush
    /// counts as expanded, so the run's relaxations are the commits.
    fn try_visit(
        &self,
        v: MassVisitor,
        ctx: &mut PushCtx<'_, MassVisitor>,
    ) -> Result<bool, AbortReason> {
        let vertex = v.vertex as u64;
        // Exclusive vertex access (hash routing): plain read-modify-write
        // on residual/rank/active, no CAS.
        if !v.is_flush() {
            let res = f64::from_bits(self.residual.get(vertex)) + v.delta;
            self.residual.set(vertex, res.to_bits());
            if res >= self.tolerance && self.active.get(vertex) == 0 {
                self.active.set(vertex, 1);
                ctx.push(MassVisitor {
                    delta: 0.0,
                    vertex: v.vertex,
                });
            }
            return Ok(false);
        }

        // Flush: commit everything accumulated since activation.
        self.active.set(vertex, 0);
        let res = f64::from_bits(self.residual.get(vertex));
        if res < self.tolerance {
            return Ok(false); // defensive; activation implies res ≥ tolerance
        }
        self.residual.set(vertex, 0f64.to_bits());
        let rank = f64::from_bits(self.rank.get(vertex)) + res;
        self.rank.set(vertex, rank.to_bits());

        let degree = self.g.out_degree(vertex);
        if degree == 0 {
            // Dangling vertex: its outgoing mass is dropped (the common
            // "no-op dangling" treatment); see `pagerank` docs.
            return Ok(true);
        }
        let share = self.damping * res / degree as f64;
        if share <= 0.0 {
            return Ok(true); // underflow guard: nothing measurable to push
        }
        self.g.for_each_neighbor(vertex, |t, _| {
            ctx.push(MassVisitor {
                delta: share,
                vertex: t as u32,
            });
        });
        Ok(true)
    }
}

/// Result of an asynchronous PageRank run.
#[derive(Clone, Debug)]
pub struct PageRankOutput {
    /// Committed rank per vertex. Sums to ≤ 1 (mass below tolerance stays
    /// uncommitted; dangling-vertex mass is dropped).
    pub rank: Vec<f64>,
    /// Residual (uncommitted) mass per vertex, each `< tolerance`.
    pub residual: Vec<f64>,
    /// Vertices that committed at least once / total commits.
    pub commits: u64,
    /// Run statistics.
    pub stats: TraversalStats,
}

impl PageRankOutput {
    /// Vertices ordered by decreasing rank (top `k`).
    pub fn top_k(&self, k: usize) -> Vec<(Vertex, f64)> {
        let mut idx: Vec<Vertex> = (0..self.rank.len() as u64).collect();
        idx.sort_unstable_by(|&a, &b| {
            self.rank[b as usize]
                .partial_cmp(&self.rank[a as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx.into_iter()
            .map(|v| (v, self.rank[v as usize]))
            .collect()
    }

    /// Total committed mass (≤ 1).
    pub fn committed_mass(&self) -> f64 {
        self.rank.iter().sum()
    }
}

/// Asynchronous push PageRank.
///
/// Converges to the PageRank vector with damping `params.damping` under
/// the *no-op dangling* convention (mass entering a zero-out-degree vertex
/// is kept in its rank but not redistributed, so ranks sum to slightly
/// less than 1 on graphs with dangling vertices). Ranks are within
/// `n × params.tolerance` (L1) of the fixed point.
///
/// ```
/// use asyncgt::{pagerank, PageRankParams, Config};
/// use asyncgt::graph::generators::cycle_graph;
///
/// // On a symmetric cycle every vertex has equal rank.
/// let g = cycle_graph(8);
/// let out = pagerank(&g, &PageRankParams::default(), &Config::with_threads(2));
/// let expect = 1.0 / 8.0;
/// assert!(out.rank.iter().all(|r| (r - expect).abs() < 1e-6));
/// ```
pub fn pagerank<G: Graph>(g: &G, params: &PageRankParams, cfg: &Config) -> PageRankOutput {
    let n = g.num_vertices();
    assert!(n > 0, "PageRank needs at least one vertex");
    assert!(
        n < u32::MAX as u64,
        "async traversal stores vertex ids as u32; got {n} vertices"
    );
    assert!(
        params.damping > 0.0 && params.damping < 1.0,
        "damping must be in (0, 1)"
    );
    assert!(params.tolerance > 0.0, "tolerance must be positive");

    let rank = AtomicStateArray::new(n as usize, 0f64.to_bits());
    let residual = AtomicStateArray::new(n as usize, 0f64.to_bits());
    let active = AtomicStateArray::new(n as usize, 0);

    let handler = PrHandler {
        g,
        rank: &rank,
        residual: &residual,
        active: &active,
        damping: params.damping,
        tolerance: params.tolerance,
    };

    // Seed: the teleport term (1 − d)/n at every vertex — the same
    // every-vertex seeding pattern as the paper's CC Algorithm 3.
    let teleport = (1.0 - params.damping) / n as f64;
    let init = (0..n as u32).map(|v| MassVisitor {
        delta: teleport,
        vertex: v,
    });
    let stats = VisitorQueue::try_run(&cfg.vq(0), &handler, init)
        .unwrap_or_else(|a| unreachable!("the PageRank handler never fails: {}", a.reason));

    PageRankOutput {
        rank: rank.to_vec().into_iter().map(f64::from_bits).collect(),
        residual: residual.to_vec().into_iter().map(f64::from_bits).collect(),
        commits: stats.relaxations,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncgt_baselines::power_iteration;
    use asyncgt_graph::generators::{
        complete_graph, cycle_graph, star_graph, RmatGenerator, RmatParams,
    };
    use asyncgt_graph::{CsrGraph, GraphBuilder};

    fn params(tol: f64) -> PageRankParams {
        PageRankParams {
            damping: 0.85,
            tolerance: tol,
        }
    }

    #[test]
    fn uniform_on_symmetric_graphs() {
        for g in [cycle_graph(10), complete_graph(6)] {
            let out = pagerank(&g, &params(1e-10), &Config::with_threads(4));
            let n = g.num_vertices() as f64;
            for (v, r) in out.rank.iter().enumerate() {
                assert!((r - 1.0 / n).abs() < 1e-6, "vertex {v}: {r}");
            }
        }
    }

    #[test]
    fn hub_of_star_ranks_highest() {
        let g = star_graph(50);
        let out = pagerank(&g, &params(1e-10), &Config::with_threads(4));
        let top = out.top_k(1);
        assert_eq!(top[0].0, 0, "hub must rank first");
        assert!(top[0].1 > out.rank[1] * 5.0);
    }

    #[test]
    fn matches_power_iteration_on_rmat() {
        let g = RmatGenerator::new(RmatParams::RMAT_A, 9, 8, 17).undirected();
        let ours = pagerank(&g, &params(1e-11), &Config::with_threads(8));
        let reference = power_iteration::pagerank(&g, 0.85, 200, 1e-12);
        let l1: f64 = ours
            .rank
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 < 1e-5, "L1 distance to power iteration: {l1}");
    }

    #[test]
    fn thread_counts_agree() {
        let g = RmatGenerator::new(RmatParams::RMAT_B, 8, 6, 3).undirected();
        let a = pagerank(&g, &params(1e-10), &Config::with_threads(1));
        let b = pagerank(&g, &params(1e-10), &Config::with_threads(16));
        let l1: f64 = a.rank.iter().zip(&b.rank).map(|(x, y)| (x - y).abs()).sum();
        // Execution order differs, but both land within tolerance bounds.
        assert!(l1 < g.num_vertices() as f64 * 1e-9 * 4.0, "L1 {l1}");
    }

    #[test]
    fn mass_is_conserved_without_dangling() {
        let g = cycle_graph(32); // no dangling vertices
        let out = pagerank(&g, &params(1e-12), &Config::with_threads(4));
        let committed = out.committed_mass();
        let residual: f64 = out.residual.iter().sum();
        assert!(
            (committed + residual - 1.0).abs() < 1e-6,
            "mass leak: committed {committed} + residual {residual}"
        );
    }

    #[test]
    fn dangling_mass_is_dropped_not_corrupted() {
        // 0 -> 1, 1 dangling: rank finite, sum < 1, no NaN.
        let g: CsrGraph<u32> = GraphBuilder::new(2).add_edge(0, 1).build();
        let out = pagerank(&g, &params(1e-12), &Config::with_threads(2));
        assert!(out.rank.iter().all(|r| r.is_finite()));
        assert!(out.committed_mass() <= 1.0 + 1e-9);
        assert!(out.rank[1] > out.rank[0] * 0.5, "1 receives 0's pushes");
    }

    #[test]
    #[should_panic]
    fn rejects_bad_damping() {
        let g = cycle_graph(4);
        let _ = pagerank(
            &g,
            &PageRankParams {
                damping: 1.5,
                tolerance: 1e-9,
            },
            &Config::default(),
        );
    }
}
