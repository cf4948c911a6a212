//! The visitor abstraction: prioritized work items addressed to vertices.

use crate::worker::PushCtx;

/// A prioritized, vertex-addressed unit of traversal work.
///
/// The `Ord` implementation defines queue priority: **smaller compares
/// first** (queues are min-ordered, so SSSP visitors compare by tentative
/// path length ascending). For semi-external graphs the paper adds "an
/// additional secondary sorting parameter, the vertex identifier", which an
/// implementation provides simply by including the vertex id as the second
/// field of its `Ord` key.
pub trait Visitor: Send + Ord + Sized {
    /// The vertex this visitor is addressed to. The runtime hashes this to
    /// select the owning queue/thread; all visitors with equal `target()`
    /// execute on the same thread, serialized, giving the handler exclusive
    /// access to that vertex's state with no per-vertex lock.
    fn target(&self) -> u64;

    /// Numeric priority (smaller pops first) used by the bucketed queues;
    /// must agree with the primary key of `Ord`. SSSP returns the tentative
    /// path length, CC the candidate component id, BFS the level.
    ///
    /// The default (`0`) puts every visitor in one bucket — execution
    /// order then degenerates to per-queue batch order, which is still
    /// *correct* for label-correcting traversals but loses the
    /// work-efficiency of prioritization; real visitors should override.
    fn priority(&self) -> u64 {
        0
    }
}

/// Traversal logic executed when a visitor is popped from its queue.
///
/// One handler instance is shared by all worker threads (`Sync`), holding
/// the graph and the vertex-state arrays. The *only* mutable state a `visit`
/// may touch without further synchronization is state indexed by
/// `v.target()` — exclusivity for that vertex is guaranteed by hash routing.
pub trait VisitHandler<V: Visitor>: Sync {
    /// Process one visitor. New visitors for adjacent vertices are emitted
    /// through `ctx` ([`PushCtx::push`]).
    fn visit(&self, v: V, ctx: &mut PushCtx<'_, V>);
}

/// The error a fallible visit surfaces to abort the run. Type-erased so the
/// runtime stays independent of any particular storage layer; downstream
/// layers downcast (e.g. to a storage error) when classifying the failure.
pub type AbortReason = Box<dyn std::error::Error + Send + Sync + 'static>;

/// Fallible twin of [`VisitHandler`], for traversals whose visits can fail
/// (semi-external reads exhausting their retry budget, corrupt adjacency).
///
/// [`try_visit`](Self::try_visit) reports whether the visit *expanded*:
/// `Ok(true)` when its candidate label was current and the vertex was
/// relaxed, `Ok(false)` when the candidate was stale and the visit did
/// nothing. The runtime counts the `true`s as
/// [`RunStats::relaxations`](crate::RunStats::relaxations); every other
/// execution is a revisit, the redundant work of label correcting (paper
/// §III-B).
///
/// Returning `Err` aborts the run: the first reason is captured, every
/// worker drains out promptly (parked workers are woken), and
/// [`VisitorQueue::try_run`](crate::VisitorQueue::try_run) returns the
/// reason plus the partial stats. Every infallible [`VisitHandler`] is
/// trivially a `FallibleVisitHandler` via the blanket impl, whose every
/// visit counts as expanded.
pub trait FallibleVisitHandler<V: Visitor>: Sync {
    /// Process one visitor: whether it expanded, or a failure — which
    /// cleanly aborts the run.
    fn try_visit(&self, v: V, ctx: &mut PushCtx<'_, V>) -> Result<bool, AbortReason>;

    /// Called once per service round with the visitors the worker just
    /// drained (in execution order), before any of them runs. Purely
    /// advisory — semi-external handlers use it to hand the batch to the
    /// storage layer's I/O scheduler, which coalesces the upcoming
    /// adjacency reads into fewer, larger device requests. The default
    /// does nothing; only reached when
    /// [`VqConfig::io_batch`](crate::VqConfig::io_batch) exceeds 1.
    fn prepare_batch(&self, _batch: &[V]) {}
}

impl<V: Visitor, H: VisitHandler<V>> FallibleVisitHandler<V> for H {
    fn try_visit(&self, v: V, ctx: &mut PushCtx<'_, V>) -> Result<bool, AbortReason> {
        self.visit(v, ctx);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct V {
        dist: u64,
        vertex: u64,
    }
    impl Visitor for V {
        fn target(&self) -> u64 {
            self.vertex
        }
    }

    #[test]
    fn derived_ord_uses_secondary_vertex_key() {
        let a = V { dist: 3, vertex: 1 };
        let b = V { dist: 3, vertex: 2 };
        assert!(a < b, "equal priority orders by vertex id (semi-sort)");
    }
}
