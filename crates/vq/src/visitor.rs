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
/// Returning `Err` from [`try_visit`](Self::try_visit) aborts the run: the
/// first reason is captured, every worker drains out promptly (parked
/// workers are woken), and
/// [`VisitorQueue::try_run`](crate::VisitorQueue::try_run) returns the
/// reason plus the partial stats. Every infallible [`VisitHandler`] is
/// trivially a `FallibleVisitHandler` via the blanket impl.
pub trait FallibleVisitHandler<V: Visitor>: Sync {
    /// Process one visitor, or fail — which cleanly aborts the run.
    fn try_visit(&self, v: V, ctx: &mut PushCtx<'_, V>) -> Result<(), AbortReason>;

    /// Called once per service round with the visitors the worker just
    /// drained (in execution order), before any of them runs. Purely
    /// advisory — semi-external handlers use it to hand the batch to the
    /// storage layer's I/O scheduler, which coalesces the upcoming
    /// adjacency reads into fewer, larger device requests. The default
    /// does nothing; only reached when
    /// [`VqConfig::batch_drain`](crate::VqConfig::batch_drain) exceeds 1.
    fn prepare_batch(&self, _batch: &[V]) {}
}

impl<V: Visitor, H: VisitHandler<V>> FallibleVisitHandler<V> for H {
    fn try_visit(&self, v: V, ctx: &mut PushCtx<'_, V>) -> Result<(), AbortReason> {
        self.visit(v, ctx);
        Ok(())
    }
}

/// Adapter: wrap a visitor type so its vertex id is ignored in the ordering,
/// leaving only the primary priority. Used by the semi-sort ablation to
/// measure what the paper's secondary vertex-id sort key is worth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityOnly<V>(pub V);

impl<V: Visitor + PriorityKey> PartialOrd for PriorityOnly<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: Visitor + PriorityKey> Ord for PriorityOnly<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.priority_key().cmp(&other.0.priority_key())
    }
}

impl<V: Visitor + PriorityKey> Visitor for PriorityOnly<V> {
    fn target(&self) -> u64 {
        self.0.target()
    }
}

/// Exposes a visitor's primary priority (without secondary keys), enabling
/// the [`PriorityOnly`] ordering adapter.
pub trait PriorityKey {
    /// The primary priority value (e.g. tentative distance), smaller first.
    fn priority_key(&self) -> u64;
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
    impl PriorityKey for V {
        fn priority_key(&self) -> u64 {
            self.dist
        }
    }

    #[test]
    fn derived_ord_uses_secondary_vertex_key() {
        let a = V { dist: 3, vertex: 1 };
        let b = V { dist: 3, vertex: 2 };
        assert!(a < b, "equal priority orders by vertex id (semi-sort)");
    }

    #[test]
    fn priority_only_ignores_vertex() {
        let a = PriorityOnly(V { dist: 3, vertex: 9 });
        let b = PriorityOnly(V { dist: 3, vertex: 1 });
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a.target(), 9);
    }
}
