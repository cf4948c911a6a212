//! Runtime configuration.

/// Configuration for a [`VisitorQueue`](crate::VisitorQueue) run — and,
/// re-exported as `asyncgt::Config`, for every traversal built on it.
#[derive(Clone, Debug)]
pub struct VqConfig {
    /// Number of worker threads — and therefore of visitor queues (the
    /// paper's implementation has "a prioritized queue per thread").
    ///
    /// May exceed the core count: the paper finds "using as many as 512
    /// threads on 16 cores offers substantial benefit" because more queues
    /// mean less lock contention and, for semi-external graphs, more
    /// concurrent I/O requests in flight.
    pub num_threads: usize,

    /// Right-shift applied to [`Visitor::priority`] to form the bucketed
    /// queues' priority classes: `0` keeps exact priorities (Dial queue);
    /// larger values coarsen ordering delta-stepping-style, which is what
    /// lets SSSP over wide weight ranges keep O(1) queue operations.
    ///
    /// The traversals in `asyncgt` choose this per algorithm (exact levels
    /// for BFS, `lg(n) − 9` for weighted SSSP, `lg(n) − 10` for CC; the
    /// engine takes `lg(n) − 10`, widened on a weighted graph to
    /// delta-stepping's `2·lg(n) − lg(m)`) and overwrite whatever value is
    /// set here.
    ///
    /// [`Visitor::priority`]: crate::Visitor::priority
    pub priority_shift: u32,

    /// Upper bound on visitors a worker drains from its queue per service
    /// round (`1` preserves strict pop-visit-pop order). Draining a batch
    /// first exposes the whole semi-sorted batch to the handler through
    /// [`FallibleVisitHandler::prepare_batch`], which semi-external
    /// handlers forward to the storage layer's I/O scheduler to coalesce
    /// the upcoming adjacency reads into fewer, larger device requests.
    /// Execution order within the batch is unchanged, so label-correcting
    /// traversals converge to the same fixed point at any setting.
    ///
    /// [`FallibleVisitHandler::prepare_batch`]:
    /// crate::FallibleVisitHandler::prepare_batch
    pub io_batch: usize,
}

impl VqConfig {
    /// `num_threads` workers, defaults otherwise.
    pub fn with_threads(num_threads: usize) -> Self {
        VqConfig {
            num_threads: num_threads.max(1),
            ..Default::default()
        }
    }

    /// Set the per-round drain size (see [`VqConfig::io_batch`]).
    pub fn with_io_batch(mut self, io_batch: usize) -> Self {
        self.io_batch = io_batch.max(1);
        self
    }
}

impl Default for VqConfig {
    /// One worker per available core, exact priorities, single-visitor
    /// drains.
    fn default() -> Self {
        VqConfig {
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            priority_shift: 0,
            io_batch: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_clamps_zero() {
        assert_eq!(VqConfig::with_threads(0).num_threads, 1);
        assert_eq!(VqConfig::with_threads(7).num_threads, 7);
    }

    #[test]
    fn default_uses_at_least_one_thread() {
        assert!(VqConfig::default().num_threads >= 1);
    }

    #[test]
    fn io_batch_builder_clamps_and_propagates() {
        assert_eq!(
            VqConfig::default().io_batch,
            1,
            "default stays single-visitor"
        );
        assert_eq!(VqConfig::with_threads(2).with_io_batch(0).io_batch, 1);
        let c = VqConfig::with_threads(9).with_io_batch(32);
        assert_eq!((c.num_threads, c.io_batch), (9, 32));
    }
}
