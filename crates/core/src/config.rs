//! Traversal configuration.

use asyncgt_vq::VqConfig;

/// Configuration shared by all asynchronous traversals.
#[derive(Clone, Debug)]
pub struct Config {
    /// Worker threads (= visitor queues). May exceed the core count —
    /// thread oversubscription is the paper's §IV-A tuning knob ("using as
    /// many as 512 threads on 16 cores offers substantial benefit"), and
    /// for semi-external graphs it is what keeps enough I/O requests in
    /// flight to saturate the device (paper Fig. 1).
    pub num_threads: usize,

    /// Visitors a worker drains per service round (see
    /// [`VqConfig::batch_drain`]). At values above 1, semi-external
    /// traversals announce each semi-sorted batch to the storage layer's
    /// I/O scheduler, which coalesces the upcoming adjacency reads into
    /// fewer, larger device requests. `1` (default) preserves the classic
    /// one-visitor service loop; results are identical at any setting.
    pub io_batch: usize,
}

impl Config {
    /// `num_threads` workers, defaults otherwise.
    pub fn with_threads(num_threads: usize) -> Self {
        Config {
            num_threads: num_threads.max(1),
            ..Default::default()
        }
    }

    /// Set the per-round drain size (see [`Config::io_batch`]).
    pub fn with_io_batch(mut self, io_batch: usize) -> Self {
        self.io_batch = io_batch.max(1);
        self
    }

    /// Derive the underlying visitor-queue configuration. `shift` is the
    /// algorithm's priority-class width: exact levels for BFS, `lg(n) − 9`
    /// for weighted SSSP (delta-stepping-like classes), `lg(n) − 10` for
    /// CC and the engine (the whole id space fits the bucket ring).
    pub(crate) fn vq(&self, shift: u32) -> VqConfig {
        let mut vq = VqConfig::with_threads(self.num_threads);
        vq.priority_shift = shift;
        vq.batch_drain = self.io_batch.max(1);
        vq
    }
}

/// `⌈lg₂ n⌉` for `n ≥ 1`, used to scale priority classes to graph size.
pub(crate) fn lg2(n: u64) -> u32 {
    64 - n.max(2).saturating_sub(1).leading_zeros()
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_threads: VqConfig::default().num_threads,
            io_batch: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_clamps() {
        assert_eq!(Config::with_threads(0).num_threads, 1);
    }

    #[test]
    fn vq_config_inherits_fields() {
        let vq = Config::with_threads(9).vq(3);
        assert_eq!(vq.num_threads, 9);
        assert_eq!(vq.priority_shift, 3);
        assert_eq!(vq.batch_drain, 1, "default stays single-visitor");
    }

    #[test]
    fn io_batch_builder_clamps_and_propagates() {
        assert_eq!(Config::with_threads(2).with_io_batch(0).io_batch, 1);
        let c = Config::with_threads(2).with_io_batch(32);
        assert_eq!(c.io_batch, 32);
        assert_eq!(c.vq(0).batch_drain, 32);
    }
}
