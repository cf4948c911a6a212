//! Traversal configuration: the runtime's [`VqConfig`](asyncgt_vq::VqConfig)
//! serves every traversal. Each traversal keeps the caller's thread count
//! and drain size and sets only the priority-class width for its algorithm.

pub use asyncgt_vq::VqConfig as Config;

/// `⌈lg₂ n⌉` for `n ≥ 1`, used to scale priority classes to graph size.
pub(crate) fn lg2(n: u64) -> u32 {
    64 - n.max(2).saturating_sub(1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_bfs_recorded, EngineOpts};
    use asyncgt_graph::generators::grid_graph;
    use asyncgt_obs::{HistKind, ShardedRecorder};

    #[test]
    fn with_threads_clamps() {
        assert_eq!(Config::with_threads(0).num_threads, 1);
        let opts = EngineOpts::with_threads(0).with_max_concurrent(0);
        assert_eq!((opts.cfg.num_threads, opts.max_concurrent), (1, 1));
    }

    #[test]
    fn vq_config_inherits_fields() {
        // A traversal sets only `priority_shift`: the caller's thread count
        // and drain size reach the runtime unchanged.
        let cfg = Config::with_threads(1).with_io_batch(4);
        let rec = ShardedRecorder::new(1);
        let out = try_bfs_recorded(&grid_graph(16, 16), 0, &cfg, &rec).unwrap();
        assert_eq!(out.stats.num_threads, 1);
        let drains = rec.snapshot().histograms.get(HistKind::BatchDrainSize).max;
        assert_eq!(drains, 4);
    }
}
