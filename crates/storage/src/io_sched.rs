//! I/O scheduler for the semi-external read path.
//!
//! The visitor queues already semi-sort visits by vertex id (paper §IV:
//! "increases access locality to the storage devices"), so the adjacency
//! lists a worker is about to read cluster in nearby file regions. The
//! scheduler turns that locality into fewer, larger device reads: a batch
//! of visitors is translated into block requests, deduplicated, merged
//! into runs of consecutive blocks ([`plan_runs`]), optionally extended by
//! sequential readahead, and issued concurrently through a small
//! `PrefetchPool` — the paper's Fig.-1 observation that flash only
//! reaches peak IOPS with many requests in flight, applied to the
//! traversal's own read stream.
//!
//! Speculative reads are advisory: a block that fails validation
//! (injected fault, short read, checksum mismatch) is simply not staged,
//! and the subsequent demand read replays the identical fault schedule
//! through the retry/accounting machinery in `reader.rs`.

use crate::reader::IoCore;
use parking_lot::Mutex;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// One coalesced device read: `total` consecutive blocks starting at
/// `start`, of which the first `demand` were demanded by the batch and
/// the remainder are speculative readahead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRun {
    /// First block index of the run (within the edge region).
    pub start: u64,
    /// Number of demanded blocks (consecutive by construction).
    pub demand: u64,
    /// Total blocks to read, readahead included (`total >= demand`).
    pub total: u64,
}

impl BlockRun {
    /// First block index past the demanded portion.
    pub fn demand_end(&self) -> u64 {
        self.start + self.demand
    }
}

/// Merge a **sorted, deduplicated** list of demanded block indices into
/// runs of consecutive blocks, then extend each run with up to
/// `readahead` speculative blocks.
///
/// Coalescing rules:
/// * Adjacent demanded blocks merge into one run; runs never merge
///   across a gap in the demand set (the hole would be wasted I/O unless
///   readahead covers it deliberately).
/// * Readahead extends a run past its demanded end, clamped to the start
///   of the next run (never re-reading what the next run fetches anyway)
///   and to `num_blocks`, the end of the edge region.
pub fn plan_runs(blocks: &[u64], readahead: u64, num_blocks: u64) -> Vec<BlockRun> {
    debug_assert!(blocks.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    let mut runs: Vec<BlockRun> = Vec::new();
    for &b in blocks {
        match runs.last_mut() {
            Some(run) if b == run.demand_end() => run.demand += 1,
            _ => runs.push(BlockRun {
                start: b,
                demand: 1,
                total: 1,
            }),
        }
    }
    for i in 0..runs.len() {
        let limit = match runs.get(i + 1) {
            Some(next) => next.start,
            None => num_blocks,
        };
        let end = (runs[i].demand_end() + readahead)
            .min(limit)
            .min(num_blocks);
        runs[i].total = end.max(runs[i].demand_end()) - runs[i].start;
    }
    runs
}

/// A run and the blocks of it that passed their checks.
pub(crate) type StagedRun = (BlockRun, Vec<(u64, Arc<[u8]>)>);

struct Job {
    run: BlockRun,
    reply: mpsc::Sender<StagedRun>,
}

/// A small pool of persistent worker threads issuing coalesced run reads
/// concurrently, so multiple requests are in flight per service round
/// even from a single traversal worker. Workers share the owning
/// graph's `IoCore` and take jobs from one channel; dropping the pool
/// closes the channel and joins them.
pub(crate) struct PrefetchPool {
    jobs: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl PrefetchPool {
    pub(crate) fn new(core: Arc<IoCore>, threads: usize) -> Self {
        let (jobs, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|_| {
                let core = Arc::clone(&core);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Its own statement, so the lock is released before
                    // the read: holding it would serialize the pool.
                    let job = rx.lock().recv();
                    let Ok(job) = job else { return };
                    let blocks = core.read_run(&job.run);
                    // The batch owner may have given up waiting; a closed
                    // reply channel just discards the speculative blocks.
                    let _ = job.reply.send((job.run, blocks));
                })
            })
            .collect();
        PrefetchPool {
            jobs: Some(jobs),
            workers,
        }
    }

    /// Issue `runs` concurrently and wait for all of them. Each result
    /// carries only the blocks that passed; the caller holds them and
    /// lets the demand path re-read anything missing.
    pub(crate) fn read_runs(&self, runs: &[BlockRun]) -> Vec<StagedRun> {
        let (reply, replies) = mpsc::channel();
        if let Some(jobs) = &self.jobs {
            for &run in runs {
                let reply = reply.clone();
                // A send fails only once every worker is gone; the
                // demand path then reads the run's blocks itself.
                let _ = jobs.send(Job { run, reply });
            }
        }
        drop(reply);
        replies.iter().collect()
    }
}

impl Drop for PrefetchPool {
    fn drop(&mut self) {
        drop(self.jobs.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(start: u64, demand: u64, total: u64) -> BlockRun {
        BlockRun {
            start,
            demand,
            total,
        }
    }

    #[test]
    fn consecutive_blocks_merge_into_one_run() {
        assert_eq!(plan_runs(&[3, 4, 5], 0, 100), vec![run(3, 3, 3)]);
    }

    #[test]
    fn gaps_split_runs() {
        assert_eq!(
            plan_runs(&[1, 2, 7, 8, 9, 20], 0, 100),
            vec![run(1, 2, 2), run(7, 3, 3), run(20, 1, 1)]
        );
    }

    #[test]
    fn readahead_extends_but_never_crosses_next_run() {
        // Run at 1..3 may read ahead 4 blocks but the next run starts at
        // 5: clamp to 5. The final run extends freely to 4 extra blocks.
        assert_eq!(
            plan_runs(&[1, 2, 5], 4, 100),
            vec![run(1, 2, 4), run(5, 1, 5)]
        );
    }

    #[test]
    fn readahead_clamped_to_file_end() {
        assert_eq!(plan_runs(&[98, 99], 8, 100), vec![run(98, 2, 2)]);
        assert_eq!(plan_runs(&[95], 8, 100), vec![run(95, 1, 5)]);
    }

    #[test]
    fn empty_input_plans_nothing() {
        assert!(plan_runs(&[], 4, 100).is_empty());
    }

    #[test]
    fn adjacent_runs_with_zero_gap_still_merge_via_demand() {
        // Blocks 0..6 fully contiguous: a single run regardless of
        // readahead.
        assert_eq!(plan_runs(&[0, 1, 2, 3, 4, 5], 2, 6), vec![run(0, 6, 6)]);
    }
}
