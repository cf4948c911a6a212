//! Semi-external graph reader.
//!
//! Keeps the vertex index (the CSR offsets array, `(n+1) × 8` bytes — the
//! "algorithmic information about the vertices") in memory and fetches
//! adjacency lists from the file on demand with positioned reads.
//!
//! I/O is performed in aligned **blocks** through an optional sharded block
//! cache, modeling the OS page cache the paper's SEM runs benefited from:
//! its priority queues semi-sort visits by vertex id precisely so that
//! consecutive reads land in nearby file regions ("increases access
//! locality to the storage devices"). With the cache enabled, that locality
//! turns into block hits and the effective read rate rises above the raw
//! device IOPS — the mechanism behind the paper's SEM-beats-in-memory-BGL
//! results.

use crate::checksum::chunk_sum;
use crate::device::SimulatedFlash;
use crate::error::StorageError;
use crate::fault::FaultyDevice;
use crate::format::{SemHeader, HEADER_BYTES};
use crate::io_sched::{plan_runs, BlockRun, PrefetchPool, StagedRun};
use crate::retry::RetryPolicy;
use asyncgt_graph::{Graph, NeighborError, Vertex, Weight};
use asyncgt_obs::MetricSink;
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for a [`SemGraph`].
#[derive(Clone)]
pub struct SemConfig {
    /// I/O granularity in bytes. Reads are aligned to block boundaries.
    pub block_size: usize,
    /// Block-cache capacity in blocks (`0` disables caching: every
    /// adjacency fetch hits the device).
    pub cache_blocks: usize,
    /// Optional simulated flash device charged once per block fetched.
    pub device: Option<Arc<SimulatedFlash>>,
    /// Optional metrics sink receiving read/retry latencies and scheduler
    /// run sizes (the counts stay in [`IoStats`]). Dynamic dispatch is
    /// deliberate here: each event corresponds to a µs-scale I/O
    /// operation, so the vtable call is noise, and a trait object keeps
    /// the storage layer independent of the runtime's generic recorder
    /// plumbing.
    pub metrics: Option<Arc<dyn MetricSink>>,
    /// Retry policy applied to every failed block read.
    pub retry: RetryPolicy,
    /// Optional deterministic fault injector wrapped around the raw read
    /// (testing and fault-tolerance validation).
    pub faults: Option<Arc<FaultyDevice>>,
    /// Verify per-chunk checksums on device fetches. Effective only when
    /// the file carries a checksum table and `block_size` is a multiple
    /// of the file's chunk size (so every fetched block covers whole
    /// chunks). Cache hits are never re-verified: only verified blocks
    /// enter the cache.
    pub verify_checksums: bool,
    /// Speculative sequential readahead, in blocks, appended to each
    /// coalesced run the I/O scheduler issues (`0` disables). Only
    /// effective through [`SemGraph::prefetch_adjacency`].
    pub readahead: usize,
    /// Worker threads in the prefetch pool that issues coalesced runs
    /// concurrently (`0` issues them inline on the calling thread).
    pub prefetch_threads: usize,
}

impl Default for SemConfig {
    /// 64 KiB blocks, 4096-block (256 MiB) cache, no simulated device,
    /// default retry policy, checksum verification on, no readahead, no
    /// prefetch pool.
    fn default() -> Self {
        SemConfig {
            block_size: 64 * 1024,
            cache_blocks: 4096,
            device: None,
            metrics: None,
            retry: RetryPolicy::default(),
            faults: None,
            verify_checksums: true,
            readahead: 0,
            prefetch_threads: 0,
        }
    }
}

impl std::fmt::Debug for SemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemConfig")
            .field("block_size", &self.block_size)
            .field("cache_blocks", &self.cache_blocks)
            .field("device", &self.device.as_ref().map(|d| d.model().name))
            .field("metrics", &self.metrics.is_some())
            .field("retry", &self.retry)
            .field("faults", &self.faults.is_some())
            .field("verify_checksums", &self.verify_checksums)
            .field("readahead", &self.readahead)
            .field("prefetch_threads", &self.prefetch_threads)
            .finish()
    }
}

/// A block held in memory for adjacency reads — by the cache, or by the
/// staging area when the cache is off. `readahead` marks a speculative
/// block not used yet; its first use books one readahead hit.
struct HeldBlock {
    data: Arc<[u8]>,
    readahead: bool,
}

/// Sharded FIFO block cache. FIFO (not LRU) keeps eviction O(1); with
/// semi-sorted access the difference is negligible because reuse happens
/// shortly after a block is fetched.
struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
}

struct Shard {
    blocks: HashMap<u64, HeldBlock>,
    fifo: VecDeque<u64>,
}

const CACHE_SHARDS: usize = 64;

impl BlockCache {
    fn new(capacity_blocks: usize) -> Self {
        BlockCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        blocks: HashMap::new(),
                        fifo: VecDeque::new(),
                    })
                })
                .collect(),
            capacity_per_shard: capacity_blocks.div_ceil(CACHE_SHARDS),
        }
    }

    fn shard(&self, block: u64) -> MutexGuard<'_, Shard> {
        self.shards[(block as usize) % CACHE_SHARDS].lock()
    }

    /// Hold `block` unless it is held already: a block read twice keeps
    /// its first entry, so a re-read never re-marks it as readahead.
    fn insert(&self, block: u64, held: HeldBlock) {
        let shard = &mut *self.shard(block);
        if let Entry::Vacant(slot) = shard.blocks.entry(block) {
            slot.insert(held);
            shard.fifo.push_back(block);
            if shard.fifo.len() > self.capacity_per_shard {
                if let Some(evict) = shard.fifo.pop_front() {
                    shard.blocks.remove(&evict);
                }
            }
        }
    }
}

/// Cumulative I/O counters for one [`SemGraph`]: the same type a
/// metrics snapshot carries as its `io` section.
pub use asyncgt_obs::IoStats;

/// Per-chunk sums for the edge region, loaded at open from the file's
/// checksum table (when present and verifiable at this block size).
struct EdgeChecksums {
    chunk: u64,
    sums: Vec<u64>,
}

/// Everything the read path needs, shared between the owning
/// [`SemGraph`] and the prefetch pool's worker threads behind one `Arc`:
/// the file handle, the in-memory vertex index, the block cache, and the
/// I/O counters — the only place I/O events are counted.
pub(crate) struct IoCore {
    file: File,
    header: SemHeader,
    offsets: Vec<u64>,
    config: SemConfig,
    cache: Option<BlockCache>,
    edge_sums: Option<EdgeChecksums>,
    /// Process-unique id keying the per-thread staging area used by the
    /// cache-less scheduler, so blocks staged for one graph are never
    /// served to another.
    graph_id: u64,
    adjacency_reads: AtomicU64,
    block_fetches: AtomicU64,
    bytes_read: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    retries: AtomicU64,
    faults_absorbed: AtomicU64,
    faults_fatal: AtomicU64,
    blocks_coalesced: AtomicU64,
    reads_merged: AtomicU64,
    readahead_hits: AtomicU64,
}

/// A semi-external CSR graph: offsets in memory, edges on storage.
pub struct SemGraph {
    core: Arc<IoCore>,
    /// Prefetch pool issuing coalesced scheduler runs concurrently;
    /// present iff `config.prefetch_threads > 0`.
    pool: Option<PrefetchPool>,
}

/// Source of process-unique graph ids for the staging area. Starts at 1
/// so a fresh (zeroed) staging slot never matches any graph.
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

impl SemGraph {
    /// Open a SEM CSR file with default configuration.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StorageError> {
        Self::open_with(path, SemConfig::default())
    }

    /// Open a SEM CSR file with explicit configuration.
    ///
    /// Validates the header (CRC + structure), the file length, the
    /// offsets array (monotonicity + checksum), and loads the edge-region
    /// checksum table — truncated or corrupt files are rejected here with
    /// a typed [`StorageError`] rather than failing mid-traversal.
    ///
    /// # Example: opening under fault injection
    ///
    /// Transient device faults are absorbed by the retry loop; the
    /// traversal sees clean adjacency data and the absorbed faults show
    /// up only in [`SemGraph::io_stats`].
    ///
    /// ```
    /// use asyncgt_graph::GraphBuilder;
    /// use asyncgt_storage::reader::SemConfig;
    /// use asyncgt_storage::{write_sem_graph, FaultPlan, FaultyDevice, SemGraph};
    /// use std::sync::Arc;
    ///
    /// let g = GraphBuilder::from_edges(3, vec![(0, 1, 1), (1, 2, 1)], true).build::<u32>();
    /// let path = std::env::temp_dir().join("asyncgt_doc_faulty.agt");
    /// write_sem_graph(&path, &g).unwrap();
    ///
    /// let cfg = SemConfig {
    ///     faults: Some(Arc::new(FaultyDevice::new(FaultPlan::transient(7, 0.5)))),
    ///     ..SemConfig::default()
    /// };
    /// let sem = SemGraph::open_with(&path, cfg).unwrap();
    /// let mut neighbors = Vec::new();
    /// sem.try_for_each_neighbor(1, |t, _w| neighbors.push(t)).unwrap();
    /// assert_eq!(neighbors, [2]);
    /// ```
    pub fn open_with<P: AsRef<Path>>(path: P, config: SemConfig) -> Result<Self, StorageError> {
        if config.block_size == 0 {
            return Err(StorageError::Permanent {
                detail: "block_size must be positive".to_string(),
            });
        }
        let mut file = File::open(path)?;
        let mut hbuf = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut hbuf)?;
        let header = SemHeader::decode(&hbuf)?;

        let actual_len = file.metadata()?.len();
        let expect = header.total_file_len();
        if actual_len < expect {
            return Err(StorageError::Corrupt {
                vertex: None,
                offset: actual_len,
                detail: format!("file truncated: {actual_len} bytes, header implies {expect}"),
            });
        }

        // Load the in-memory vertex index.
        file.seek(SeekFrom::Start(header.offsets_pos))?;
        let n = header.num_vertices as usize;
        let mut raw = vec![0u8; (n + 1) * 8];
        file.read_exact(&mut raw)?;
        let bad_offsets = |detail: &str| StorageError::Corrupt {
            vertex: None,
            offset: header.offsets_pos,
            detail: detail.to_string(),
        };
        let offsets: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if offsets[0] != 0 || offsets[n] != header.num_edges {
            return Err(bad_offsets(
                "offsets array inconsistent with header edge count",
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad_offsets("offsets array not non-decreasing"));
        }

        // Load and cross-check the checksum table.
        let mut edge_sums = None;
        if header.has_checksums() {
            let mut table = vec![0u8; header.checksum_table_len() as usize];
            file.read_exact_at(&mut table, header.checksum_pos)?;
            let mut entries = table
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()));
            let offsets_sum = entries
                .next()
                .expect("table holds at least the offsets sum");
            if offsets_sum != chunk_sum(&raw) {
                return Err(bad_offsets("offsets array checksum mismatch"));
            }
            // Per-chunk verification needs block boundaries to land on
            // chunk boundaries; at other block sizes the table is ignored
            // (open-time checks above still apply).
            if config.verify_checksums
                && config
                    .block_size
                    .is_multiple_of(header.checksum_chunk as usize)
            {
                edge_sums = Some(EdgeChecksums {
                    chunk: header.checksum_chunk as u64,
                    sums: entries.collect(),
                });
            }
        }

        let cache = (config.cache_blocks > 0).then(|| BlockCache::new(config.cache_blocks));
        let prefetch_threads = config.prefetch_threads;
        let core = Arc::new(IoCore {
            file,
            header,
            offsets,
            config,
            cache,
            edge_sums,
            graph_id: NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed),
            adjacency_reads: AtomicU64::new(0),
            block_fetches: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            faults_absorbed: AtomicU64::new(0),
            faults_fatal: AtomicU64::new(0),
            blocks_coalesced: AtomicU64::new(0),
            reads_merged: AtomicU64::new(0),
            readahead_hits: AtomicU64::new(0),
        });
        let pool =
            (prefetch_threads > 0).then(|| PrefetchPool::new(Arc::clone(&core), prefetch_threads));
        Ok(SemGraph { core, pool })
    }

    /// The parsed file header.
    pub fn header(&self) -> SemHeader {
        self.core.header
    }

    /// Size of the on-storage edge region in bytes (the paper's
    /// "Size on EM device" column, minus the in-memory index).
    pub fn edge_region_bytes(&self) -> u64 {
        self.core.header.num_edges * self.core.header.record_size()
    }

    /// Snapshot of the I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.core.io_stats()
    }

    /// Iterate the adjacency of `v`, surfacing storage failures as typed
    /// errors instead of panicking — the fallible twin of
    /// [`Graph::for_each_neighbor`], used by abortable traversals.
    ///
    /// A retry-exhausted or non-retryable I/O failure returns
    /// [`StorageError::Transient`]/[`Permanent`](StorageError::Permanent);
    /// on-storage corruption (checksum mismatch, out-of-range edge target)
    /// returns [`StorageError::Corrupt`] tagged with the vertex.
    pub fn try_for_each_neighbor<F: FnMut(Vertex, Weight)>(
        &self,
        v: Vertex,
        mut f: F,
    ) -> Result<(), StorageError> {
        let header = self.core.header;
        ADJ_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            let bytes = self.core.read_adjacency_bytes(v, &mut buf)?;
            let iw = header.index_width as usize;
            let rec = header.record_size() as usize;
            let n = header.num_vertices;
            for (i, chunk) in buf.chunks_exact(rec).enumerate() {
                let target = match iw {
                    4 => u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) as u64,
                    _ => u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")),
                };
                // A target outside the vertex range means on-storage
                // corruption that slipped past (or predates) the checksum
                // table; fail cleanly rather than corrupting traversal
                // state.
                if target >= n {
                    return Err(StorageError::Corrupt {
                        vertex: Some(v),
                        offset: header.edges_pos + bytes.start + (i * rec) as u64,
                        detail: format!("edge target {target} out of range ({n} vertices)"),
                    });
                }
                let weight = if header.weighted {
                    u32::from_le_bytes(chunk[iw..iw + 4].try_into().expect("4 bytes"))
                } else {
                    1
                };
                f(target, weight);
            }
            Ok(())
        })
    }

    /// Stage the blocks covering the adjacency lists of `vertices`: the
    /// I/O scheduler's entry point, normally reached through
    /// [`Graph::prefetch_adjacency`] from a traversal worker's batch
    /// drain.
    ///
    /// The demanded block set is deduplicated, merged into runs of
    /// consecutive blocks, extended by the configured readahead, and
    /// issued concurrently via the prefetch pool (inline when
    /// `prefetch_threads == 0`). Validated blocks land in the shared
    /// cache, or — with the cache disabled — in a per-thread staging area
    /// consumed by this thread's subsequent demand reads. Purely
    /// advisory: blocks that fail validation are not staged and no fault
    /// is booked here; the demand read replays the identical fault
    /// schedule with full retry accounting.
    pub fn prefetch_adjacency(&self, vertices: &[Vertex]) {
        let core = &self.core;
        let mut blocks: Vec<u64> = vertices.iter().flat_map(|&v| core.extent(v).1).collect();
        blocks.sort_unstable();
        blocks.dedup();
        core.drop_held(&mut blocks);
        if blocks.is_empty() {
            return;
        }

        let runs = plan_runs(&blocks, core.config.readahead as u64, core.num_blocks());
        for run in &runs {
            core.blocks_coalesced
                .fetch_add(run.demand - 1, Ordering::Relaxed);
            if run.demand >= 2 {
                core.reads_merged.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(sink) = &core.config.metrics {
                sink.sched_run(run.total);
            }
        }
        if let Some(sink) = &core.config.metrics {
            sink.sched_batch(runs.len() as u64);
        }

        let results: Vec<StagedRun> = match &self.pool {
            Some(pool) if runs.len() > 1 => pool.read_runs(&runs),
            _ => runs.iter().map(|r| (*r, core.read_run(r))).collect(),
        };
        for (run, staged) in results {
            for (block, data) in staged {
                let readahead = block >= run.demand_end();
                core.hold(block, HeldBlock { data, readahead });
            }
        }
    }
}

/// One block's check result: its bytes, or the error that rejected them.
type Checked = Result<Arc<[u8]>, StorageError>;

impl IoCore {
    /// Snapshot of the I/O counters.
    fn io_stats(&self) -> IoStats {
        IoStats {
            adjacency_reads: self.adjacency_reads.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            block_fetches: self.block_fetches.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            faults_absorbed: self.faults_absorbed.load(Ordering::Relaxed),
            faults_fatal: self.faults_fatal.load(Ordering::Relaxed),
            blocks_coalesced: self.blocks_coalesced.load(Ordering::Relaxed),
            reads_merged: self.reads_merged.load(Ordering::Relaxed),
            readahead_hits: self.readahead_hits.load(Ordering::Relaxed),
        }
    }

    /// Number of blocks in the edge region (the readahead clamp).
    fn num_blocks(&self) -> u64 {
        let edge_bytes = self.header.expected_file_len() - self.header.edges_pos;
        edge_bytes.div_ceil(self.config.block_size as u64)
    }

    /// Where the adjacency of `v` lies: its byte range within the edge
    /// region, and the range of blocks covering it (empty when `v` has
    /// no edges).
    fn extent(&self, v: Vertex) -> (Range<u64>, Range<u64>) {
        let rec = self.header.record_size();
        let bytes = self.offsets[v as usize] * rec..self.offsets[v as usize + 1] * rec;
        let bs = self.config.block_size as u64;
        let blocks = if bytes.is_empty() {
            0..0
        } else {
            bytes.start / bs..(bytes.end - 1) / bs + 1
        };
        (bytes, blocks)
    }

    /// Remove from a batch's sorted demand list every block already held.
    /// With the cache off this also releases the staged blocks the batch
    /// no longer demands (unused readahead it demands again stays), so
    /// staging holds at most one batch's worth of blocks per thread.
    fn drop_held(&self, blocks: &mut Vec<u64>) {
        match &self.cache {
            Some(cache) => blocks.retain(|&b| !cache.shard(b).blocks.contains_key(&b)),
            None => STAGING.with_borrow_mut(|st| {
                if st.graph != self.graph_id {
                    st.graph = self.graph_id;
                    st.blocks.clear();
                }
                st.blocks.retain(|b, _| blocks.binary_search(b).is_ok());
                blocks.retain(|b| !st.blocks.contains_key(b));
            }),
        }
    }

    /// Hold a prefetched block for this graph's adjacency reads: in the
    /// cache, or — with the cache off — in this thread's staging area.
    fn hold(&self, block: u64, held: HeldBlock) {
        match &self.cache {
            Some(cache) => cache.insert(block, held),
            None => STAGING.with_borrow_mut(|st| {
                st.blocks.entry(block).or_insert(held);
            }),
        }
    }

    /// The bytes of a held block. Its first use books a readahead hit if
    /// the scheduler read it speculatively.
    fn use_held(&self, held: &mut HeldBlock) -> Arc<[u8]> {
        if std::mem::take(&mut held.readahead) {
            self.readahead_hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(&held.data)
    }

    /// Serve `block` to an adjacency read: from the cache, else from this
    /// thread's staging area, else from the device. Cache hits and misses
    /// are counted only when a cache exists; staging is not a cache.
    fn serve_block(&self, block: u64) -> Checked {
        let held = match &self.cache {
            Some(cache) => {
                let hit = cache
                    .shard(block)
                    .blocks
                    .get_mut(&block)
                    .map(|h| self.use_held(h));
                match hit {
                    Some(_) => &self.cache_hits,
                    None => &self.cache_misses,
                }
                .fetch_add(1, Ordering::Relaxed);
                hit
            }
            None => STAGING.with_borrow_mut(|st| {
                if st.graph != self.graph_id {
                    return None;
                }
                st.blocks.get_mut(&block).map(|h| self.use_held(h))
            }),
        };
        if let Some(data) = held {
            return Ok(data);
        }
        let data = self.fetch_block(block)?;
        if let Some(cache) = &self.cache {
            let held = HeldBlock {
                data: Arc::clone(&data),
                readahead: false,
            };
            cache.insert(block, held);
        }
        Ok(data)
    }

    /// Read one scheduler run and keep the blocks that passed their
    /// checks. Failures are silent — no fault counters, no error —
    /// because the demand path replays the identical fault schedule with
    /// full retry accounting.
    pub(crate) fn read_run(&self, run: &BlockRun) -> Vec<(u64, Arc<[u8]>)> {
        let checked = self
            .read_blocks(run.start, run.total, 0)
            .unwrap_or_default();
        (run.start..)
            .zip(checked)
            .filter_map(|(block, data)| Some((block, data.ok()?)))
            .collect()
    }

    /// Read one block (by index within the edge region) from storage,
    /// retrying retryable failures per the configured [`RetryPolicy`].
    ///
    /// Retry accounting: `retries` counts re-issued reads; a read that
    /// eventually succeeds books its failed attempts as `faults_absorbed`
    /// (the traversal never saw them); a read that exhausts the budget —
    /// or fails non-retryably — books one `faults_fatal` and surfaces the
    /// error, which aborts the traversal.
    fn fetch_block(&self, block: u64) -> Checked {
        let policy = &self.config.retry;
        let mut attempt: u32 = 0;
        // The clock only starts at the first failure: the fault-free fast
        // path takes no timestamp.
        let mut first_failure: Option<Instant> = None;
        loop {
            let read = self
                .read_blocks(block, 1, attempt)
                .and_then(|mut checked| checked.pop().expect("one result per block read"));
            match read {
                Ok(data) => {
                    if attempt > 0 {
                        self.faults_absorbed
                            .fetch_add(attempt as u64, Ordering::Relaxed);
                        if let Some(sink) = &self.config.metrics {
                            sink.io_retry(
                                first_failure.map_or(0, |t| t.elapsed().as_nanos() as u64),
                            );
                        }
                    }
                    return Ok(data);
                }
                Err(e) => {
                    let first = *first_failure.get_or_insert_with(Instant::now);
                    let exhausted = attempt + 1 >= policy.max_attempts.max(1)
                        || first.elapsed() >= policy.deadline;
                    if !e.is_retryable() || exhausted {
                        self.faults_fatal.fetch_add(1, Ordering::Relaxed);
                        return Err(e.with_attempts(attempt + 1));
                    }
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let nonce = block
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(attempt as u64);
                    // Clamp the backoff to the time left before the
                    // deadline: sleeping past it would overshoot the
                    // budget by up to a full (jittered) backoff period.
                    let remaining = policy.deadline.saturating_sub(first.elapsed());
                    std::thread::sleep(policy.backoff(attempt, nonce).min(remaining));
                }
            }
        }
    }

    /// The one read of the edge region: blocks `first..first + count` in
    /// a single positioned read, then each block checked on its own —
    /// fault injection at `attempt` (if configured), the short-read check,
    /// the checksum. The outer error is a failed read; otherwise each
    /// block carries its own result. `block_fetches`, `bytes_read` and one
    /// latency sample are booked once, iff at least one block passed, so
    /// the stats match the data the traversal can consume.
    fn read_blocks(
        &self,
        first: u64,
        count: u64,
        attempt: u32,
    ) -> Result<Vec<Checked>, StorageError> {
        let bs = self.config.block_size as u64;
        let start = self.header.edges_pos + first * bs;
        let file_len = self.header.expected_file_len();
        let len = (count * bs).min(file_len.saturating_sub(start)) as usize;
        let mut buf = vec![0u8; len];
        let read_start = self.config.metrics.as_ref().map(|_| Instant::now());
        match &self.config.device {
            Some(dev) => dev.read(|| self.file.read_exact_at(&mut buf, start))?,
            None => self.file.read_exact_at(&mut buf, start)?,
        }
        let checked: Vec<Checked> = (first..)
            .zip(buf.chunks(bs as usize))
            .map(|(block, raw)| self.check_block(block, attempt, raw))
            .collect();
        if checked.iter().any(Result::is_ok) {
            if let (Some(sink), Some(t0)) = (&self.config.metrics, read_start) {
                sink.io_read(t0.elapsed().as_nanos() as u64);
            }
            self.block_fetches.fetch_add(1, Ordering::Relaxed);
            self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        }
        Ok(checked)
    }

    /// Check one block's bytes as read: apply the fault schedule, reject a
    /// short read, and verify every checksum chunk the block covers
    /// (`block_size` is a multiple of the chunk size whenever `edge_sums`
    /// is loaded, so chunks never straddle blocks).
    fn check_block(&self, block: u64, attempt: u32, raw: &[u8]) -> Checked {
        let data: Arc<[u8]> = match &self.config.faults {
            None => raw.into(),
            Some(faults) => {
                let mut piece = raw.to_vec();
                faults.inject(block, attempt, &mut piece)?;
                piece.into()
            }
        };
        if data.len() < raw.len() {
            return Err(StorageError::Transient {
                detail: format!(
                    "short read at block {block}: got {} of {} bytes",
                    data.len(),
                    raw.len()
                ),
                attempts: 0,
            });
        }
        if let Some(cs) = &self.edge_sums {
            let start = self.header.edges_pos + block * self.config.block_size as u64;
            let base = (block * self.config.block_size as u64 / cs.chunk) as usize;
            for (i, piece) in data.chunks(cs.chunk as usize).enumerate() {
                if cs.sums.get(base + i).copied() != Some(chunk_sum(piece)) {
                    return Err(StorageError::Corrupt {
                        vertex: None,
                        offset: start + i as u64 * cs.chunk,
                        detail: format!("edge-chunk checksum mismatch (chunk {})", base + i),
                    });
                }
            }
        }
        Ok(data)
    }

    /// Copy the raw adjacency bytes of `v` into `out` (cleared first) and
    /// return their byte range within the edge region.
    fn read_adjacency_bytes(
        &self,
        v: Vertex,
        out: &mut Vec<u8>,
    ) -> Result<Range<u64>, StorageError> {
        out.clear();
        let (bytes, blocks) = self.extent(v);
        if bytes.is_empty() {
            return Ok(bytes);
        }
        self.adjacency_reads.fetch_add(1, Ordering::Relaxed);
        out.reserve((bytes.end - bytes.start) as usize);
        let bs = self.config.block_size as u64;
        for block in blocks {
            let data = self.serve_block(block).map_err(|e| e.with_vertex(v))?;
            let block_start = block * bs;
            let s = bytes.start.max(block_start) - block_start;
            let e = bytes.end.min(block_start + data.len() as u64) - block_start;
            out.extend_from_slice(&data[s as usize..e as usize]);
        }
        Ok(bytes)
    }
}

/// Per-thread staging area for the cache-less I/O scheduler. Keyed by the
/// process-unique graph id: traversal workers only ever prefetch for the
/// graph they are traversing, so one slot per thread suffices.
struct Staging {
    graph: u64,
    blocks: HashMap<u64, HeldBlock>,
}

thread_local! {
    /// Per-thread adjacency staging buffer; reused across reads so the SEM
    /// hot path performs no allocation.
    static ADJ_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };

    /// Blocks staged by [`SemGraph::prefetch_adjacency`] when the shared
    /// cache is disabled (graph id 0 matches no graph; see
    /// `NEXT_GRAPH_ID`).
    static STAGING: RefCell<Staging> = RefCell::new(Staging {
        graph: 0,
        blocks: HashMap::new(),
    });
}

impl Graph for SemGraph {
    fn num_vertices(&self) -> u64 {
        self.core.header.num_vertices
    }

    fn num_edges(&self) -> u64 {
        self.core.header.num_edges
    }

    fn out_degree(&self, v: Vertex) -> u64 {
        self.core.offsets[v as usize + 1] - self.core.offsets[v as usize]
    }

    /// Infallible adjacency iteration for callers that cannot abort (the
    /// in-memory-compatible [`Graph`] surface). Storage failures panic;
    /// abortable traversals use [`Graph::try_for_each_neighbor`] instead.
    fn for_each_neighbor<F: FnMut(Vertex, Weight)>(&self, v: Vertex, f: F) {
        SemGraph::try_for_each_neighbor(self, v, f)
            .unwrap_or_else(|e| panic!("SEM adjacency read failed for vertex {v}: {e}"));
    }

    fn try_for_each_neighbor<F: FnMut(Vertex, Weight)>(
        &self,
        v: Vertex,
        f: F,
    ) -> Result<(), NeighborError> {
        SemGraph::try_for_each_neighbor(self, v, f).map_err(|e| Box::new(e) as NeighborError)
    }

    fn is_weighted(&self) -> bool {
        self.core.header.weighted
    }

    fn prefetch_adjacency(&self, vertices: &[Vertex]) {
        SemGraph::prefetch_adjacency(self, vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::writer::write_sem_graph;
    use asyncgt_graph::{CsrGraph, GraphBuilder};
    use std::time::Duration;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("asyncgt_reader_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_graph() -> CsrGraph<u32> {
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
    fn round_trip_matches_in_memory() {
        let g = sample_graph();
        let path = tmp("round_trip.agt");
        write_sem_graph(&path, &g).unwrap();
        let sem = SemGraph::open(&path).unwrap();

        assert_eq!(sem.num_vertices(), g.num_vertices());
        assert_eq!(sem.num_edges(), g.num_edges());
        assert!(sem.is_weighted());
        for v in 0..g.num_vertices() {
            let mut mem = Vec::new();
            g.for_each_neighbor(v, |t, w| mem.push((t, w)));
            let mut dsk = Vec::new();
            sem.for_each_neighbor(v, |t, w| dsk.push((t, w)));
            assert_eq!(mem, dsk, "vertex {v}");
            assert_eq!(sem.out_degree(v), g.out_degree(v));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn u64_indices_round_trip() {
        let g: CsrGraph<u64> = GraphBuilder::new(3).add_edge(0, 2).add_edge(2, 1).build();
        let path = tmp("u64.agt");
        write_sem_graph(&path, &g).unwrap();
        let sem = SemGraph::open(&path).unwrap();
        assert_eq!(sem.header().index_width, 8);
        assert_eq!(sem.neighbors(0), vec![2]);
        assert_eq!(sem.neighbors(2), vec![1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_file() {
        let g = sample_graph();
        let path = tmp("trunc.agt");
        write_sem_graph(&path, &g).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert!(SemGraph::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_zero_block_size() {
        let path = tmp("zero_block.agt");
        write_sem_graph(&path, &sample_graph()).unwrap();
        let cfg = SemConfig {
            block_size: 0,
            ..SemConfig::default()
        };
        let err = SemGraph::open_with(&path, cfg).err().unwrap();
        assert!(matches!(err, StorageError::Permanent { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupt_offsets() {
        let g = sample_graph();
        let path = tmp("corrupt.agt");
        write_sem_graph(&path, &g).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Stomp the second offsets entry with a huge value.
        bytes[72..80].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(SemGraph::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_hits_on_repeated_access() {
        let g = sample_graph();
        let path = tmp("cache.agt");
        write_sem_graph(&path, &g).unwrap();
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 4096,
                cache_blocks: 16,
                device: None,
                metrics: None,
                ..SemConfig::default()
            },
        )
        .unwrap();
        for _ in 0..3 {
            for v in 0..5 {
                sem.for_each_neighbor(v, |_, _| {});
            }
        }
        let s = sem.io_stats();
        // The whole edge region fits one block: 1 miss, the rest hits.
        assert_eq!(s.cache_misses, 1);
        assert!(s.cache_hits >= 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_cache_mode_reads_every_time() {
        let g = sample_graph();
        let path = tmp("nocache.agt");
        write_sem_graph(&path, &g).unwrap();
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 4096,
                cache_blocks: 0,
                device: None,
                metrics: None,
                ..SemConfig::default()
            },
        )
        .unwrap();
        for v in 0..5 {
            sem.for_each_neighbor(v, |_, _| {});
        }
        let s = sem.io_stats();
        // No cache → no cache statistics, only device reads.
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
        assert!(s.block_fetches > 0);
        assert!(s.bytes_read > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_backoff_clamped_to_deadline() {
        use crate::fault::{FaultPlan, FaultyDevice};
        use crate::retry::RetryPolicy;

        let g = sample_graph();
        let path = tmp("deadline_clamp.agt");
        write_sem_graph(&path, &g).unwrap();
        // Every attempt faults (unbounded bursts), and each backoff alone
        // dwarfs the deadline. An unclamped sleep would overshoot to
        // ~base_backoff; the clamp caps the whole loop near the deadline.
        let plan = FaultPlan {
            max_consecutive: u32::MAX,
            short_read: false,
            bit_flip: false,
            ..FaultPlan::transient(11, 1.0)
        };
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 4096,
                cache_blocks: 0,
                faults: Some(Arc::new(FaultyDevice::new(plan))),
                retry: RetryPolicy {
                    max_attempts: 100,
                    base_backoff: Duration::from_secs(10),
                    max_backoff: Duration::from_secs(10),
                    deadline: Duration::from_millis(50),
                },
                ..SemConfig::default()
            },
        )
        .unwrap();
        let t0 = Instant::now();
        let err = sem.try_for_each_neighbor(0, |_, _| {}).unwrap_err();
        let elapsed = t0.elapsed();
        assert!(matches!(err, StorageError::Transient { .. }), "{err}");
        assert!(
            elapsed < Duration::from_secs(5),
            "backoff must be clamped to the deadline, took {elapsed:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn device_charged_per_block_miss() {
        let g = sample_graph();
        let path = tmp("dev.agt");
        write_sem_graph(&path, &g).unwrap();
        let dev = Arc::new(SimulatedFlash::new(DeviceModel {
            name: "test",
            channels: 2,
            service_time: Duration::from_micros(50),
        }));
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 4096,
                cache_blocks: 8,
                device: Some(dev.clone()),
                metrics: None,
                ..SemConfig::default()
            },
        )
        .unwrap();
        for _ in 0..4 {
            for v in 0..5 {
                sem.for_each_neighbor(v, |_, _| {});
            }
        }
        assert_eq!(dev.total_reads(), 1, "cache must absorb repeats");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn small_blocks_span_adjacency() {
        // Force adjacency lists to straddle block boundaries.
        let mut b = GraphBuilder::new(64);
        for v in 0..63u64 {
            for t in 0..64u64 {
                if t != v {
                    b = b.add_edge(v, t);
                }
            }
        }
        let g: CsrGraph<u32> = b.build();
        let path = tmp("span.agt");
        write_sem_graph(&path, &g).unwrap();
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 64, // 16 records per block
                cache_blocks: 4,
                device: None,
                metrics: None,
                ..SemConfig::default()
            },
        )
        .unwrap();
        for v in 0..64 {
            assert_eq!(sem.neighbors(v), g.neighbors(v), "vertex {v}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_edge_target_detected_at_read() {
        let g = sample_graph();
        let path = tmp("corrupt_target.agt");
        let header = write_sem_graph(&path, &g).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Stomp the first edge record's target with an out-of-range id.
        let pos = header.edges_pos as usize;
        bytes[pos..pos + 4].copy_from_slice(&999u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        // Infallible surface: panics (never yields the corrupt target).
        let sem = SemGraph::open(&path).unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sem.neighbors(0)));
        assert!(res.is_err(), "corrupt target must not be returned");

        // Fallible surface: typed error, caught by the checksum table.
        let err = sem.try_for_each_neighbor(0, |_, _| {}).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");

        // Even with checksum verification off, the out-of-range target
        // itself is rejected — tagged with the vertex it belongs to.
        let cfg = SemConfig {
            verify_checksums: false,
            ..SemConfig::default()
        };
        let sem = SemGraph::open_with(&path, cfg).unwrap();
        let err = sem.try_for_each_neighbor(0, |_, _| {}).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::Corrupt {
                    vertex: Some(0),
                    ..
                }
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        use crate::fault::{FaultPlan, FaultyDevice};
        use crate::retry::RetryPolicy;

        let g = sample_graph();
        let path = tmp("transient_faults.agt");
        write_sem_graph(&path, &g).unwrap();
        // Every block faults (rate 1.0) with bursts of at most 2 — under
        // the 4-attempt budget every fault must be absorbed.
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 4096,
                cache_blocks: 0,
                faults: Some(Arc::new(FaultyDevice::new(FaultPlan::transient(42, 1.0)))),
                retry: RetryPolicy {
                    base_backoff: Duration::from_micros(1),
                    ..RetryPolicy::default()
                },
                ..SemConfig::default()
            },
        )
        .unwrap();
        for v in 0..g.num_vertices() {
            let mut mem = Vec::new();
            g.for_each_neighbor(v, |t, w| mem.push((t, w)));
            let mut dsk = Vec::new();
            sem.try_for_each_neighbor(v, |t, w| dsk.push((t, w)))
                .unwrap();
            assert_eq!(mem, dsk, "vertex {v}");
        }
        let s = sem.io_stats();
        assert!(s.retries > 0, "rate-1.0 schedule must trigger retries");
        assert!(s.faults_absorbed > 0);
        assert_eq!(
            s.faults_fatal, 0,
            "transient schedule must be fully absorbed"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn permanent_fault_surfaces_without_retry() {
        use crate::fault::{FaultPlan, FaultyDevice};

        let g = sample_graph();
        let path = tmp("permanent_fault.agt");
        write_sem_graph(&path, &g).unwrap();
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 4096,
                cache_blocks: 0,
                faults: Some(Arc::new(FaultyDevice::new(FaultPlan::permanent(7, 1.0)))),
                ..SemConfig::default()
            },
        )
        .unwrap();
        let err = sem.try_for_each_neighbor(0, |_, _| {}).unwrap_err();
        assert!(matches!(err, StorageError::Permanent { .. }), "{err}");
        let s = sem.io_stats();
        assert_eq!(s.retries, 0, "permanent errors are not retried");
        assert!(s.faults_fatal >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_catches_weight_corruption_decode_cannot() {
        let g = sample_graph();
        let path = tmp("weight_corrupt.agt");
        let header = write_sem_graph(&path, &g).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Stomp a *weight* byte: targets stay in range, so structural
        // decode alone would silently yield a wrong shortest-path input.
        let pos = header.edges_pos as usize + header.index_width as usize;
        bytes[pos] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let sem = SemGraph::open(&path).unwrap();
        let err = sem.try_for_each_neighbor(0, |_, _| {}).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");

        // With verification off the corruption is invisible — that is the
        // gap the checksum table exists to close.
        let cfg = SemConfig {
            verify_checksums: false,
            ..SemConfig::default()
        };
        let sem = SemGraph::open_with(&path, cfg).unwrap();
        assert!(sem.try_for_each_neighbor(0, |_, _| {}).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_file_without_checksums_still_opens() {
        let g = sample_graph();
        let path = tmp("legacy.agt");
        let header = write_sem_graph(&path, &g).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Rewrite as a pre-checksum file: zero the checksum header fields
        // (including the CRC) and strip the trailing table.
        bytes[48..64].fill(0);
        bytes.truncate(header.expected_file_len() as usize);
        std::fs::write(&path, &bytes).unwrap();

        let sem = SemGraph::open(&path).unwrap();
        assert!(!sem.header().has_checksums());
        for v in 0..g.num_vertices() {
            let mut mem = Vec::new();
            g.for_each_neighbor(v, |t, w| mem.push((t, w)));
            let mut dsk = Vec::new();
            sem.try_for_each_neighbor(v, |t, w| dsk.push((t, w)))
                .unwrap();
            assert_eq!(mem, dsk, "vertex {v}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_sink_sees_reads_and_cache_traffic() {
        use asyncgt_obs::ShardedRecorder;

        let g = sample_graph();
        let path = tmp("metrics_sink.agt");
        write_sem_graph(&path, &g).unwrap();
        let rec = Arc::new(ShardedRecorder::new(1));
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 4096,
                cache_blocks: 16,
                device: None,
                metrics: Some(rec.clone()),
                ..SemConfig::default()
            },
        )
        .unwrap();
        for _ in 0..3 {
            for v in 0..5 {
                sem.for_each_neighbor(v, |_, _| {});
            }
        }
        let io = sem.io_stats();
        let snap = rec.snapshot();
        assert!(io.cache_hits > 0, "repeated access must hit the cache");
        // Without a scheduler in play every miss is one device read.
        assert_eq!(io.block_fetches, io.cache_misses);
        // One latency sample per device read the graph counted.
        let lat = snap.histograms.get(asyncgt_obs::HistKind::ReadLatencyNs);
        assert_eq!(lat.count, io.block_fetches);
        assert!(lat.sum > 0, "read latency must be measured");
        std::fs::remove_file(&path).ok();
    }

    /// A chain `v → v + 1` over `n` vertices in 64-byte blocks: 16 edge
    /// records per block, so vertex `v`'s adjacency lies in block `v / 16`.
    fn chain_sem(name: &str, n: u64, config: SemConfig) -> SemGraph {
        let g: CsrGraph<u32> =
            GraphBuilder::from_edges(n, (0..n - 1).map(|v| (v, v + 1, 1)).collect(), false).build();
        let path = tmp(name);
        write_sem_graph(&path, &g).unwrap();
        let sem = SemGraph::open_with(
            &path,
            SemConfig {
                block_size: 64,
                ..config
            },
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        sem
    }

    #[test]
    fn readahead_block_books_one_hit_on_first_use() {
        for cache_blocks in [64, 0] {
            let sem = chain_sem(
                &format!("readahead_once_{cache_blocks}.agt"),
                2000,
                SemConfig {
                    cache_blocks,
                    readahead: 1,
                    ..SemConfig::default()
                },
            );
            // Demands block 0 and reads block 1 ahead.
            sem.prefetch_adjacency(&[0]);
            for v in [0, 16, 17, 18] {
                assert_eq!(sem.neighbors(v), vec![v + 1]);
            }
            let io = sem.io_stats();
            assert_eq!(io.readahead_hits, 1, "cache_blocks={cache_blocks}");
            assert_eq!(io.block_fetches, 1, "cache_blocks={cache_blocks}");
        }
    }

    #[test]
    fn readahead_block_evicted_before_use_books_no_hit() {
        // One block per cache shard: block 65 evicts block 1 (same shard).
        let sem = chain_sem(
            "readahead_evicted.agt",
            2000,
            SemConfig {
                cache_blocks: 1,
                readahead: 1,
                ..SemConfig::default()
            },
        );
        sem.prefetch_adjacency(&[0]);
        // Vertex 1040 lies in block 65; 16 and 17 in block 1, which is
        // read again on demand and then hit.
        for v in [1040, 16, 17] {
            assert_eq!(sem.neighbors(v), vec![v + 1]);
        }
        let io = sem.io_stats();
        assert_eq!((io.cache_misses, io.cache_hits), (2, 1));
        assert_eq!(io.readahead_hits, 0, "the readahead block was never used");
    }

    #[test]
    fn prefetch_pool_overlaps_its_runs() {
        let dev = Arc::new(SimulatedFlash::new(DeviceModel {
            name: "slow",
            channels: 4,
            service_time: Duration::from_millis(50),
        }));
        let sem = chain_sem(
            "pool_overlap.agt",
            2000,
            SemConfig {
                cache_blocks: 0,
                device: Some(dev.clone()),
                prefetch_threads: 4,
                ..SemConfig::default()
            },
        );
        // Blocks 0, 2, 4 and 6: four runs, one read each. Read one after
        // another they would take at least 200 ms.
        let t0 = Instant::now();
        sem.prefetch_adjacency(&[0, 32, 64, 96]);
        let elapsed = t0.elapsed();
        assert_eq!(dev.total_reads(), 4);
        assert!(
            elapsed < Duration::from_millis(150),
            "the pool must issue its runs concurrently, took {elapsed:?}"
        );
    }

    #[test]
    fn empty_adjacency_does_no_io() {
        let g: CsrGraph<u32> = GraphBuilder::new(3).add_edge(0, 1).build();
        let path = tmp("empty_adj.agt");
        write_sem_graph(&path, &g).unwrap();
        let sem = SemGraph::open(&path).unwrap();
        sem.for_each_neighbor(2, |_, _| panic!("vertex 2 has no edges"));
        assert_eq!(sem.io_stats().adjacency_reads, 0);
        std::fs::remove_file(&path).ok();
    }
}
