//! Semi-external-memory (SEM) substrate for `asyncgt`.
//!
//! The paper defines a semi-external graph as "having enough memory to store
//! algorithmic information about the vertices but not edges. The entire
//! graph structure is stored on the persistent storage device, and the
//! visitor queues and the output of the algorithm are stored in main
//! memory." This crate provides:
//!
//! * [`format`](mod@format) / [`writer`] — an on-disk CSR file format ("custom
//!   file-based storage implementing a compressed sparse row") and a writer
//!   that serializes any in-memory [`CsrGraph`](asyncgt_graph::CsrGraph).
//! * [`SemGraph`] — the reader: the vertex index (offsets) lives in RAM,
//!   adjacency lists are fetched on demand with positioned reads
//!   ("explicit POSIX standard I/O access"), one `pread` per visited
//!   vertex.
//! * [`device`] — simulated NAND-flash devices. The paper evaluates three
//!   SSD configurations (FusionIO ≈200k random-read IOPS, Intel X25-M ≈60k,
//!   Corsair P128 ≈30k) whose defining property is that peak IOPS is only
//!   reached when **many threads queue requests concurrently** (paper
//!   Fig. 1). [`SimulatedFlash`] models exactly that: a bounded number of
//!   internal channels, each serving one request per fixed service time.
//! * [`iops`] — the multithreaded random-read microbenchmark that
//!   regenerates Figure 1.
//! * [`error`] / [`retry`] / [`fault`] / [`checksum`] — the fault model:
//!   typed [`StorageError`]s, bounded retry with jittered exponential
//!   backoff, deterministic seed-driven fault injection, and end-to-end
//!   file checksums (header CRC, offsets sum, per-chunk edge sums).
//! * [`io_sched`] — the I/O scheduler: batches of demanded blocks are
//!   deduplicated, merged into runs of consecutive blocks, extended by
//!   optional sequential readahead, and issued concurrently through a
//!   small prefetch pool, turning the visitor queues' semi-sorted access
//!   order into fewer, larger device reads.

#![warn(missing_docs)]

pub mod checksum;
pub mod device;
pub mod error;
pub mod fault;
pub mod format;
pub mod io_sched;
pub mod iops;
pub mod reader;
pub mod retry;
pub mod writer;

pub use device::{DeviceModel, SimulatedFlash};
pub use error::StorageError;
pub use fault::{FaultPlan, FaultyDevice};
pub use format::SemHeader;
pub use io_sched::{plan_runs, BlockRun};
pub use reader::{IoStats, SemConfig, SemGraph};
pub use retry::RetryPolicy;
pub use writer::write_sem_graph;
