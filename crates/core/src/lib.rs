//! # asyncgt — Multithreaded Asynchronous Graph Traversal
//!
//! A Rust implementation of *"Multithreaded Asynchronous Graph Traversal
//! for In-Memory and Semi-External Memory"* (Pearce, Gokhale, Amato;
//! SC 2010): Breadth-First Search, Single-Source Shortest Paths, and
//! Connected Components computed **asynchronously** — no barriers, no
//! per-vertex locks — over prioritized per-thread visitor queues.
//!
//! The same three algorithms run unchanged over:
//!
//! * **in-memory graphs** — [`CsrGraph`], Boost-CSR style;
//! * **semi-external-memory graphs** — [`SemGraph`], where only the vertex
//!   index and algorithm state live in RAM and adjacency lists are fetched
//!   from storage on demand, optionally through a simulated NAND-flash
//!   device (see `asyncgt-storage`).
//!
//! ## Quick start
//!
//! ```
//! use asyncgt::{try_bfs, try_connected_components, Config};
//! use asyncgt::graph::generators::{RmatGenerator, RmatParams};
//!
//! // A small scale-free graph (the paper's RMAT-A parameters).
//! let gen = RmatGenerator::new(RmatParams::RMAT_A, 10, 16, 42);
//! let g = gen.directed();
//!
//! let cfg = Config::with_threads(4);
//! let out = try_bfs(&g, 0, &cfg)?;
//! println!("reached {} vertices in {} levels",
//!          out.reached_count(), out.level_count());
//!
//! let und = gen.undirected();
//! let cc = try_connected_components(&und, &cfg)?;
//! println!("{} components", cc.component_count());
//! # Ok::<(), asyncgt::TraversalError>(())
//! ```
//!
//! Each traversal has one entry point and a `_recorded` twin taking a
//! metrics [`Recorder`](obs::Recorder): [`try_bfs`], [`try_sssp`],
//! [`try_connected_components`]. Every one returns a typed
//! [`TraversalError`] — a bad source, an oversized graph, or a storage
//! failure — instead of panicking. Multi-source and concurrent queries go
//! to a persistent [`TraversalEngine`] ([`with_engine`]).
//!
//! ## Algorithm family
//!
//! All three traversals are **label-correcting** (paper §III): a visitor
//! carries a candidate label (path length, component id); if it improves
//! the vertex's current label the vertex is relaxed and visitors are
//! emitted for its neighbors. Prioritized queues make the traversal
//! *approximately* best-first — "we cannot guarantee that the absolute
//! shortest-path vertex is visited at each step, possibly requiring
//! multiple visits per vertex" — trading redundant visits for the removal
//! of all synchronization.

pub mod bfs;
pub mod cc;
mod config;
pub mod engine;
pub mod error;
pub mod khop;
pub mod result;
pub mod sssp;
pub mod validate;

pub use bfs::{try_bfs, try_bfs_recorded};
pub use cc::{try_connected_components, try_connected_components_recorded, CcOutput};
pub use config::Config;
pub use engine::{with_engine, CcTicket, EngineOpts, PathTicket, TraversalEngine};
pub use error::TraversalError;
pub use khop::{bfs_bounded, khop_ball};
pub use result::{TraversalOutput, TraversalStats};
pub use sssp::{try_sssp, try_sssp_recorded};

/// Re-export of the graph substrate (generators, CSR, I/O, statistics).
pub use asyncgt_graph as graph;
/// Re-export of the observability substrate (recorders, metrics snapshots).
pub use asyncgt_obs as obs;
/// Re-export of the semi-external storage substrate.
pub use asyncgt_storage as storage;
/// Re-export of the visitor-queue runtime.
pub use asyncgt_vq as vq;

pub use asyncgt_graph::{CsrGraph, Graph, Vertex, Weight, INF_DIST, NO_VERTEX};
pub use asyncgt_storage::SemGraph;
