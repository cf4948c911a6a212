//! Graph substrate for the `asyncgt` asynchronous graph-traversal library.
//!
//! This crate provides everything the traversal engine needs from a graph:
//!
//! * [`CsrGraph`] — an in-memory Compressed Sparse Row graph with optional
//!   per-edge weights and a configurable vertex-index width
//!   ([`u32`] or [`u64`], mirroring the paper's 32/64-bit configuration).
//! * [`GraphBuilder`] — constructs CSR graphs from edge lists, with
//!   deduplication and undirected symmetrization.
//! * [`generators`] — RMAT scale-free graphs (the paper's RMAT-A / RMAT-B
//!   parameterizations), a synthetic web-graph model standing in for the
//!   paper's real web crawls, and classic graph families used in tests.
//! * [`weights`] — the paper's uniform (UW) and log-uniform (LUW) edge-weight
//!   distributions.
//! * [`io`] — text and binary edge-list readers/writers.
//! * [`stats`] — degree-distribution and traversal-output statistics used by
//!   the experiment harness (BFS level counts, % visited, component counts).
//!
//! The central abstraction is the [`Graph`] trait, implemented both by
//! [`CsrGraph`] and by the semi-external [`SemGraph`] in `asyncgt-storage`;
//! all traversal algorithms are generic over it.
//!
//! [`SemGraph`]: https://docs.rs/asyncgt-storage

pub mod builder;
pub mod csr;
pub mod generators;
pub mod io;
pub mod relabel;
pub mod stats;
pub mod traits;
pub mod weights;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use traits::{Graph, NeighborError, VertexIndex, WeightedEdgeList};

/// Vertex identifier used at the public API boundary.
///
/// Graphs may store indices as `u32` internally (see [`VertexIndex`]); the
/// API always exchanges `u64` so that algorithms are written once.
pub type Vertex = u64;

/// Edge weight type. The paper's uniform weights span `[0, |V|)`, which fits
/// in 32 bits for every scale evaluated; path *lengths* accumulate in `u64`.
pub type Weight = u32;

/// Sentinel for "no vertex" (unreached parent, unassigned component, …).
///
/// The paper initializes vertex state to `∞`; we use `u64::MAX`.
pub const NO_VERTEX: Vertex = u64::MAX;

/// Sentinel for an infinite (unreached) path length.
pub const INF_DIST: u64 = u64::MAX;
