//! Comparator implementations for the `asyncgt` experimental study.
//!
//! The paper compares its asynchronous traversals against four libraries;
//! we reimplement the algorithm class each one represents:
//!
//! | paper comparator | role | our stand-in |
//! |---|---|---|
//! | BGL (serial Boost Graph Library) | "efficient serial baseline to compute speedup" | [`serial::bfs`], [`serial::dijkstra`], [`serial::connected_components`] |
//! | MTGL / SNAP (shared-memory parallel) | level-synchronous parallel traversal with barriers between levels/rounds | [`level_sync::bfs`], [`level_sync::connected_components`] |
//! | PBGL (distributed memory) | out of scope on one node; harnesses print `n/a` | — |
//!
//! [`union_find`] provides a second serial CC algorithm (the classic
//! disjoint-set formulation) and [`delta_stepping`] a bucketed parallel
//! SSSP — both used by the ablation benches to position the asynchronous
//! approach against stronger baselines than the paper used.

pub mod delta_stepping;
pub mod level_sync;
pub mod serial;
pub mod union_find;
