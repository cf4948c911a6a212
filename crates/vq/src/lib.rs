//! Multithreaded asynchronous visitor-queue runtime — the core contribution
//! of *"Multithreaded Asynchronous Graph Traversal for In-Memory and
//! Semi-External Memory"* (Pearce, Gokhale, Amato; SC 2010).
//!
//! # Model
//!
//! A traversal is expressed as a set of **visitors**: small prioritized work
//! items addressed to a vertex. Executing a visitor may emit new visitors
//! for adjacent vertices. The runtime provides:
//!
//! * **One priority queue per worker thread.** A hash of the visitor's
//!   target vertex selects the queue, so *every* visitor for a given vertex
//!   executes on the same thread. This "adds an additional guarantee that a
//!   visitor has exclusive access to a vertex when executing, removing the
//!   need for additional vertex-level locking" (paper §III-A).
//! * **No synchronization between steps.** Unlike level-synchronous BFS
//!   there are no barriers; threads drain their queues independently and a
//!   traversal completes via distributed termination detection (a global
//!   count of queued-plus-in-flight visitors).
//! * **Thread oversubscription.** More threads than cores reduces queue
//!   lock contention and hides memory/storage latency (paper §IV-A runs 512
//!   threads on 16 cores); the runtime supports arbitrary thread counts.
//! * **Prioritization.** Each queue is a bucketed (calendar) priority
//!   queue over [`Visitor::priority`] — O(1) operations with sequential
//!   memory traffic — optionally drain-sorting each bucket by the
//!   visitor's full `Ord` (priority, then vertex id): exactly the
//!   semi-sorted access order the paper uses to increase
//!   semi-external-memory locality (§IV-C). SSSP prioritizes by tentative
//!   distance, CC by component id.
//!
//! # Example
//!
//! ```
//! use asyncgt_vq::{PushCtx, VisitHandler, Visitor, VisitorQueue, VqConfig};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // A visitor that floods a token to vertices 0..n, counting visits.
//! #[derive(PartialEq, Eq, PartialOrd, Ord)]
//! struct Flood(u64);
//! impl Visitor for Flood {
//!     fn target(&self) -> u64 { self.0 }
//! }
//!
//! struct Count(AtomicU64, u64);
//! impl VisitHandler<Flood> for Count {
//!     fn visit(&self, v: Flood, ctx: &mut PushCtx<'_, Flood>) {
//!         self.0.fetch_add(1, Ordering::Relaxed);
//!         if v.0 + 1 < self.1 {
//!             ctx.push(Flood(v.0 + 1));
//!         }
//!     }
//! }
//!
//! let handler = Count(AtomicU64::new(0), 100);
//! let stats = VisitorQueue::run(&VqConfig::with_threads(4), &handler, [Flood(0)]);
//! assert_eq!(handler.0.load(Ordering::Relaxed), 100);
//! assert_eq!(stats.visitors_executed, 100);
//! ```
//!
//! # One-shot vs. persistent
//!
//! [`VisitorQueue`] runs a single traversal to completion on a worker pool
//! it spawns and joins internally. For a stream of traversals over one
//! graph — the serving workload — use the persistent [`engine`]: workers
//! are spawned once, park when idle, and multiplex concurrent queries with
//! per-query termination and isolation (see [`engine::scoped`]). Both run
//! the same worker loop; a one-shot run queues the bare visitor and calls
//! its handler without dynamic dispatch, so it pays nothing for the
//! engine's multiplexing.

#![warn(missing_docs)]

pub mod bucket;
pub mod config;
pub mod dary;
pub mod engine;
mod mailbox;
pub mod queue;
pub mod state;
pub mod visitor;
mod worker;

pub use config::VqConfig;
pub use engine::{
    scoped, DynHandler, Engine, EngineConfig, EngineStats, QueryError, QueryStats, QueryTicket,
    SubmitError,
};
pub use queue::{AbortedRun, RunStats, VisitorQueue};
pub use state::{AtomicStateArray, OwnedStateLease, StateLease, StatePool};
pub use visitor::{AbortReason, FallibleVisitHandler, VisitHandler, Visitor};
pub use worker::PushCtx;
