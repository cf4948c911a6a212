//! Pluggable, zero-cost observability for the asyncgt runtime.
//!
//! The traversal engine is generic over a [`Recorder`]; the default
//! [`NoopRecorder`] sets `ENABLED = false` so instrumentation
//! constant-folds away, while [`ShardedRecorder`] aggregates per-worker
//! counters, log2 histograms, phase spans and a termination timeline
//! into a [`MetricsSnapshot`] with a stable, versioned JSON schema
//! (version 3).
//!
//! Every count has one counting site. The runtime counts visitors,
//! pushes, parks and inbox batches in its own stats and forwards them to
//! the recorder when a worker settles; storage counts I/O in its own
//! [`IoStats`], which a snapshot carries as its `io` section. The
//! recorder adds only what nothing else holds: histograms, gauges,
//! phases, the timeline, and engine query outcomes.
//!
//! Layering: this crate depends only on `std`. The vq, storage, core,
//! cli and bench crates depend on it — storage through the object-safe
//! [`MetricSink`] (I/O events are µs-scale, dynamic dispatch is fine),
//! everything else through the monomorphized [`Recorder`].

pub mod hist;
pub mod json;
pub mod recorder;
pub mod render;
pub mod snapshot;

pub use hist::{HistSnapshot, LogHistogram};
pub use recorder::{Counter, Gauge, HistKind, MetricSink, NoopRecorder, Recorder, ShardedRecorder};
pub use render::render_summary;
pub use snapshot::{
    IoStats, MetricsSnapshot, PhaseSpan, TimelineEvent, WorkerCounters, SCHEMA_VERSION,
};
