//! Recorder abstraction: the seam between the traversal runtime and
//! metrics collection.
//!
//! The runtime is generic over [`Recorder`] (monomorphized, never `dyn`),
//! and every call site guards expensive work — `Instant::now()`, value
//! computation — behind `if R::ENABLED`. With the default
//! [`NoopRecorder`] (`ENABLED = false`) the branch is constant-folded and
//! the instrumentation compiles to nothing, which is what keeps the
//! metrics-off hot path at parity with the uninstrumented runtime.
//!
//! [`ShardedRecorder`] is the real implementation: one cache-line-padded
//! shard per worker, selected through a thread-local worker id set once
//! by [`Recorder::register_worker`] at worker startup. Counters and
//! histograms are relaxed atomics in the worker's own shard, so recording
//! never contends across workers.
//!
//! The recorder never counts an event the runtime already counts. The
//! runtime's own stats are the one counting site; the worker forwards
//! their deltas here when it settles its ledger, so per-worker counters
//! cost a few calls per few hundred visitors, not one per visitor.
//!
//! The storage layer sits below the generic runtime and talks to an
//! [`MetricSink`] trait object instead. The sink only feeds latency and
//! size histograms: storage's own I/O counters ([`IoStats`](crate::IoStats))
//! are the only place I/O counts live.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use crate::hist::LogHistogram;
use crate::snapshot::{
    HistogramsSnapshot, MetricsSnapshot, PhaseSpan, TimelineEvent, WorkerCounters, SCHEMA_VERSION,
};

/// Monotonic event counters, recorded per worker shard. Storage I/O
/// counts are not here: they live in [`IoStats`](crate::IoStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Visitors handed to the queue (local pushes + routed sends).
    VisitorsPushed = 0,
    /// Visitors popped and executed by a worker.
    VisitorsExecuted,
    /// Pushes that stayed on the owning worker (locality signal).
    LocalPushes,
    /// Pushes routed to another worker's inbox.
    RemotePushes,
    /// Times a worker parked on its inbox condvar.
    Parks,
    /// Parked workers woken by mail arrival.
    Wakes,
    /// Inbox drains that moved at least one visitor.
    InboxBatches,
    /// Outbox flushes (batched remote sends).
    OutboxFlushes,
    /// Visitor executions that expanded their vertex (the handler
    /// reported its candidate label current).
    Relaxations,
    /// Visitor executions whose candidate was stale: executed minus
    /// relaxations.
    Revisits,
    /// Queries accepted (and started) by `Engine::submit`.
    QueriesSubmitted,
    /// Queries that ran to completion (termination detected).
    QueriesCompleted,
    /// Queries cancelled through the per-query abort path.
    QueriesAborted,
    /// Submissions refused because the engine was poisoned (a handler
    /// panicked), including submits that were waiting for a free slot.
    SubmitRejections,
}

impl Counter {
    pub const ALL: [Counter; 14] = [
        Counter::VisitorsPushed,
        Counter::VisitorsExecuted,
        Counter::LocalPushes,
        Counter::RemotePushes,
        Counter::Parks,
        Counter::Wakes,
        Counter::InboxBatches,
        Counter::OutboxFlushes,
        Counter::Relaxations,
        Counter::Revisits,
        Counter::QueriesSubmitted,
        Counter::QueriesCompleted,
        Counter::QueriesAborted,
        Counter::SubmitRejections,
    ];

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Counter::VisitorsPushed => "visitors_pushed",
            Counter::VisitorsExecuted => "visitors_executed",
            Counter::LocalPushes => "local_pushes",
            Counter::RemotePushes => "remote_pushes",
            Counter::Parks => "parks",
            Counter::Wakes => "wakes",
            Counter::InboxBatches => "inbox_batches",
            Counter::OutboxFlushes => "outbox_flushes",
            Counter::Relaxations => "relaxations",
            Counter::Revisits => "revisits",
            Counter::QueriesSubmitted => "queries_submitted",
            Counter::QueriesCompleted => "queries_completed",
            Counter::QueriesAborted => "queries_aborted",
            Counter::SubmitRejections => "submit_rejections",
        }
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();

/// Histogram kinds, recorded per worker shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistKind {
    /// Nanoseconds spent inside a single visitor execution.
    ServiceTimeNs = 0,
    /// Visitors moved per non-empty inbox drain.
    InboxBatchSize,
    /// Local heap depth sampled at each inbox drain.
    QueueDepth,
    /// Nanoseconds per positioned storage read.
    ReadLatencyNs,
    /// Nanoseconds from first failed attempt to eventual success of a
    /// retried block read (backoff included).
    RetryLatencyNs,
    /// Blocks per scheduler run (demand + readahead) issued as one read.
    CoalescedReadBlocks,
    /// Scheduler runs in flight per prefetch batch.
    InflightDepth,
    /// Visitors drained from the bucket queue per service round.
    BatchDrainSize,
    /// Nanoseconds from `Engine::submit` accepting a query to its
    /// termination (queueing delay under admission control included).
    QueryLatencyNs,
}

impl HistKind {
    pub const ALL: [HistKind; 9] = [
        HistKind::ServiceTimeNs,
        HistKind::InboxBatchSize,
        HistKind::QueueDepth,
        HistKind::ReadLatencyNs,
        HistKind::RetryLatencyNs,
        HistKind::CoalescedReadBlocks,
        HistKind::InflightDepth,
        HistKind::BatchDrainSize,
        HistKind::QueryLatencyNs,
    ];

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::ServiceTimeNs => "service_time_ns",
            HistKind::InboxBatchSize => "inbox_batch_size",
            HistKind::QueueDepth => "queue_depth",
            HistKind::ReadLatencyNs => "read_latency_ns",
            HistKind::RetryLatencyNs => "retry_latency_ns",
            HistKind::CoalescedReadBlocks => "coalesced_read_blocks",
            HistKind::InflightDepth => "inflight_depth",
            HistKind::BatchDrainSize => "batch_drain_size",
            HistKind::QueryLatencyNs => "query_latency_ns",
        }
    }
}

const NUM_HISTS: usize = HistKind::ALL.len();

/// High-water-mark gauges, recorded per worker shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Deepest local queue observed by the worker.
    QueueDepthHwm = 0,
    /// Most queries simultaneously active inside the engine.
    ActiveQueriesHwm,
}

impl Gauge {
    pub const ALL: [Gauge; 2] = [Gauge::QueueDepthHwm, Gauge::ActiveQueriesHwm];

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::QueueDepthHwm => "queue_depth_hwm",
            Gauge::ActiveQueriesHwm => "active_queries_hwm",
        }
    }
}

const NUM_GAUGES: usize = Gauge::ALL.len();

/// Metrics collection seam for the traversal runtime.
///
/// All methods default to no-ops so implementations only override what
/// they collect. Call sites must guard non-trivial argument computation
/// (timestamps, queue length scans) behind `if R::ENABLED`.
pub trait Recorder: Sync {
    /// `false` promises every method is a no-op, letting call sites
    /// constant-fold instrumentation away entirely.
    const ENABLED: bool;

    /// Bind the calling thread to a worker shard. Workers call this once
    /// before their first event; events from unregistered threads land in
    /// a shared overflow shard.
    fn register_worker(&self, _worker: usize) {}

    /// Add `n` to a counter.
    fn counter(&self, _c: Counter, _n: u64) {}

    /// Record one histogram observation.
    fn observe(&self, _h: HistKind, _value: u64) {}

    /// Raise a high-water-mark gauge to at least `value`.
    fn gauge_max(&self, _g: Gauge, _value: u64) {}

    /// Open a named phase span (e.g. `"state_init"`, `"traversal"`).
    fn phase_start(&self, _name: &'static str) {}

    /// Close the most recent open span with this name.
    fn phase_end(&self, _name: &'static str) {}

    /// Append a point event to the run timeline, attributed to the
    /// calling worker (termination detection, worker start/exit).
    fn timeline(&self, _label: &'static str) {}
}

/// The default recorder: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;
}

impl<R: Recorder> Recorder for &R {
    const ENABLED: bool = R::ENABLED;

    fn register_worker(&self, worker: usize) {
        (**self).register_worker(worker);
    }
    fn counter(&self, c: Counter, n: u64) {
        (**self).counter(c, n);
    }
    fn observe(&self, h: HistKind, value: u64) {
        (**self).observe(h, value);
    }
    fn gauge_max(&self, g: Gauge, value: u64) {
        (**self).gauge_max(g, value);
    }
    fn phase_start(&self, name: &'static str) {
        (**self).phase_start(name);
    }
    fn phase_end(&self, name: &'static str) {
        (**self).phase_end(name);
    }
    fn timeline(&self, label: &'static str) {
        (**self).timeline(label);
    }
}

/// Object-safe sink for the storage layer, which sits below the generic
/// runtime and reports through `Arc<dyn MetricSink>`. It receives only
/// what storage's own counters cannot hold: latencies and sizes, one
/// histogram observation each.
pub trait MetricSink: Send + Sync {
    /// One device read: its latency.
    fn io_read(&self, latency_ns: u64);

    /// A block read that succeeded after retrying: nanoseconds from the
    /// first failure to the success, backoff included.
    fn io_retry(&self, latency_ns: u64);

    /// One I/O-scheduler run issued as a single device read, covering
    /// `total_blocks` blocks (demand plus readahead).
    fn sched_run(&self, total_blocks: u64);

    /// One prefetch batch dispatched with `runs` coalesced reads in
    /// flight.
    fn sched_batch(&self, runs: u64);
}

thread_local! {
    /// Worker shard index for the current thread; `usize::MAX` routes to
    /// the overflow shard.
    static CURRENT_WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// One worker's private slice of the metrics state. Padded to two cache
/// lines so neighbouring shards never false-share.
#[repr(align(128))]
struct Shard {
    counters: [AtomicU64; NUM_COUNTERS],
    gauges: [AtomicU64; NUM_GAUGES],
    hists: [LogHistogram; NUM_HISTS],
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: [const { AtomicU64::new(0) }; NUM_COUNTERS],
            gauges: [const { AtomicU64::new(0) }; NUM_GAUGES],
            hists: std::array::from_fn(|_| LogHistogram::new()),
        }
    }
}

/// Collecting recorder: per-worker shards plus mutex-protected phase and
/// timeline logs (touched only at phase boundaries, never per visitor).
pub struct ShardedRecorder {
    start: Instant,
    num_workers: usize,
    /// `num_workers` worker shards plus one overflow shard for events
    /// from unregistered threads (driver, storage prefetch, tests).
    shards: Box<[Shard]>,
    phases: Mutex<Vec<PhaseRecord>>,
    timeline: Mutex<Vec<TimelineEvent>>,
}

struct PhaseRecord {
    name: &'static str,
    start_us: u64,
    end_us: Option<u64>,
}

impl ShardedRecorder {
    pub fn new(num_workers: usize) -> Self {
        let shards = (0..num_workers + 1).map(|_| Shard::new()).collect();
        ShardedRecorder {
            start: Instant::now(),
            num_workers,
            shards,
            phases: Mutex::new(Vec::new()),
            timeline: Mutex::new(Vec::new()),
        }
    }

    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    #[inline]
    fn shard(&self) -> &Shard {
        let id = CURRENT_WORKER.with(|w| w.get());
        // Unregistered threads (id == MAX) fall through to the overflow
        // shard at the end; stale ids from a previous run do too.
        let idx = if id < self.num_workers {
            id
        } else {
            self.num_workers
        };
        &self.shards[idx]
    }

    /// Aggregate all shards into an immutable snapshot.
    ///
    /// # Example
    ///
    /// ```
    /// use asyncgt_obs::{Counter, MetricsSnapshot, Recorder, ShardedRecorder};
    ///
    /// let rec = ShardedRecorder::new(4);
    /// rec.counter(Counter::VisitorsExecuted, 128);
    /// rec.counter(Counter::QueriesCompleted, 2);
    ///
    /// let snap = rec.snapshot();
    /// assert_eq!(snap.counter("visitors_executed"), 128);
    ///
    /// // The snapshot round-trips through its versioned JSON schema.
    /// let back = MetricsSnapshot::from_json_str(&snap.to_json_string()).unwrap();
    /// assert_eq!(back.counter("queries_completed"), 2);
    /// ```
    pub fn snapshot(&self) -> MetricsSnapshot {
        let elapsed_secs = self.start.elapsed().as_secs_f64();

        let mut totals = [0u64; NUM_COUNTERS];
        let mut gauge_maxes = [0u64; NUM_GAUGES];
        let mut per_worker = Vec::with_capacity(self.num_workers);
        for (w, shard) in self.shards.iter().enumerate() {
            let counters: Vec<u64> = shard.counters.iter().map(|c| c.load(Relaxed)).collect();
            for (t, &v) in totals.iter_mut().zip(&counters) {
                *t += v;
            }
            for (m, g) in gauge_maxes.iter_mut().zip(&shard.gauges) {
                *m = (*m).max(g.load(Relaxed));
            }
            if w < self.num_workers {
                per_worker.push(WorkerCounters {
                    worker: w,
                    counters,
                    queue_depth_hwm: shard.gauges[Gauge::QueueDepthHwm as usize].load(Relaxed),
                });
            }
        }

        let mut histograms = HistogramsSnapshot::default();
        for kind in HistKind::ALL {
            let mut merged = crate::hist::HistSnapshot::default();
            for shard in self.shards.iter() {
                merged.merge(&shard.hists[kind as usize].snapshot());
            }
            histograms.set(kind, merged);
        }

        let phases = self
            .phases
            .lock()
            .unwrap()
            .iter()
            .map(|p| PhaseSpan {
                name: p.name.to_string(),
                start_us: p.start_us,
                end_us: p.end_us.unwrap_or(p.start_us),
            })
            .collect();

        let timeline = self.timeline.lock().unwrap().clone();

        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            num_workers: self.num_workers,
            elapsed_secs,
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name().to_string(), totals[c as usize]))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name().to_string(), gauge_maxes[g as usize]))
                .collect(),
            per_worker,
            histograms,
            phases,
            timeline,
            io: None,
        }
    }
}

impl Recorder for ShardedRecorder {
    const ENABLED: bool = true;

    fn register_worker(&self, worker: usize) {
        CURRENT_WORKER.with(|w| w.set(worker));
    }

    #[inline]
    fn counter(&self, c: Counter, n: u64) {
        self.shard().counters[c as usize].fetch_add(n, Relaxed);
    }

    #[inline]
    fn observe(&self, h: HistKind, value: u64) {
        self.shard().hists[h as usize].record(value);
    }

    #[inline]
    fn gauge_max(&self, g: Gauge, value: u64) {
        self.shard().gauges[g as usize].fetch_max(value, Relaxed);
    }

    fn phase_start(&self, name: &'static str) {
        let t = self.now_us();
        self.phases.lock().unwrap().push(PhaseRecord {
            name,
            start_us: t,
            end_us: None,
        });
    }

    fn phase_end(&self, name: &'static str) {
        let t = self.now_us();
        let mut phases = self.phases.lock().unwrap();
        if let Some(p) = phases
            .iter_mut()
            .rev()
            .find(|p| p.name == name && p.end_us.is_none())
        {
            p.end_us = Some(t);
        }
    }

    fn timeline(&self, label: &'static str) {
        let t = self.now_us();
        let worker = CURRENT_WORKER.with(|w| w.get());
        self.timeline.lock().unwrap().push(TimelineEvent {
            t_us: t,
            worker: if worker == usize::MAX {
                None
            } else {
                Some(worker)
            },
            label: label.to_string(),
        });
    }
}

impl MetricSink for ShardedRecorder {
    fn io_read(&self, latency_ns: u64) {
        self.observe(HistKind::ReadLatencyNs, latency_ns);
    }

    fn io_retry(&self, latency_ns: u64) {
        self.observe(HistKind::RetryLatencyNs, latency_ns);
    }

    fn sched_run(&self, total_blocks: u64) {
        self.observe(HistKind::CoalescedReadBlocks, total_blocks);
    }

    fn sched_batch(&self, runs: u64) {
        self.observe(HistKind::InflightDepth, runs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled() {
        const { assert!(!NoopRecorder::ENABLED) };
        // And callable without effect.
        let r = NoopRecorder;
        r.counter(Counter::Parks, 1);
        r.observe(HistKind::ServiceTimeNs, 5);
        r.phase_start("x");
        r.phase_end("x");
    }

    #[test]
    fn events_land_in_registered_shard() {
        let r = ShardedRecorder::new(2);
        r.register_worker(1);
        r.counter(Counter::VisitorsExecuted, 3);
        r.observe(HistKind::InboxBatchSize, 7);
        r.gauge_max(Gauge::QueueDepthHwm, 12);
        r.gauge_max(Gauge::QueueDepthHwm, 4);
        let snap = r.snapshot();
        assert_eq!(
            snap.per_worker[1].counters[Counter::VisitorsExecuted as usize],
            3
        );
        assert_eq!(
            snap.per_worker[0].counters[Counter::VisitorsExecuted as usize],
            0
        );
        assert_eq!(snap.per_worker[1].queue_depth_hwm, 12);
        assert_eq!(snap.counter("visitors_executed"), 3);
        assert_eq!(snap.histograms.get(HistKind::InboxBatchSize).count, 1);
        // Reset TLS so other tests on this thread start unregistered.
        CURRENT_WORKER.with(|w| w.set(usize::MAX));
    }

    #[test]
    fn unregistered_thread_goes_to_overflow_shard() {
        let r = ShardedRecorder::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                r.counter(Counter::QueriesSubmitted, 5);
            });
        });
        let snap = r.snapshot();
        // Totals include the overflow shard; per-worker rows do not.
        assert_eq!(snap.counter("queries_submitted"), 5);
        assert_eq!(snap.per_worker[0].counter("queries_submitted"), 0);
        assert_eq!(snap.per_worker[1].counter("queries_submitted"), 0);
    }

    #[test]
    fn phases_and_timeline_are_captured() {
        let r = ShardedRecorder::new(1);
        r.phase_start("traversal");
        r.timeline("worker_exit");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.phase_end("traversal");
        let snap = r.snapshot();
        assert_eq!(snap.phases.len(), 1);
        assert_eq!(snap.phases[0].name, "traversal");
        assert!(snap.phases[0].end_us >= snap.phases[0].start_us);
        assert_eq!(snap.timeline.len(), 1);
        assert_eq!(snap.timeline[0].label, "worker_exit");
    }

    #[test]
    fn metric_sink_routes_reads_to_latency_histogram() {
        let r = ShardedRecorder::new(1);
        let sink: &dyn MetricSink = &r;
        sink.io_read(1500);
        sink.io_read(900);
        let snap = r.snapshot();
        // The sink counts nothing: storage's IoStats holds the I/O counts.
        assert!(snap.counters.iter().all(|&(_, v)| v == 0));
        let lat = snap.histograms.get(HistKind::ReadLatencyNs);
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 2400);
    }

    #[test]
    fn metric_sink_routes_scheduler_events() {
        let r = ShardedRecorder::new(1);
        let sink: &dyn MetricSink = &r;
        sink.sched_run(6); // 4 demanded blocks + 2 readahead, one read
        sink.sched_run(1); // singleton run
        sink.sched_batch(2);
        let snap = r.snapshot();
        let runs = snap.histograms.get(HistKind::CoalescedReadBlocks);
        assert_eq!(runs.count, 2);
        assert_eq!(runs.sum, 7);
        assert_eq!(snap.histograms.get(HistKind::InflightDepth).count, 1);
    }

    #[test]
    fn metric_sink_routes_retry_latency() {
        let r = ShardedRecorder::new(1);
        let sink: &dyn MetricSink = &r;
        sink.io_retry(250_000);
        let snap = r.snapshot();
        let lat = snap.histograms.get(HistKind::RetryLatencyNs);
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum, 250_000);
    }
}
