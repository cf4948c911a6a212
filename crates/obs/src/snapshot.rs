//! Serializable aggregate of one run's metrics.
//!
//! [`MetricsSnapshot`] is the stable interchange format: the CLI writes
//! it with `--metrics-json`, the bench bins attach it to BENCH_*.json
//! trajectories, and the tests read the written file back with
//! [`crate::json::parse`]. The crate writes the format and never reads
//! it. The JSON schema is versioned ([`SCHEMA_VERSION`]): any change to
//! the fields, an addition included, bumps the version, so a reader can
//! rely on every field its version writes. Version 3 removed the storage
//! counters from `counters`: I/O counts appear only in `io`, which is
//! storage's own [`IoStats`].
//!
//! Schema (version 3):
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "num_workers": 4,
//!   "elapsed_secs": 0.123,
//!   "counters": { "visitors_pushed": 100, ... },
//!   "gauges": { "queue_depth_hwm": 17, "active_queries_hwm": 3 },
//!   "per_worker": [
//!     { "worker": 0, "queue_depth_hwm": 17, "counters": { ... } }
//!   ],
//!   "histograms": {
//!     "service_time_ns": { "count": 100, "sum": 1, "min": 0, "max": 1,
//!                           "buckets": [[1, 34], [2, 66]] }
//!   },
//!   "phases": [ { "name": "traversal", "start_us": 0, "end_us": 100 } ],
//!   "timeline": [ { "t_us": 90, "worker": 3, "label": "worker_exit" } ],
//!   "io": { "adjacency_reads": 10, "cache_hits": 8, "cache_misses": 2,
//!           "bytes_read": 81920, "block_fetches": 2, "retries": 0,
//!           "faults_absorbed": 0, "faults_fatal": 0,
//!           "blocks_coalesced": 0, "reads_merged": 0,
//!           "readahead_hits": 0 }
//! }
//! ```

use crate::hist::HistSnapshot;
use crate::json::Value;
use crate::recorder::HistKind;

/// Version of the JSON schema emitted by [`MetricsSnapshot::to_json`].
pub const SCHEMA_VERSION: u64 = 3;

/// Counter values for one worker shard, in [`crate::Counter::ALL`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCounters {
    pub worker: usize,
    pub counters: Vec<u64>,
    pub queue_depth_hwm: u64,
}

impl WorkerCounters {
    /// This worker's value for a counter by schema name; 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        crate::recorder::Counter::ALL
            .iter()
            .position(|c| c.name() == name)
            .and_then(|i| self.counters.get(i).copied())
            .unwrap_or(0)
    }
}

/// All histogram kinds, merged across shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramsSnapshot {
    hists: [HistSnapshot; HistKind::ALL.len()],
}

impl HistogramsSnapshot {
    pub fn get(&self, kind: HistKind) -> &HistSnapshot {
        &self.hists[kind as usize]
    }

    pub fn set(&mut self, kind: HistKind, snap: HistSnapshot) {
        self.hists[kind as usize] = snap;
    }

    /// Iterate non-empty histograms with their schema names.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (&'static str, &HistSnapshot)> {
        HistKind::ALL
            .iter()
            .map(|&k| (k.name(), self.get(k)))
            .filter(|(_, h)| !h.is_empty())
    }
}

/// A named interval on the run clock (µs since recorder creation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// A point event on the run clock, optionally attributed to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    pub t_us: u64,
    pub worker: Option<usize>,
    pub label: String,
}

/// Cumulative I/O counters of one semi-external graph: what
/// `SemGraph::io_stats` returns (the storage crate re-exports this type)
/// and what a snapshot's `io` section holds. Defined here because the
/// storage crate depends on this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Adjacency-list fetches (one per `for_each_neighbor` on a non-empty
    /// vertex — the paper's one-I/O-per-visit unit).
    pub adjacency_reads: u64,
    /// Adjacency-serving block lookups answered by the cache. Always `0`
    /// when the cache is disabled; scheduler probes are never counted.
    pub cache_hits: u64,
    /// Adjacency-serving block lookups the cache could not answer. Always
    /// `0` when the cache is disabled. With the cache enabled,
    /// `cache_hits + cache_misses` equals the number of adjacency-serving
    /// block lookups.
    pub cache_misses: u64,
    /// Bytes fetched from the device/file.
    pub bytes_read: u64,
    /// Device read operations actually issued: single-block fetches plus
    /// coalesced scheduler runs (each run is one read, however many
    /// blocks it covers). Retried attempts book only on success.
    pub block_fetches: u64,
    /// Block reads re-issued after a retryable fault.
    pub retries: u64,
    /// Faults absorbed by a successful retry (the traversal never saw
    /// them).
    pub faults_absorbed: u64,
    /// Faults that exhausted the retry budget and surfaced as errors.
    pub faults_fatal: u64,
    /// Device reads saved by merging adjacent demanded blocks into one
    /// request (`demand - 1` per scheduler run).
    pub blocks_coalesced: u64,
    /// Scheduler runs that merged two or more demanded blocks.
    pub reads_merged: u64,
    /// Adjacency block lookups served by a speculative readahead block
    /// (each readahead block counts at most once, on first use).
    pub readahead_hits: u64,
}

impl IoStats {
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One run's aggregated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub schema_version: u64,
    pub num_workers: usize,
    pub elapsed_secs: f64,
    /// Totals across all shards, keyed by stable counter name.
    pub counters: Vec<(String, u64)>,
    /// High-water marks, maxed across all shards, keyed by stable gauge
    /// name.
    pub gauges: Vec<(String, u64)>,
    pub per_worker: Vec<WorkerCounters>,
    pub histograms: HistogramsSnapshot,
    pub phases: Vec<PhaseSpan>,
    pub timeline: Vec<TimelineEvent>,
    /// Storage totals, present for semi-external-memory runs.
    pub io: Option<IoStats>,
}

impl MetricsSnapshot {
    /// Total for a counter by schema name; 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// High-water mark for a gauge by schema name; 0 if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    pub fn to_json(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::Int(*v)))
                .collect(),
        );

        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::Int(*v)))
                .collect(),
        );

        let per_worker = Value::Arr(
            self.per_worker
                .iter()
                .map(|w| {
                    Value::Obj(vec![
                        ("worker".into(), Value::Int(w.worker as u64)),
                        ("queue_depth_hwm".into(), Value::Int(w.queue_depth_hwm)),
                        (
                            "counters".into(),
                            Value::Obj(
                                crate::recorder::Counter::ALL
                                    .iter()
                                    .zip(&w.counters)
                                    .map(|(c, &v)| (c.name().to_string(), Value::Int(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );

        let histograms = Value::Obj(
            self.histograms
                .iter_nonempty()
                .map(|(name, h)| {
                    (
                        name.to_string(),
                        Value::Obj(vec![
                            ("count".into(), Value::Int(h.count)),
                            ("sum".into(), Value::Int(h.sum)),
                            ("min".into(), Value::Int(h.min)),
                            ("max".into(), Value::Int(h.max)),
                            (
                                "buckets".into(),
                                Value::Arr(
                                    h.buckets
                                        .iter()
                                        .map(|&(i, n)| {
                                            Value::Arr(vec![Value::Int(i as u64), Value::Int(n)])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );

        let phases = Value::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(p.name.clone())),
                        ("start_us".into(), Value::Int(p.start_us)),
                        ("end_us".into(), Value::Int(p.end_us)),
                    ])
                })
                .collect(),
        );

        let timeline = Value::Arr(
            self.timeline
                .iter()
                .map(|e| {
                    Value::Obj(vec![
                        ("t_us".into(), Value::Int(e.t_us)),
                        (
                            "worker".into(),
                            match e.worker {
                                Some(w) => Value::Int(w as u64),
                                None => Value::Null,
                            },
                        ),
                        ("label".into(), Value::Str(e.label.clone())),
                    ])
                })
                .collect(),
        );

        let mut fields = vec![
            ("schema_version".into(), Value::Int(self.schema_version)),
            ("num_workers".into(), Value::Int(self.num_workers as u64)),
            ("elapsed_secs".into(), Value::Float(self.elapsed_secs)),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("per_worker".into(), per_worker),
            ("histograms".into(), histograms),
            ("phases".into(), phases),
            ("timeline".into(), timeline),
        ];
        if let Some(io) = &self.io {
            fields.push((
                "io".into(),
                Value::Obj(vec![
                    ("adjacency_reads".into(), Value::Int(io.adjacency_reads)),
                    ("cache_hits".into(), Value::Int(io.cache_hits)),
                    ("cache_misses".into(), Value::Int(io.cache_misses)),
                    ("bytes_read".into(), Value::Int(io.bytes_read)),
                    ("block_fetches".into(), Value::Int(io.block_fetches)),
                    ("retries".into(), Value::Int(io.retries)),
                    ("faults_absorbed".into(), Value::Int(io.faults_absorbed)),
                    ("faults_fatal".into(), Value::Int(io.faults_fatal)),
                    ("blocks_coalesced".into(), Value::Int(io.blocks_coalesced)),
                    ("reads_merged".into(), Value::Int(io.reads_merged)),
                    ("readahead_hits".into(), Value::Int(io.readahead_hits)),
                ]),
            ));
        }
        Value::Obj(fields)
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Counter, Gauge, Recorder, ShardedRecorder};

    fn sample_snapshot() -> MetricsSnapshot {
        let r = ShardedRecorder::new(2);
        r.register_worker(0);
        r.counter(Counter::VisitorsPushed, 10);
        r.counter(Counter::VisitorsExecuted, 10);
        r.observe(HistKind::ServiceTimeNs, 1200);
        r.observe(HistKind::ServiceTimeNs, 300);
        r.gauge_max(Gauge::QueueDepthHwm, 9);
        r.phase_start("traversal");
        r.phase_end("traversal");
        r.timeline("worker_exit");
        // Unregister so later tests on this thread use the overflow shard.
        r.register_worker(usize::MAX);
        let mut snap = r.snapshot();
        snap.io = Some(IoStats {
            adjacency_reads: 4,
            cache_hits: 3,
            cache_misses: 1,
            bytes_read: 16384,
            block_fetches: 1,
            retries: 2,
            faults_absorbed: 2,
            faults_fatal: 0,
            blocks_coalesced: 0,
            reads_merged: 0,
            readahead_hits: 0,
        });
        snap
    }

    #[test]
    fn serialization_is_stable() {
        let snap = sample_snapshot();
        assert_eq!(snap.to_json_string(), snap.to_json_string());
        let text = snap.to_json_string();
        assert!(text.contains("\"schema_version\": 3"));
        assert!(text.contains("\"visitors_pushed\": 10"));
        assert!(text.contains("\"service_time_ns\""));
        assert!(text.contains("\"adjacency_reads\": 4"));
    }

    #[test]
    fn io_hit_rate() {
        let io = IoStats {
            adjacency_reads: 10,
            cache_hits: 8,
            cache_misses: 2,
            ..IoStats::default()
        };
        assert!((io.cache_hit_rate() - 0.8).abs() < 1e-9);
        assert_eq!(IoStats::default().cache_hit_rate(), 0.0);
    }
}
