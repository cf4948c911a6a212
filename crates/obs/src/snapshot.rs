//! Serializable aggregate of one run's metrics.
//!
//! [`MetricsSnapshot`] is the stable interchange format: the CLI writes
//! it with `--metrics-json`, the bench bins attach it to BENCH_*.json
//! trajectories, and the integration tests round-trip it. The JSON
//! schema is versioned ([`SCHEMA_VERSION`]). A reader requires every
//! field its version writes, so any change to the fields, an addition
//! included, bumps the version. Version 3 removed the storage counters
//! from `counters`: I/O counts appear only in `io`, which is storage's
//! own [`IoStats`].
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
use crate::json::{self, Value};
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
    /// name. Additive field: absent in older snapshots (reads as zeros).
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

    /// Parse a snapshot previously produced by [`Self::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<MetricsSnapshot, String> {
        let v = json::parse(text)?;
        Self::from_json(&v)
    }

    pub fn from_json(v: &Value) -> Result<MetricsSnapshot, String> {
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field {name:?}"));

        let schema_version = field("schema_version")?
            .as_u64()
            .ok_or("schema_version not an integer")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
            ));
        }
        let num_workers = field("num_workers")?
            .as_u64()
            .ok_or("num_workers not an integer")? as usize;
        let elapsed_secs = field("elapsed_secs")?
            .as_f64()
            .ok_or("elapsed_secs not a number")?;

        let counters = field("counters")?
            .as_obj()
            .ok_or("counters not an object")?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("counter {k:?} not an integer"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let gauges = field("gauges")?;
        let gauges = crate::recorder::Gauge::ALL
            .iter()
            .map(|gauge| {
                let name = gauge.name();
                gauges
                    .get(name)
                    .and_then(Value::as_u64)
                    .map(|val| (name.to_string(), val))
                    .ok_or_else(|| format!("gauges missing {name:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let per_worker = field("per_worker")?
            .as_arr()
            .ok_or("per_worker not an array")?
            .iter()
            .map(|w| {
                let worker =
                    w.get("worker")
                        .and_then(Value::as_u64)
                        .ok_or("per_worker entry missing worker")? as usize;
                let queue_depth_hwm = w
                    .get("queue_depth_hwm")
                    .and_then(Value::as_u64)
                    .ok_or("per_worker entry missing queue_depth_hwm")?;
                let obj = w
                    .get("counters")
                    .and_then(Value::as_obj)
                    .ok_or("per_worker entry missing counters")?;
                let counters = crate::recorder::Counter::ALL
                    .iter()
                    .map(|c| {
                        obj.iter()
                            .find(|(k, _)| k == c.name())
                            .and_then(|(_, v)| v.as_u64())
                            .ok_or_else(|| {
                                format!("per_worker entry missing counter {:?}", c.name())
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(WorkerCounters {
                    worker,
                    counters,
                    queue_depth_hwm,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let mut histograms = HistogramsSnapshot::default();
        for (name, h) in field("histograms")?
            .as_obj()
            .ok_or("histograms not an object")?
        {
            let kind = HistKind::ALL
                .iter()
                .copied()
                .find(|k| k.name() == name)
                .ok_or_else(|| format!("unknown histogram {name:?}"))?;
            let num = |f: &str| {
                h.get(f)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("histogram {name:?} missing {f:?}"))
            };
            let buckets = h
                .get("buckets")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("histogram {name:?} missing buckets"))?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().filter(|p| p.len() == 2);
                    match pair {
                        Some([i, n]) => match (i.as_u64(), n.as_u64()) {
                            (Some(i), Some(n)) => Ok((i as u32, n)),
                            _ => Err("bucket pair not integers".to_string()),
                        },
                        _ => Err("bucket entry not a pair".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            histograms.set(
                kind,
                HistSnapshot {
                    count: num("count")?,
                    sum: num("sum")?,
                    min: num("min")?,
                    max: num("max")?,
                    buckets,
                },
            );
        }

        let phases = field("phases")?
            .as_arr()
            .ok_or("phases not an array")?
            .iter()
            .map(|p| {
                Ok(PhaseSpan {
                    name: p
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("phase missing name")?
                        .to_string(),
                    start_us: p
                        .get("start_us")
                        .and_then(Value::as_u64)
                        .ok_or("phase missing start_us")?,
                    end_us: p
                        .get("end_us")
                        .and_then(Value::as_u64)
                        .ok_or("phase missing end_us")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let timeline = field("timeline")?
            .as_arr()
            .ok_or("timeline not an array")?
            .iter()
            .map(|e| {
                let worker = match e.get("worker") {
                    Some(Value::Int(w)) => Some(*w as usize),
                    Some(Value::Null) => None,
                    _ => return Err("timeline event missing worker".to_string()),
                };
                Ok(TimelineEvent {
                    t_us: e
                        .get("t_us")
                        .and_then(Value::as_u64)
                        .ok_or("timeline event missing t_us")?,
                    worker,
                    label: e
                        .get("label")
                        .and_then(Value::as_str)
                        .ok_or("timeline event missing label")?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let io = match v.get("io") {
            None => None,
            Some(io) => {
                let num = |f: &str| {
                    io.get(f)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("io missing {f:?}"))
                };
                Some(IoStats {
                    adjacency_reads: num("adjacency_reads")?,
                    cache_hits: num("cache_hits")?,
                    cache_misses: num("cache_misses")?,
                    bytes_read: num("bytes_read")?,
                    block_fetches: num("block_fetches")?,
                    retries: num("retries")?,
                    faults_absorbed: num("faults_absorbed")?,
                    faults_fatal: num("faults_fatal")?,
                    blocks_coalesced: num("blocks_coalesced")?,
                    reads_merged: num("reads_merged")?,
                    readahead_hits: num("readahead_hits")?,
                })
            }
        };

        Ok(MetricsSnapshot {
            schema_version,
            num_workers,
            elapsed_secs,
            counters,
            gauges,
            per_worker,
            histograms,
            phases,
            timeline,
            io,
        })
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
    fn json_round_trip_is_exact() {
        let snap = sample_snapshot();
        let text = snap.to_json_string();
        let back = MetricsSnapshot::from_json_str(&text).unwrap();
        // elapsed_secs goes through decimal text; everything else must be
        // bit-exact. Compare with elapsed normalized.
        let mut a = snap.clone();
        let mut b = back.clone();
        a.elapsed_secs = 0.0;
        b.elapsed_secs = 0.0;
        assert_eq!(a, b);
        assert!((snap.elapsed_secs - back.elapsed_secs).abs() < 1e-9);
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
    fn missing_io_round_trips_as_none() {
        let r = ShardedRecorder::new(1);
        let snap = r.snapshot();
        assert!(snap.io.is_none());
        let back = MetricsSnapshot::from_json_str(&snap.to_json_string()).unwrap();
        assert!(back.io.is_none());
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let snap = sample_snapshot();
        let text = snap
            .to_json_string()
            .replace("\"schema_version\": 3", "\"schema_version\": 999");
        assert!(MetricsSnapshot::from_json_str(&text)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn snapshot_missing_a_written_field_is_rejected() {
        // Every field schema 3 writes is required: a snapshot missing one
        // is an error naming it, never a silent zero.
        let mut v = sample_snapshot().to_json();
        let Value::Obj(fields) = &mut v else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "gauges");
        let err = MetricsSnapshot::from_json(&v).unwrap_err();
        assert!(err.contains("gauges"), "{err}");

        let text = sample_snapshot().to_json_string();
        let cut = text.replace(",\n    \"readahead_hits\": 0", "");
        assert_ne!(cut, text, "the sample writes readahead_hits last in io");
        let err = MetricsSnapshot::from_json_str(&cut).unwrap_err();
        assert!(err.contains("readahead_hits"), "{err}");

        let cut = text.replace("\"active_queries_hwm\": 0", "\"other\": 0");
        assert_ne!(cut, text);
        let err = MetricsSnapshot::from_json_str(&cut).unwrap_err();
        assert!(err.contains("active_queries_hwm"), "{err}");
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
