//! The metric catalogue: end-to-end metrics (untraced run) and per-layer
//! metrics (traced run). Every workload emits every metric of its run
//! kind; a layer a workload bypasses reads 0 (e.g. `storage.device_reads`
//! on the in-memory workloads).

use crate::util::{metric, ratio, Metric};
use asyncgt::obs::MetricsSnapshot;
use asyncgt::storage::{DeviceModel, IoStats};

/// End-to-end metrics, all measured untraced. Each timing is a median
/// over the run. For the one-shot workloads a "query" is one traversal.
pub struct EndToEnd {
    pub setup_s: f64,
    pub traversal_ms: f64,
    pub query_p90_ms: f64,
    pub queries_per_s: f64,
    pub mteps: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("traversal_ms", self.traversal_ms, "ms"),
            metric("query_p90_ms", self.query_p90_ms, "ms"),
            metric("queries_per_s", self.queries_per_s, "1/s"),
            metric("mteps", self.mteps, "Medges/s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Per-layer metrics from the traced run, named `<module>.<metric>`.
#[derive(Default)]
pub struct Layers {
    pub graph_scan_ns_per_edge: f64,
    pub vq_bucket_ns_per_visitor: f64,
    pub vq_run_ns_per_visitor_1w: f64,
    pub vq_run_ns_per_visitor: f64,
    pub vq_local_push_frac: f64,
    pub vq_visitors_per_delivery: f64,
    pub vq_parks_per_traversal: f64,
    pub vq_mailbox_cas_retry_frac: f64,
    pub core_visitors_per_edge: f64,
    pub core_relax_per_vertex: f64,
    pub core_ns_per_visitor_1w: f64,
    pub layers_unexplained_frac: f64,
    pub baselines_speedup_vs_serial: f64,
    pub storage_device_reads: f64,
    pub storage_reads_per_adjacency: f64,
    pub storage_read_amplification: f64,
    pub storage_coalesced_frac: f64,
    pub storage_retries: f64,
    pub storage_device_busy_frac: f64,
    pub storage_fetch_us: f64,
    pub storage_prefetch_us_per_batch: f64,
    pub engine_submit_us: f64,
    pub engine_overhead_ratio: f64,
    pub engine_state_arrays_per_query: f64,
    pub obs_trace_overhead_frac: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("graph.scan_ns_per_edge", self.graph_scan_ns_per_edge, "ns"),
            metric(
                "vq.bucket_ns_per_visitor",
                self.vq_bucket_ns_per_visitor,
                "ns",
            ),
            metric(
                "vq.run_ns_per_visitor_1w",
                self.vq_run_ns_per_visitor_1w,
                "ns",
            ),
            metric("vq.run_ns_per_visitor", self.vq_run_ns_per_visitor, "ns"),
            metric("vq.local_push_frac", self.vq_local_push_frac, "frac"),
            metric(
                "vq.visitors_per_delivery",
                self.vq_visitors_per_delivery,
                "count",
            ),
            metric(
                "vq.parks_per_traversal",
                self.vq_parks_per_traversal,
                "count",
            ),
            metric(
                "vq.mailbox_cas_retry_frac",
                self.vq_mailbox_cas_retry_frac,
                "frac",
            ),
            metric(
                "core.visitors_per_edge",
                self.core_visitors_per_edge,
                "ratio",
            ),
            metric("core.relax_per_vertex", self.core_relax_per_vertex, "ratio"),
            metric("core.ns_per_visitor_1w", self.core_ns_per_visitor_1w, "ns"),
            metric(
                "layers.unexplained_frac",
                self.layers_unexplained_frac,
                "frac",
            ),
            metric(
                "baselines.speedup_vs_serial",
                self.baselines_speedup_vs_serial,
                "x",
            ),
            metric("storage.device_reads", self.storage_device_reads, "count"),
            metric(
                "storage.reads_per_adjacency",
                self.storage_reads_per_adjacency,
                "ratio",
            ),
            metric(
                "storage.read_amplification",
                self.storage_read_amplification,
                "ratio",
            ),
            metric(
                "storage.coalesced_frac",
                self.storage_coalesced_frac,
                "frac",
            ),
            metric("storage.retries", self.storage_retries, "count"),
            metric(
                "storage.device_busy_frac",
                self.storage_device_busy_frac,
                "frac",
            ),
            metric("storage.fetch_us", self.storage_fetch_us, "us"),
            metric(
                "storage.prefetch_us_per_batch",
                self.storage_prefetch_us_per_batch,
                "us",
            ),
            metric("engine.submit_us", self.engine_submit_us, "us"),
            metric("engine.overhead_ratio", self.engine_overhead_ratio, "ratio"),
            metric(
                "engine.state_arrays_per_query",
                self.engine_state_arrays_per_query,
                "count",
            ),
            metric(
                "obs.trace_overhead_frac",
                self.obs_trace_overhead_frac,
                "frac",
            ),
        ]
    }

    /// Delivery and parking ratios from the recorder's counters, summed
    /// over `traversals` traced traversals or queries.
    pub fn set_vq_counters(&mut self, snap: &MetricsSnapshot, traversals: usize) {
        let c = |name| snap.counter(name) as f64;
        self.vq_local_push_frac = ratio(c("local_pushes"), c("visitors_pushed"));
        self.vq_visitors_per_delivery = ratio(c("remote_pushes"), c("outbox_flushes"));
        self.vq_parks_per_traversal = ratio(c("parks"), traversals as f64);
        self.vq_mailbox_cas_retry_frac = ratio(c("mailbox_cas_retries"), c("mailbox_segments"));
    }

    /// Storage ratios of one traversal's I/O counters. `edge_bytes` is what
    /// the traversal needed (edges in the component × record size);
    /// `busy_frac` is computed from the device model, not measured.
    pub fn set_storage(&mut self, io: &IoStats, edge_bytes: u64, model: &DeviceModel, wall_s: f64) {
        let fetches = io.block_fetches as f64;
        self.storage_device_reads = fetches;
        self.storage_reads_per_adjacency = ratio(fetches, io.adjacency_reads as f64);
        self.storage_read_amplification = ratio(io.bytes_read as f64, edge_bytes as f64);
        self.storage_coalesced_frac = ratio(
            io.blocks_coalesced as f64,
            (io.block_fetches + io.blocks_coalesced) as f64,
        );
        self.storage_retries = io.retries as f64;
        self.storage_device_busy_frac = ratio(
            fetches * model.service_time.as_secs_f64(),
            model.channels as f64 * wall_s,
        );
    }

    /// The check that the layers add up: one minus the summed
    /// per-visitor layer costs over the whole 1-worker cost per visitor.
    /// The runtime probe already includes the bucket queue, so the sum is
    /// runtime + adjacency scan + storage.
    pub fn set_unexplained(&mut self, scanned_edges_per_visitor: f64, storage_ns_per_visitor: f64) {
        let explained = self.vq_run_ns_per_visitor_1w
            + self.graph_scan_ns_per_edge * scanned_edges_per_visitor
            + storage_ns_per_visitor;
        self.layers_unexplained_frac = 1.0 - ratio(explained, self.core_ns_per_visitor_1w);
    }
}
