//! Human-readable rendering of a [`MetricsSnapshot`], for terminal
//! output behind the CLI's `--metrics` flag.

use std::fmt::Write as _;

use crate::snapshot::MetricsSnapshot;

/// Format a snapshot as an indented multi-section report.
pub fn render_summary(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "metrics (schema v{}, {} workers, {:.3}s)",
        snap.schema_version, snap.num_workers, snap.elapsed_secs
    );

    let _ = writeln!(out, "  counters:");
    for (name, value) in &snap.counters {
        if *value > 0 {
            let _ = writeln!(out, "    {name:<20} {value}");
        }
    }
    let pushed = snap.counter("visitors_pushed");
    let local = snap.counter("local_pushes");
    if pushed > 0 {
        let _ = writeln!(
            out,
            "    {:<20} {:.1}%",
            "push_locality",
            100.0 * local as f64 / pushed as f64
        );
    }

    if !snap.per_worker.is_empty() {
        let _ = writeln!(out, "  per-worker (executed / parks / depth hwm):");
        let exec_idx = crate::Counter::VisitorsExecuted as usize;
        let park_idx = crate::Counter::Parks as usize;
        for w in &snap.per_worker {
            let _ = writeln!(
                out,
                "    w{:<3} {:>12} {:>8} {:>8}",
                w.worker, w.counters[exec_idx], w.counters[park_idx], w.queue_depth_hwm
            );
        }
    }

    let mut wrote_header = false;
    for (name, h) in snap.histograms.iter_nonempty() {
        if !wrote_header {
            let _ = writeln!(out, "  histograms (count / mean / p50 / p99 / max):");
            wrote_header = true;
        }
        let _ = writeln!(
            out,
            "    {:<18} {:>10}  {:>12.1}  {:>10}  {:>10}  {:>10}",
            name,
            h.count,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max
        );
    }

    if !snap.phases.is_empty() {
        let _ = writeln!(out, "  phases:");
        for p in &snap.phases {
            let _ = writeln!(
                out,
                "    {:<18} {:>10.3} ms",
                p.name,
                (p.end_us.saturating_sub(p.start_us)) as f64 / 1000.0
            );
        }
    }

    if !snap.timeline.is_empty() {
        // Worker exits mark the termination wave; summarize its spread
        // rather than dumping every event.
        let exits: Vec<u64> = snap
            .timeline
            .iter()
            .filter(|e| e.label == "worker_exit")
            .map(|e| e.t_us)
            .collect();
        if let (Some(&first), Some(&last)) = (exits.iter().min(), exits.iter().max()) {
            let _ = writeln!(
                out,
                "  termination: {} worker exits over {:.3} ms",
                exits.len(),
                (last - first) as f64 / 1000.0
            );
        }
    }

    if let Some(io) = &snap.io {
        let _ = writeln!(
            out,
            "  io: {} reads, {} device reads, {} bytes, cache {}/{} ({:.1}% hit)",
            io.adjacency_reads,
            io.block_fetches,
            io.bytes_read,
            io.cache_hits,
            io.cache_hits + io.cache_misses,
            100.0 * io.cache_hit_rate()
        );
        if io.blocks_coalesced + io.reads_merged + io.readahead_hits > 0 {
            let _ = writeln!(
                out,
                "  sched: {} blocks coalesced, {} merged reads, {} readahead hits",
                io.blocks_coalesced, io.reads_merged, io.readahead_hits
            );
        }
        if io.retries + io.faults_absorbed + io.faults_fatal > 0 {
            let _ = writeln!(
                out,
                "  faults: {} retries, {} absorbed, {} fatal",
                io.retries, io.faults_absorbed, io.faults_fatal
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Counter, HistKind, Recorder, ShardedRecorder};
    use crate::snapshot::IoStats;

    #[test]
    fn renders_all_sections() {
        let r = ShardedRecorder::new(1);
        r.register_worker(0);
        r.counter(Counter::VisitorsPushed, 100);
        r.counter(Counter::LocalPushes, 75);
        r.counter(Counter::VisitorsExecuted, 100);
        r.observe(HistKind::ServiceTimeNs, 800);
        r.phase_start("traversal");
        r.phase_end("traversal");
        r.timeline("worker_exit");
        r.register_worker(usize::MAX);
        let mut snap = r.snapshot();
        snap.io = Some(IoStats {
            adjacency_reads: 1,
            cache_hits: 1,
            cache_misses: 0,
            bytes_read: 4096,
            block_fetches: 1,
            retries: 3,
            faults_absorbed: 3,
            faults_fatal: 0,
            blocks_coalesced: 2,
            reads_merged: 1,
            readahead_hits: 1,
        });
        let text = render_summary(&snap);
        assert!(text.contains("visitors_pushed"));
        assert!(text.contains("push_locality"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("service_time_ns"));
        assert!(text.contains("traversal"));
        assert!(text.contains("termination: 1 worker exits"));
        assert!(text.contains("100.0% hit"));
        assert!(text.contains("1 device reads"));
        assert!(text.contains("sched: 2 blocks coalesced, 1 merged reads, 1 readahead hits"));
        assert!(text.contains("faults: 3 retries, 3 absorbed, 0 fatal"));
    }

    #[test]
    fn empty_snapshot_renders_without_panic() {
        let r = ShardedRecorder::new(0);
        let text = render_summary(&r.snapshot());
        assert!(text.contains("metrics (schema v3"));
    }
}
