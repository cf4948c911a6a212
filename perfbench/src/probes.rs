//! Layer probes: each times one module's public functions from outside,
//! on inputs shaped from the workload's own graph and visit order.

use crate::util::median;
use asyncgt::storage::SemGraph;
use asyncgt::vq::bucket::BucketQueue;
use asyncgt::vq::{PushCtx, VisitHandler, Visitor, VisitorQueue, VqConfig};
use asyncgt::{CsrGraph, Graph, Vertex};
use std::hint::black_box;
use std::time::Instant;

/// Synthetic visitor the size of the BFS/SSSP visitor (16 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Probe {
    prio: u64,
    target: u32,
    idx: u32,
}

impl Visitor for Probe {
    fn target(&self) -> u64 {
        self.target as u64
    }
    fn priority(&self) -> u64 {
        self.prio
    }
}

/// `graph`: ns per edge of `CsrGraph::for_each_neighbor` over every vertex.
pub fn scan_ns_per_edge(g: &CsrGraph<u32>, reps: usize) -> f64 {
    let m = g.num_edges().max(1) as f64;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for v in 0..g.num_vertices() {
                g.for_each_neighbor(v, |t, w| acc = acc.wrapping_add(t ^ w as u64));
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / m
        })
        .collect();
    median(&times)
}

/// Marker for a pop in a priority stream; every other entry is a push,
/// encoded `priority << 32 | target`.
const POP: u64 = u64::MAX;

fn push_op(prio: u64, target: Vertex) -> u64 {
    (prio << 32) | target
}

/// The pushes and pops a label-setting traversal makes, in visit order:
/// `seeds` first, then for each visited vertex one pop followed by one push
/// per out-edge carrying `child(u)`.
pub fn priority_stream<G: Graph>(
    g: &G,
    seeds: impl Iterator<Item = (u64, Vertex)>,
    order: &[u32],
    child: impl Fn(Vertex) -> u64,
) -> Vec<u64> {
    let mut ops: Vec<u64> = seeds.map(|(p, v)| push_op(p, v)).collect();
    for &u in order {
        ops.push(POP);
        let p = child(u as Vertex);
        g.for_each_neighbor(u as Vertex, |t, _| ops.push(push_op(p, t)));
    }
    ops
}

/// `vq`: ns per visitor of `BucketQueue::push` + `pop` over `ops` at
/// class width `shift`, draining whatever the stream leaves queued.
pub fn bucket_ns_per_visitor(ops: &[u64], shift: u32, reps: usize) -> f64 {
    let pushes = ops.iter().filter(|&&o| o != POP).count().max(1) as f64;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut q: BucketQueue<Probe> = BucketQueue::new(shift, true);
            let t = Instant::now();
            for &op in ops {
                if op == POP {
                    black_box(q.pop());
                } else {
                    q.push(Probe {
                        prio: op >> 32,
                        target: op as u32,
                        idx: 0,
                    });
                }
            }
            while let Some(v) = q.pop() {
                black_box(v);
            }
            t.elapsed().as_nanos() as f64 / pushes
        })
        .collect();
    median(&times)
}

/// The pushes of a priority stream, in order (its pops dropped).
pub fn pushes(ops: &[u64]) -> Vec<u64> {
    ops.iter().copied().filter(|&o| o != POP).collect()
}

fn probe_at(pushes: &[u64], k: u64) -> Probe {
    let op = pushes[k as usize];
    Probe {
        prio: op >> 32,
        target: op as u32,
        idx: k as u32,
    }
}

/// Push-only handler: visitor `k` pushes children `k·fanout + 1 ..` of a
/// complete `fanout`-ary tree over the workload's pushes, each carrying
/// that push's priority and target. No graph reads, no label state: what
/// is left is the runtime's own cost per visitor.
struct PushOnly<'a> {
    pushes: &'a [u64],
    fanout: u64,
}

impl VisitHandler<Probe> for PushOnly<'_> {
    fn visit(&self, v: Probe, ctx: &mut PushCtx<'_, Probe>) {
        let first = v.idx as u64 * self.fanout + 1;
        let end = (first + self.fanout).min(self.pushes.len() as u64);
        for k in first..end {
            ctx.push(probe_at(self.pushes, k));
        }
    }
}

/// `vq`: ns per visitor of `VisitorQueue::run` with the push-only handler
/// on `threads` workers, one visitor per push of the workload's stream.
/// Returns the median and whether every run executed each visitor once.
pub fn vq_run_ns_per_visitor(
    pushes: &[u64],
    fanout: u64,
    threads: usize,
    shift: u32,
    reps: usize,
) -> (f64, bool) {
    let pushes = &pushes[..pushes.len().min(u32::MAX as usize)];
    let total = pushes.len() as u64;
    let h = PushOnly {
        pushes,
        fanout: fanout.max(2),
    };
    let mut cfg = VqConfig::with_threads(threads);
    cfg.priority_shift = shift;
    let mut exact = true;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let stats = VisitorQueue::run(&cfg, &h, [probe_at(pushes, 0)]);
            exact &= stats.visitors_executed == total;
            stats.elapsed.as_nanos() as f64 / total as f64
        })
        .collect();
    (median(&times), exact)
}

/// `storage`: median µs of one `SemGraph::try_for_each_neighbor`, over the
/// first `limit` non-empty vertices of the visit order.
pub fn fetch_us(sem: &SemGraph, order: &[u32], limit: usize) -> Result<f64, String> {
    let mut lat = Vec::with_capacity(limit);
    for &v in order
        .iter()
        .filter(|&&v| sem.out_degree(v as Vertex) > 0)
        .take(limit)
    {
        let t = Instant::now();
        sem.try_for_each_neighbor(v as Vertex, |t, w| {
            black_box((t, w));
        })
        .map_err(|e| format!("probe fetch of vertex {v}: {e}"))?;
        lat.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&lat))
}

/// `storage`: median µs of one `SemGraph::prefetch_adjacency` over
/// semi-sorted 64-vertex batches of the visit order.
pub fn prefetch_us_per_batch(sem: &SemGraph, order: &[u32], batches: usize) -> f64 {
    let lat: Vec<f64> = order
        .chunks(64)
        .take(batches)
        .map(|chunk| {
            let mut b: Vec<Vertex> = chunk.iter().map(|&v| v as Vertex).collect();
            b.sort_unstable();
            let t = Instant::now();
            sem.prefetch_adjacency(&b);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&lat)
}
