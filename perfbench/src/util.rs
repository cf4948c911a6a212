//! Small shared pieces: seeded randomness, order statistics, host facts,
//! the metric/outcome types, and graph helpers the workloads share.

use asyncgt::obs::MetricsSnapshot;
use asyncgt::{validate, CcOutput, Graph, TraversalOutput, TraversalStats, Vertex, INF_DIST};
use asyncgt_baselines::serial;
use std::time::Duration;

/// SplitMix64 finalizer.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Independent sub-seed `tag` of the workload seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    splitmix(seed ^ splitmix(tag))
}

/// Deterministic generator for source picks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        ((splitmix(self.0) as u128 * n as u128) >> 64) as u64
    }
}

/// Quantile `q` of `xs` by linear interpolation between order statistics
/// (the "type 7" estimator); 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Worker count for every workload: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

extern "C" {
    /// glibc: return free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Return heap memory that set-up freed but the allocator still holds,
/// so that it does not count in the run's peak RSS.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only releases free pages back to the kernel;
    // it takes no pointers and touches no live allocation.
    unsafe { malloc_trim(0) };
}

/// Reset the kernel's peak-RSS mark so the next [`peak_rss_mb`] covers
/// only what follows.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Correctness accounting: every traversal or query is one attempt; an
/// `Err`, an admission rejection or a mismatch against the serial
/// reference is one failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn record(&mut self, r: Result<(), String>) -> bool {
        self.record_ok(r).is_some()
    }

    pub fn record_ok<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.first_error.is_none() {
                    self.first_error = Some(e);
                }
                None
            }
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Traced run: the program's own counters, from the recorder.
    pub snapshot: Option<MetricsSnapshot>,
}

/// `count` distinct BFS sources in the giant component (each reaches at
/// least a tenth of the graph), with their serial BFS answers. Picks are
/// a pure function of `seed`.
pub fn pick_sources<G: Graph>(
    g: &G,
    count: usize,
    seed: u64,
) -> Vec<(Vertex, serial::ShortestPaths)> {
    let n = g.num_vertices();
    let mut rng = Rng::new(seed);
    let mut out: Vec<(Vertex, serial::ShortestPaths)> = Vec::new();
    for _ in 0..count * 256 {
        if out.len() == count {
            break;
        }
        let s = rng.below(n);
        if g.out_degree(s) == 0 || out.iter().any(|(o, _)| *o == s) {
            continue;
        }
        let r = serial::bfs(g, s);
        let reached = r.dist.iter().filter(|&&d| d != INF_DIST).count() as u64;
        if reached * 10 >= n {
            out.push((s, r));
        }
    }
    assert!(!out.is_empty(), "no source reaches a tenth of the graph");
    out
}

/// Edges in the traversed component (Graph500): out-edges of every
/// vertex whose label is finite.
pub fn component_edges<G: Graph>(g: &G, labels: &[u64]) -> u64 {
    labels
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != INF_DIST)
        .map(|(v, _)| g.out_degree(v as Vertex))
        .sum()
}

/// Vertices with a finite label, in `(label, id)` order: the order a
/// prioritized traversal visits them.
pub fn visit_order(labels: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..labels.len() as u32)
        .filter(|&v| labels[v as usize] != INF_DIST)
        .collect();
    order.sort_by_key(|&v| (labels[v as usize], v));
    order
}

/// Compare an output label array against the serial answer.
pub fn same_labels(what: &str, got: &[u64], want: &[u64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} labels, want {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what}: vertex {v} has label {}, serial reference says {}",
            got[v], want[v]
        )),
    }
}

/// One traversal request: a BFS or weighted SSSP from a source, or a
/// connected-components labelling.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    Bfs(Vertex),
    Sssp(Vertex),
    Cc,
}

/// A traversal's result, from the one-shot API or from an engine ticket.
pub enum Answer {
    Path(TraversalOutput),
    Cc(CcOutput),
}

impl Answer {
    pub fn stats(&self) -> &TraversalStats {
        match self {
            Answer::Path(o) => &o.stats,
            Answer::Cc(o) => &o.stats,
        }
    }
}

/// Check `a` against the serial `reference` labels, then against the
/// program's own validator over graph `g`.
pub fn check_answer<G: Graph>(
    g: &G,
    q: Query,
    a: &Answer,
    reference: &[u64],
) -> Result<(), String> {
    match (q, a) {
        (Query::Bfs(s) | Query::Sssp(s), Answer::Path(o)) => {
            same_labels("dist", &o.dist, reference)?;
            validate::check_shortest_paths(g, s, o, matches!(q, Query::Bfs(_)))
        }
        (Query::Cc, Answer::Cc(o)) => {
            same_labels("ccid", &o.ccid, reference)?;
            validate::check_components(g, &o.ccid)
        }
        _ => Err(format!("{q:?} answered with the wrong output kind")),
    }
}

/// Deliberately corrupt a reference (self-test of the correctness gate):
/// move the last finite label.
pub fn corrupt(labels: &mut [u64]) {
    if let Some(l) = labels.iter_mut().rev().find(|l| **l != INF_DIST) {
        *l += 1;
    }
}
